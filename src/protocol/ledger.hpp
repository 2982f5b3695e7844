// The transaction layer over the block substrate: what a settlement violation
// *means* to an application. Transactions carry a conflict class (two
// transactions of one class are mutually exclusive spends of the same coin);
// a chain's ledger accepts the first transaction per class, and a double
// spend succeeds when a transaction confirmed at depth k on one chain is
// displaced by a conflicting one after a reorg.
#pragma once

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "protocol/blocktree.hpp"

namespace mh {

struct Transaction {
  std::uint64_t id = 0;        ///< globally unique
  std::uint64_t conflict = 0;  ///< conflict class ("which coin is being spent")
  PartyId sender = 0;
  std::uint64_t amount = 0;

  friend bool operator==(const Transaction&, const Transaction&) = default;
};

/// Associates transaction batches with blocks (the simulator's blocks carry
/// only a payload digest; the store is the off-chain data availability layer).
class PayloadStore {
 public:
  /// Binds the batch to a block; re-attaching to the same block replaces it.
  void attach(BlockHash block, std::vector<Transaction> transactions);
  [[nodiscard]] const std::vector<Transaction>* batch(BlockHash block) const;

 private:
  std::unordered_map<BlockHash, std::vector<Transaction>> batches_;
};

/// The ledger state induced by one chain.
struct LedgerState {
  /// Accepted transactions in chain order (first per conflict class wins).
  std::vector<Transaction> accepted;
  /// Transactions skipped because an earlier chain entry spent their class.
  std::vector<Transaction> rejected;
};

/// Replays the chain ending at `head` through the store.
LedgerState replay_chain(const BlockTree& tree, BlockHash head, const PayloadStore& store);

/// The accepted transaction of `conflict_class` on the chain, provided it is
/// buried under at least `min_depth` blocks (its confirmation); nullopt when
/// unconfirmed or absent.
std::optional<Transaction> confirmed_spend(const BlockTree& tree, BlockHash head,
                                           const PayloadStore& store,
                                           std::uint64_t conflict_class,
                                           std::size_t min_depth);

/// Did a double spend succeed between the two chain observations? True iff
/// both chains confirm (at the given depth) different transactions of the
/// same conflict class.
bool double_spend_succeeded(const BlockTree& tree, BlockHash before, BlockHash after,
                            const PayloadStore& store, std::uint64_t conflict_class,
                            std::size_t min_depth);

}  // namespace mh
