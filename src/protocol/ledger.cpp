#include "protocol/ledger.hpp"

#include <unordered_set>

#include "support/check.hpp"

namespace mh {

void PayloadStore::attach(BlockHash block, std::vector<Transaction> transactions) {
  batches_[block] = std::move(transactions);
}

const std::vector<Transaction>* PayloadStore::batch(BlockHash block) const {
  const auto it = batches_.find(block);
  return it == batches_.end() ? nullptr : &it->second;
}

LedgerState replay_chain(const BlockTree& tree, BlockHash head, const PayloadStore& store) {
  LedgerState state;
  std::unordered_set<std::uint64_t> spent_classes;
  std::unordered_set<std::uint64_t> seen_ids;
  for (BlockHash h : tree.chain(head)) {
    const std::vector<Transaction>* batch = store.batch(h);
    if (!batch) continue;
    for (const Transaction& tx : *batch) {
      if (seen_ids.contains(tx.id) || spent_classes.contains(tx.conflict)) {
        state.rejected.push_back(tx);
        continue;
      }
      seen_ids.insert(tx.id);
      spent_classes.insert(tx.conflict);
      state.accepted.push_back(tx);
    }
  }
  return state;
}

std::optional<Transaction> confirmed_spend(const BlockTree& tree, BlockHash head,
                                           const PayloadStore& store,
                                           std::uint64_t conflict_class,
                                           std::size_t min_depth) {
  const std::vector<BlockHash> chain = tree.chain(head);
  std::unordered_set<std::uint64_t> spent_classes;
  for (std::size_t i = 0; i < chain.size(); ++i) {
    const std::vector<Transaction>* batch = store.batch(chain[i]);
    if (!batch) continue;
    for (const Transaction& tx : *batch) {
      if (spent_classes.contains(tx.conflict)) continue;
      spent_classes.insert(tx.conflict);
      if (tx.conflict == conflict_class) {
        const std::size_t burial = chain.size() - 1 - i;
        if (burial >= min_depth) return tx;
        return std::nullopt;  // present but not yet confirmed
      }
    }
  }
  return std::nullopt;
}

bool double_spend_succeeded(const BlockTree& tree, BlockHash before, BlockHash after,
                            const PayloadStore& store, std::uint64_t conflict_class,
                            std::size_t min_depth) {
  const std::optional<Transaction> first =
      confirmed_spend(tree, before, store, conflict_class, min_depth);
  const std::optional<Transaction> second =
      confirmed_spend(tree, after, store, conflict_class, min_depth);
  return first && second && !(*first == *second);
}

}  // namespace mh
