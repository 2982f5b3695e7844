// An honest protocol participant: collects valid blocks, follows the
// longest-chain rule under its tie-breaking regime, and forges exactly one
// block whenever the schedule elects it.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "protocol/blocktree.hpp"
#include "protocol/leader.hpp"

namespace mh {

class HonestNode {
 public:
  /// A node whose view is a membership set over `store`, which other nodes
  /// may share and which must outlive the node (a Simulation passes its
  /// global tree). With no store the node owns a private one (tests and
  /// standalone tools).
  HonestNode(PartyId id, TieBreak rule, const ScheduleSource* schedule,
             BlockTree* store = nullptr);

  [[nodiscard]] PartyId id() const noexcept { return id_; }

  /// Validates issuance against the schedule (the "signature check") and adds
  /// the block to the local view. Blocks whose parents are unknown are
  /// buffered (deduplicated) and retried when an ancestor arrives; blocks the
  /// view reports permanently invalid are dropped, never buffered. Every
  /// block newly admitted to the view — the delivered one and any orphans it
  /// unblocked, in acceptance order (parents first) — is appended to
  /// `*accepted` when non-null, so callers can mirror the node's view.
  void receive(const Block& block, std::vector<Block>* accepted = nullptr);
  /// receive(), reporting admissions as entries of the view's store.
  void admit(const Block& block, std::vector<std::uint32_t>* accepted);
  /// receive() of a resolved entry of the view's store, whose issuance the
  /// caller has checked: its header was checked when it entered the store.
  /// Returns true, appending nothing, when the entry was admitted and no
  /// orphan waits: the common case. Otherwise every entry admitted (this
  /// one, then the orphans it unblocked) is appended to `*accepted`.
  [[nodiscard, gnu::always_inline]] bool admit_stored(const TreeView::Resolved& r,
                                                      std::vector<std::uint32_t>* accepted) {
    const BlockTree::AddResult result = view_.admit(r);
    if (result == BlockTree::AddResult::Added && view_.orphans().size() == 0) return true;
    if (result != BlockTree::AddResult::Duplicate)
      settle(result, r.entry, view_.store().entry_block(r.entry), accepted);
    return false;
  }

  /// Current longest-chain head under this node's tie-break rule.
  [[nodiscard]] BlockHash best_head() const { return view_.best_head(rule_); }
  [[nodiscard]] std::size_t best_length() const { return view_.best_length(); }

  /// Forge the slot's block on top of the current best chain.
  [[nodiscard]] Block forge(std::size_t slot, std::uint64_t payload) const;

  [[nodiscard]] const TreeView& tree() const noexcept { return view_; }
  /// Parent-unknown blocks currently waiting for their ancestry.
  [[nodiscard]] std::size_t buffered_orphans() const noexcept { return view_.orphans().size(); }

  /// Crash: the orphan buffer is volatile and is lost; the view is the
  /// node's persisted state and survives. The restart path is crash() + the
  /// transport's re-sync shipping the missing public suffix ancestors-first,
  /// which receive() drains like any delivery.
  void crash() noexcept { view_.orphans().clear(); }

 private:
  /// Act on the view's verdict for `block` (entry `entry` once Added).
  void settle(BlockTree::AddResult result, std::uint32_t entry, const Block& block,
              std::vector<std::uint32_t>* accepted);

  PartyId id_;
  TieBreak rule_;
  const ScheduleSource* schedule_;
  std::unique_ptr<BlockTree> own_store_;  ///< a one-column store, only when none was passed
  TreeView view_;
  std::vector<std::uint32_t> admitted_;   ///< receive()'s entries, reused
};

}  // namespace mh
