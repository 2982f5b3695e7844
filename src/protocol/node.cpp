#include "protocol/node.hpp"

#include "obs/obs.hpp"
#include "support/check.hpp"

namespace mh {

HonestNode::HonestNode(PartyId id, TieBreak rule, const ScheduleSource* schedule,
                       BlockTree* store)
    : id_(id),
      rule_(rule),
      schedule_(schedule),
      own_store_(store ? nullptr : std::make_unique<BlockTree>()),
      view_(store ? store : own_store_.get()) {
  MH_REQUIRE(schedule != nullptr);
}

// blocks_received is counted (aggregated) by Simulation::deliver_due / step;
// the admission paths only record the rare outcomes.
void HonestNode::receive(const Block& block, std::vector<Block>* accepted) {
  admitted_.clear();
  admit(block, &admitted_);
  if (accepted)
    for (const std::uint32_t entry : admitted_) accepted->push_back(view_.store().entry_block(entry));
}

void HonestNode::admit(const Block& block, std::vector<std::uint32_t>* accepted) {
  const TreeView::Lookup found = view_.lookup(block);
  if (!found.intact ||                                   // forged header
      !schedule_->eligible(block.issuer, block.slot)) {  // signature check
    MH_OBS_COUNT("protocol.node.invalid_dropped", 1);
    return;
  }
  std::uint32_t entry = TreeView::kNone;
  const BlockTree::AddResult result = view_.try_add(block, found, &entry);
  settle(result, entry, block, accepted);
}

void HonestNode::settle(BlockTree::AddResult result, std::uint32_t entry, const Block& block,
                        std::vector<std::uint32_t>* accepted) {
  switch (result) {
    case BlockTree::AddResult::Added:
      if (accepted) accepted->push_back(entry);
      if (view_.orphans().size() != 0) view_.orphans().flush(view_, accepted);
      break;
    case BlockTree::AddResult::Orphan:
      // Parent not yet known: buffer (deduplicated) and retry when ancestors
      // arrive; re-delivery cannot grow the buffer.
      MH_OBS_COUNT("protocol.node.orphans_buffered", 1);
      view_.orphans().buffer(block);
      break;
    case BlockTree::AddResult::Duplicate:  // already in the view
      break;
    case BlockTree::AddResult::Invalid:  // can never become valid: drop
      MH_OBS_COUNT("protocol.node.invalid_dropped", 1);
      break;
  }
}

Block HonestNode::forge(std::size_t slot, std::uint64_t payload) const {
  MH_REQUIRE_MSG(schedule_->eligible(id_, slot), "node is not a leader of this slot");
  return make_block(best_head(), slot, id_, payload);
}

}  // namespace mh
