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
// receive() itself only records the rare outcomes.
void HonestNode::receive(const Block& block, std::vector<Block>* accepted) {
  const TreeView::Lookup found = view_.lookup(block);
  if (!found.intact ||                                   // forged header
      !schedule_->eligible(block.issuer, block.slot)) {  // signature check
    MH_OBS_COUNT("protocol.node.invalid_dropped", 1);
    return;
  }
  switch (view_.try_add(block, found)) {
    case BlockTree::AddResult::Added:
      if (accepted) accepted->push_back(block);
      view_.orphans().flush(view_, accepted);
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
