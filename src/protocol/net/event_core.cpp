#include "protocol/net/event_core.hpp"

#include <algorithm>
#include <string>

#include "support/check.hpp"

namespace mh::net {

namespace {

constexpr std::size_t kInitialRing = 16;
/// The ring never spans more dues than this: a round further ahead of the
/// cursors (a far-future injection, or a recipient that stopped collecting)
/// takes the private fallback instead of a ring sized by the gap.
constexpr std::size_t kMaxRing = std::size_t{1} << 16;

}  // namespace

void due_overflow(std::size_t due) {
  require_failed("due <= 0xffffffff", __FILE__, __LINE__,
                 "a delivery due at slot " + std::to_string(due) +
                     " is past the 32-bit due range");
}

EventCore::EventCore(std::size_t parties) : inboxes_(parties), ring_(kInitialRing) {}

void EventCore::schedule(PartyId recipient, std::size_t due, Ref ref) {
  inboxes_[recipient].heap.push(Delivery{seq_++, narrow_due(due), ref});
}

void EventCore::schedule_all(std::size_t due, Ref ref, PartyId except) {
  const std::uint32_t d = narrow_due(due);
  const auto privately = [&] {
    for (PartyId r = 0; r < inboxes_.size(); ++r)
      if (r != except) inboxes_[r].heap.push(Delivery{seq_++, d, ref});
  };
  // A cursor past this bucket, a due too far ahead of every cursor for the
  // ring, or the due that marks a free bucket: one private copy each.
  if (d < passed_ || d - passed_ >= kMaxRing || d == kNoDue) {
    privately();
    return;
  }
  if (!shared_) {
    // No round exists yet, so a cursor that never collected may start at
    // this due: the ring then spans only what recipients still have to read.
    shared_ = true;
    for (Inbox& inbox : inboxes_)
      if (inbox.due < d) {
        inbox.due = d;
        inbox.pos = 0;
      }
    passed_ = d;
  }
  Bucket* bucket = &ring_[d & (ring_.size() - 1)];
  if (bucket->due != d) {
    // The position holds another due: recycle it once every cursor passed
    // it, else make room.
    if (bucket->due != kNoDue && bucket->due >= min_cursor()) {
      if (!grow(d)) {
        privately();
        return;
      }
      bucket = &ring_[d & (ring_.size() - 1)];
    }
    if (bucket->due != d) {
      bucket->due = d;
      bucket->rounds.clear();
    }
  }
  bucket->rounds.push_back(Round{seq_++, ref, except});
  last_due_ = std::max(last_due_, d);
}

std::uint32_t EventCore::min_cursor() const noexcept {
  std::uint32_t lo = kNoDue;
  for (const Inbox& inbox : inboxes_) lo = std::min(lo, inbox.due);
  return lo;
}

bool EventCore::grow(std::uint32_t due) {
  const std::uint32_t lo = min_cursor();
  const std::size_t span = static_cast<std::size_t>(std::max(last_due_, due) - lo) + 1;
  std::size_t size = ring_.size() * 2;
  while (size < span) size *= 2;
  if (size > kMaxRing) return false;
  std::vector<Bucket> ring(size);
  for (Bucket& bucket : ring_)
    if (bucket.due != kNoDue && bucket.due >= lo) ring[bucket.due & (size - 1)] = std::move(bucket);
  ring_.swap(ring);
  return true;
}

void EventCore::wipe(PartyId recipient) {
  Inbox& inbox = inboxes_[recipient];
  inbox.heap = Heap();
  inbox.floor = seq_;
}

std::size_t EventCore::pending(PartyId recipient) const {
  const Inbox& inbox = inboxes_[recipient];
  std::size_t count = inbox.heap.size();
  const std::size_t mask = ring_.size() - 1;
  for (std::uint64_t d = inbox.due; d <= last_due_; ++d) {
    const Bucket& bucket = ring_[d & mask];
    if (bucket.due != d) continue;
    for (std::size_t pos = d == inbox.due ? inbox.pos : 0; pos < bucket.rounds.size(); ++pos)
      if (bucket.rounds[pos].except != recipient && bucket.rounds[pos].seq >= inbox.floor)
        ++count;
  }
  return count;
}

}  // namespace mh::net
