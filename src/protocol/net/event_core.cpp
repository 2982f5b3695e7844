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
  ++queued_;
}

void EventCore::schedule_all(std::size_t due, Ref ref, PartyId except) {
  const std::uint32_t d = narrow_due(due);
  const auto privately = [&] {
    for (PartyId r = 0; r < inboxes_.size(); ++r)
      if (r != except) {
        inboxes_[r].heap.push(Delivery{seq_++, d, ref});
        ++queued_;
      }
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
    const auto start = [d](Cursor& cursor) {
      if (cursor.due < d) cursor = Cursor{d, 0};
    };
    if (aligned_)
      start(cursor_);
    else
      for (Inbox& inbox : inboxes_) start(inbox.cursor);
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

bool EventCore::sweep(std::size_t slot, std::vector<Round>* out) {
  if (queued_ != 0 || (!aligned_ && !realign())) return false;
  out->clear();
  const std::uint32_t until = slot < kNoDue ? static_cast<std::uint32_t>(slot) : kNoDue;
  // As in collect: a slot below the cursor reads no round.
  if (until < cursor_.due) return true;
  // A round pushed before some recipient's crash is skipped by that
  // recipient alone.
  bool below_floor = false;
  walk(cursor_, until, [&](std::uint32_t, const Round& round) {
    below_floor = below_floor || round.seq < wiped_;
    out->push_back(round);
  });
  if (below_floor) {
    out->clear();
    return false;
  }
  pass(cursor_, until);
  return true;
}

void EventCore::split() {
  for (Inbox& inbox : inboxes_) inbox.cursor = cursor_;
  aligned_ = false;
}

bool EventCore::realign() {
  for (const Inbox& inbox : inboxes_)
    if (inbox.cursor != inboxes_.front().cursor) return false;
  if (!inboxes_.empty()) cursor_ = inboxes_.front().cursor;
  aligned_ = true;
  return true;
}

std::uint32_t EventCore::min_cursor() const noexcept {
  if (aligned_) return cursor_.due;
  std::uint32_t lo = kNoDue;
  for (const Inbox& inbox : inboxes_) lo = std::min(lo, inbox.cursor.due);
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
  queued_ -= inbox.heap.size();
  inbox.heap = Heap();
  inbox.floor = seq_;
  wiped_ = seq_;
}

std::size_t EventCore::pending(PartyId recipient) const {
  const Inbox& inbox = inboxes_[recipient];
  std::size_t count = inbox.heap.size();
  walk(aligned_ ? cursor_ : inbox.cursor, kNoDue, [&](std::uint32_t, const Round& round) {
    if (round.except != recipient && round.seq >= inbox.floor) ++count;
  });
  return count;
}

}  // namespace mh::net
