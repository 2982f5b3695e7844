// The discrete-event heart of the transport: timestamped deliveries of 32-bit
// refs, popped per recipient in (due, seq) order.
//
// A ref names what is delivered: an entry of the network's block store, or,
// with the high bit set, an index into the network's side table of blocks the
// store does not hold byte-for-byte (see Network). Every scheduled send takes
// one seq from one global monotone counter, so the pop order (due ascending,
// then seq ascending) is a total order fixed at scheduling time. Within one
// recipient, equal-due deliveries pop in scheduling order; under heterogeneous
// latency laws a late send with a short draw overtakes an early send with a
// long one. The (due, seq) key is the contract callers rely on, and it is why
// the golden transport digests survive any change to how deliveries are held.
//
// Deliveries are held two ways, merged by (due, seq) at collection:
//
//   * private: a per-recipient binary heap of 16-byte Delivery{seq, due, ref};
//   * shared: a delivery to every recipient but one (`except`, the forger, or
//     nobody for an adversarial injection) is ONE 16-byte Round{seq, ref,
//     except}, appended to the bucket of its due in a power-of-two ring of
//     buckets. Each recipient reads the rounds through its own cursor (due,
//     position): it has read every round due before `due` and the first
//     `position` rounds of bucket `due`. A crash sets the recipient's floor
//     seq to the next seq, so every round pushed before it is skipped.
//
// A round due below some recipient's cursor can no longer be appended (that
// cursor has passed its bucket), so it falls back to one private delivery per
// recipient; the pop order is the same either way. A bucket is recycled once
// every cursor has passed it; the ring doubles when a new due would land on a
// bucket some cursor still has to read, up to a cap past which a round takes
// the private fallback too.
//
// Two ways to read. collect() hands one recipient its merged deliveries.
// sweep() reads a slot's due rounds ONCE for every recipient, and only when
// that is what each collect would hand it (minus the rounds it is the
// `except` of): no private delivery is queued anywhere, every cursor stands
// at one position, and no round in range was pushed before a crash floor.
// The core tracks those three facts as it goes: a count of queued private
// deliveries, the highest floor, and whether the cursors are aligned. While
// aligned, one shared cursor stands for every recipient's, so a sweep writes
// one cursor, not one per recipient; the first collect gives each recipient
// its own copy, and a sweep re-aligns them when they all agree again.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <queue>
#include <vector>

#include "protocol/block.hpp"

namespace mh::net {

/// A delivery's payload: a store entry, or kForeignTag | side-table index.
using Ref = std::uint32_t;
inline constexpr Ref kForeignTag = 0x80000000u;
[[nodiscard]] constexpr bool is_foreign(Ref ref) noexcept { return (ref & kForeignTag) != 0; }

/// The `except` of a round every recipient reads.
inline constexpr PartyId kNobody = 0xffffffffu;

/// Throws std::invalid_argument naming the slot of a due past 2^32 - 1.
[[noreturn]] void due_overflow(std::size_t due);
/// Dues are 32-bit: a due past 2^32 - 1 throws.
[[nodiscard]] inline std::uint32_t narrow_due(std::size_t due) {
  if (due > 0xffffffffu) due_overflow(due);
  return static_cast<std::uint32_t>(due);
}

/// One private delivery.
struct Delivery {
  std::uint64_t seq;
  std::uint32_t due;
  Ref ref;
};
static_assert(sizeof(Delivery) <= 16, "a private delivery is 16 bytes");

/// One shared delivery: every recipient except `except` reads it.
struct Round {
  std::uint64_t seq;
  Ref ref;
  PartyId except;
};
static_assert(sizeof(Round) <= 16, "a shared round is 16 bytes");

class EventCore {
 public:
  explicit EventCore(std::size_t parties);

  /// Schedule one private delivery to `recipient`.
  void schedule(PartyId recipient, std::size_t due, Ref ref);
  /// Schedule one delivery to every recipient except `except` (kNobody for
  /// all): one shared round, or the private fallback when a cursor has
  /// already passed `due`.
  void schedule_all(std::size_t due, Ref ref, PartyId except);

  /// Hand every delivery for `recipient` with due <= slot to `take(ref)`,
  /// in (due asc, seq asc) order, and consume them. `take` may schedule
  /// private deliveries due after `slot` to other recipients (a gossip
  /// relay), never a shared round.
  template <class Take>
  void collect(PartyId recipient, std::size_t slot, Take&& take);

  /// Read the rounds due by `slot` once for every recipient. When no private
  /// delivery is queued, every cursor agrees and no round in range lies
  /// below a crash floor, collect(r, slot) would hand each recipient r
  /// exactly these rounds minus those whose `except` is r: then replace
  /// `*out` with them in (due, seq) order, consume them for every recipient
  /// and return true. Otherwise consume nothing and return false.
  bool sweep(std::size_t slot, std::vector<Round>* out);

  /// Crash semantics: every delivery queued toward `recipient`, private or
  /// shared, is volatile endpoint state and is lost.
  void wipe(PartyId recipient);

  /// Deliveries queued toward `recipient`, due or not.
  [[nodiscard]] std::size_t pending(PartyId recipient) const;

  /// Deliveries scheduled so far (the seq counter): unchanged means nothing
  /// new of any kind was scheduled.
  [[nodiscard]] std::uint64_t scheduled() const noexcept { return seq_; }

 private:
  static constexpr std::uint32_t kNoDue = 0xffffffffu;

  struct Later {
    bool operator()(const Delivery& a, const Delivery& b) const noexcept {
      return a.due != b.due ? a.due > b.due : a.seq > b.seq;
    }
  };
  using Heap = std::priority_queue<Delivery, std::vector<Delivery>, Later>;

  /// A read position in the shared rounds: every round due before `due`
  /// and the first `pos` rounds of bucket `due` are read.
  struct Cursor {
    std::uint32_t due = 0;
    std::uint32_t pos = 0;
    friend bool operator==(const Cursor&, const Cursor&) = default;
  };
  /// A recipient's private heap, its own cursor (stale while aligned_) and
  /// its crash floor seq.
  struct Inbox {
    Heap heap;
    Cursor cursor;
    std::uint64_t floor = 0;
  };
  struct Bucket {
    std::uint32_t due = kNoDue;
    std::vector<Round> rounds;
  };

  /// Hand `visit(due, round)` every round after `from` due by `until`, in
  /// (due, seq) order. `visit` must not append a round.
  template <class Visit>
  void walk(const Cursor& from, std::uint32_t until, Visit&& visit) const;
  /// Move `cursor` past every round due by `until`, as a read to `until`.
  void pass(Cursor& cursor, std::uint32_t until) {
    const Bucket& at = ring_[until & (ring_.size() - 1)];
    cursor = Cursor{until, at.due == until ? static_cast<std::uint32_t>(at.rounds.size()) : 0};
    passed_ = std::max(passed_, until);
  }
  /// Give every recipient its own copy of the shared cursor.
  void split();
  /// Re-align when every recipient's cursor agrees; false if one differs.
  bool realign();
  [[nodiscard]] std::uint32_t min_cursor() const noexcept;
  /// Resize the ring so every bucket some cursor still has to read, and the
  /// bucket of `due`, sit at distinct positions; false (and no change) when
  /// that would pass the ring's size cap.
  bool grow(std::uint32_t due);

  std::vector<Inbox> inboxes_;
  Cursor cursor_;               ///< every recipient's cursor while aligned_
  bool aligned_ = true;         ///< every recipient reads through cursor_
  std::size_t queued_ = 0;      ///< private deliveries queued, all recipients
  std::uint64_t wiped_ = 0;     ///< the highest crash floor
  std::vector<Bucket> ring_;    ///< power-of-two size, bucket of due d at d & mask
  std::uint32_t passed_ = 0;    ///< the highest cursor due: rounds below fall back
  std::uint32_t last_due_ = 0;  ///< the highest due any bucket holds
  bool shared_ = false;         ///< any round ever went to a bucket
  std::uint64_t seq_ = 0;
};

template <class Visit>
void EventCore::walk(const Cursor& from, std::uint32_t until, Visit&& visit) const {
  const std::size_t mask = ring_.size() - 1;
  const std::uint64_t last = std::min(until, last_due_);
  for (std::uint64_t d = from.due; d <= last; ++d) {
    const Bucket& bucket = ring_[d & mask];
    if (bucket.due != d) continue;
    for (std::size_t pos = d == from.due ? from.pos : 0; pos < bucket.rounds.size(); ++pos)
      visit(static_cast<std::uint32_t>(d), bucket.rounds[pos]);
  }
}

// Inline: a simulation that cannot sweep collects once per node per round.
template <class Take>
void EventCore::collect(PartyId recipient, std::size_t slot, Take&& take) {
  if (aligned_) split();
  Inbox& inbox = inboxes_[recipient];
  Heap& heap = inbox.heap;
  // Pop before take: take may schedule (a relay), so no reference into the
  // heap is held across it.
  const auto pop = [&] {
    const Ref ref = heap.top().ref;
    heap.pop();
    --queued_;
    take(ref);
  };
  const std::uint32_t until = slot < kNoDue ? static_cast<std::uint32_t>(slot) : kNoDue;
  // A collect at a lower slot than the cursor reads no round: every round it
  // could see is due after that slot.
  if (until >= inbox.cursor.due) {
    walk(inbox.cursor, until, [&](std::uint32_t d, const Round& round) {
      if (round.except == recipient || round.seq < inbox.floor) return;
      // Private deliveries ahead of the round in (due, seq) order go first.
      while (!heap.empty() &&
             (heap.top().due < d || (heap.top().due == d && heap.top().seq < round.seq)))
        pop();
      take(round.ref);
    });
    pass(inbox.cursor, until);
  }
  while (!heap.empty() && heap.top().due <= until) pop();
}

}  // namespace mh::net
