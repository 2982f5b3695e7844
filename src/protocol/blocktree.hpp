// A party's local view of the block DAG (a tree, by the parent-hash links),
// with longest-chain selection under the two tie-breaking regimes:
//
//   * AdversarialOrder (axiom A0): ties between maximum-length chains resolve
//     by FIRST arrival, which the rushing adversary controls per recipient
//     (it orders each slot's deliveries, so "first" is its choice);
//   * ConsistentHash (axiom A0'): every honest party breaks ties by the
//     minimal head hash, so identical views yield identical selections.
//
// The tree is built for long executions AND wide sweeps. Storage is
// structure-of-arrays: per-entry columns (block, length, slot, parent,
// arrival hash) are parallel contiguous arrays, and the hash -> index map is
// a flat open-addressing table (keys are already FNV digests). Consequently
// best_head / max_length_heads are O(1)+copy, and an insertion is a handful
// of sequential array appends: no per-block heap node, no random reads.
//
// Ancestry is a walk up the parent column. common_ancestor costs the length
// gap plus both chains' distance to their meet; block_at_slot costs the
// number of the chain's blocks above the slot. Every caller walks a short
// way: settlement watches run at oracle-scale horizons, and the end-of-run
// observers stop where the honest chains diverge, which Linear Consistency
// puts at O(k) blocks with overwhelming probability. The tree keeps no
// derived index, so its const queries are plain reads that any number of
// threads may run at once.
//
// A tree is also a BLOCK STORE: an honest node holds a TreeView (below), a
// membership set over the entries of a tree it shares with other nodes (in a
// simulation, the global tree). Entries are append-only and their indices
// stable, so a view, and the transport, name a block by its 32-bit entry and
// read its length, slot and parent from the shared columns. The views' sets
// are the columns of one word-major membership matrix the store owns: word w
// of view c is member[w * columns + c], so a block delivered to every view
// sets one bit in each of a run of consecutive words instead of touching one
// allocation per view.
//
// The whole Storage block, matrix included, is recycled through a
// thread-local arena: a destroyed tree donates its buffers, the next tree
// constructed on the same thread reuses them, so a sweep cell that runs
// executions back to back (each builds a global and a public tree) performs
// zero per-block allocations after its first run reached the high-water
// mark. Recycling is invisible to semantics (storage is fully reset on reuse;
// only capacities survive). The arena stays because those back-to-back runs
// are the oracle band's shape: thousands of short executions per worker,
// each building two trees, measured ~10% slower without it.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <type_traits>
#include <vector>

#include "protocol/block.hpp"

namespace mh {

enum class TieBreak { AdversarialOrder, ConsistentHash };

/// The longest-chain head set, kept incrementally by trees and views alike:
/// a strictly longer entry resets the tie set, an equal-length one joins it
/// (arrival order is offer order), and the minimal head hash is tracked.
/// Starts as {genesis}, entry 0. The first-arrived head is kept inline and
/// only later ties spill to a vector, so a view that never sees a tie never
/// allocates for its heads.
class HeadSet {
 public:
  HeadSet() : min_hash_(genesis_block().hash) {}

  void offer(std::uint32_t entry, std::size_t length, BlockHash hash) {
    if (length > best_length_) {
      best_length_ = length;
      first_ = entry;
      ties_.clear();
      min_hash_ = hash;
    } else if (length == best_length_) {
      ties_.push_back(entry);
      min_hash_ = std::min(min_hash_, hash);
    }
  }

  [[nodiscard]] std::size_t best_length() const noexcept { return best_length_; }
  /// The selected head; `hashes` maps entries to block hashes.
  /// AdversarialOrder intentionally means FIRST arrival among the tied
  /// heads: the adversary, ordering deliveries per recipient, decides which
  /// tied head arrives first.
  [[nodiscard]] BlockHash best(TieBreak rule, const std::vector<BlockHash>& hashes) const {
    return rule == TieBreak::AdversarialOrder ? hashes[first_] : min_hash_;
  }
  /// The tied heads' hashes, in arrival order.
  [[nodiscard]] std::vector<BlockHash> heads(const std::vector<BlockHash>& hashes) const;

 private:
  std::uint32_t first_ = 0;            ///< the first-arrived max-length entry
  std::vector<std::uint32_t> ties_;    ///< later max-length entries, arrival order
  std::size_t best_length_ = 0;
  BlockHash min_hash_;  ///< min hash among the max-length entries
};

class BlockTree {
 public:
  /// Why an insertion did (not) extend the tree. `Orphan` is the only
  /// retriable outcome (the parent may still arrive); `Invalid` blocks can
  /// never become valid (tampered header, or slot not strictly above the
  /// parent's) and must not be buffered.
  enum class AddResult : std::uint8_t { Added, Duplicate, Orphan, Invalid };

  /// Entry indices are 32-bit; 0xffffffff is the index map's empty sentinel,
  /// so a tree holds at most this many blocks (genesis included). try_add
  /// guards the limit with MH_REQUIRE — reachable at the 10^6-party /
  /// 10^7-slot bench tiers, it must fail loudly, never truncate.
  static constexpr std::size_t kMaxBlocks = 0xffffffffu;

  BlockTree();
  /// Test hook: cap the tree at `max_blocks` total entries (genesis included,
  /// clamped to kMaxBlocks) so the overflow guard path is exercisable without
  /// 2^32 insertions.
  explicit BlockTree(std::size_t max_blocks);
  ~BlockTree();

  // Storage is arena-backed and exclusively owned: movable, not copyable.
  BlockTree(BlockTree&&) noexcept = default;
  BlockTree& operator=(BlockTree&&) noexcept = default;
  BlockTree(const BlockTree&) = delete;
  BlockTree& operator=(const BlockTree&) = delete;

  /// Validates and inserts: header hash intact, parent known, slot strictly
  /// increasing. Returns the precise outcome; the block is ignored unless
  /// `Added`. Throws std::invalid_argument (MH_REQUIRE) if the insertion
  /// would overflow the 32-bit entry index or chain-length space.
  AddResult try_add(const Block& block);

  /// `try_add`, collapsed to "is the block in the tree after the call".
  bool add(const Block& block) {
    const AddResult r = try_add(block);
    return r == AddResult::Added || r == AddResult::Duplicate;
  }

  [[nodiscard]] bool contains(BlockHash hash) const;
  [[nodiscard]] const Block& block(BlockHash hash) const;
  /// Chain length from genesis (genesis has length 0).
  [[nodiscard]] std::size_t length(BlockHash hash) const;
  [[nodiscard]] std::size_t block_count() const noexcept { return s_.blocks.size(); }

  /// Longest-chain selection per the tie-break rule, O(1): under
  /// AdversarialOrder the first-arrived maximum-length block wins; under
  /// ConsistentHash the minimal hash among them.
  [[nodiscard]] BlockHash best_head(TieBreak rule) const;
  /// All maximum-length chain heads, in arrival order (the tie set the
  /// adversary may order under axiom A0). O(|heads|) copy.
  [[nodiscard]] std::vector<BlockHash> max_length_heads() const;
  /// Length of the currently best chain.
  [[nodiscard]] std::size_t best_length() const noexcept { return heads_.best_length(); }

  /// Genesis-to-head block sequence (genesis included). O(chain).
  [[nodiscard]] std::vector<BlockHash> chain(BlockHash head) const;

  /// Hash of the deepest common ancestor of two chains. O(length gap +
  /// distance from each head to the meet).
  [[nodiscard]] BlockHash common_ancestor(BlockHash a, BlockHash b) const;

  /// The block of the chain `head` with the largest slot <= s, if different
  /// from genesis; used for settlement checks ("what does this chain say about
  /// slot s?"). O(blocks of the chain above slot s).
  [[nodiscard]] std::optional<BlockHash> block_at_slot(BlockHash head, std::uint64_t slot) const;

  /// All block hashes in arrival order (genesis first). This is the SoA hash
  /// column itself, not a copy.
  [[nodiscard]] const std::vector<BlockHash>& arrival_order() const noexcept {
    return s_.arrival;
  }

  /// Entry-level access for the transport and the simulation, which carry
  /// 32-bit entries instead of blocks. Entries are stable: entry i is the
  /// i-th arrival (genesis is entry 0).
  static constexpr std::uint32_t kNoEntry = 0xffffffffu;
  /// The entry holding `hash`, or kNoEntry.
  [[nodiscard]] std::uint32_t find_entry(BlockHash hash) const noexcept { return find(hash); }
  [[nodiscard]] const Block& entry_block(std::uint32_t entry) const { return s_.blocks[entry]; }
  /// The parent's entry (genesis: 0).
  [[nodiscard]] std::uint32_t entry_parent(std::uint32_t entry) const {
    return s_.parents[entry];
  }

  /// Structure-of-arrays storage. Public only as a type (for the arena API
  /// below); the columns themselves stay private to BlockTree.
  struct Storage {
    std::vector<Block> blocks;           ///< arrival order; index 0 = genesis
    std::vector<std::uint32_t> lengths;  ///< chain length column
    std::vector<std::uint64_t> slots;    ///< slot-label column (hot in queries)
    std::vector<std::uint32_t> parents;  ///< parent-index column (genesis: 0)
    std::vector<BlockHash> arrival;      ///< hash column == arrival order
    /// Open-addressing hash -> index map (linear probing, power-of-two
    /// capacity). vals[i] == kEmptySlot marks a free slot; keys are the
    /// block hashes (already FNV-mixed, re-mixed once more for the mask).
    std::vector<BlockHash> index_keys;
    std::vector<std::uint32_t> index_vals;
    std::size_t index_size = 0;
    /// The views' membership matrix, word-major: word w of column c is
    /// member[w * columns + c], so one entry's bit across every view is one
    /// run of consecutive words. Rows are appended as views hold later
    /// entries; a new column is appended in place while the matrix has one
    /// row, and re-lays it out once otherwise.
    std::vector<std::uint64_t> member;
    std::uint32_t columns = 0;
  };

  /// Cumulative counters of the calling thread's storage arena (diagnostics
  /// and tests; recycling must be semantically invisible).
  struct ArenaStats {
    std::size_t acquired = 0;  ///< storages handed to trees
    std::size_t recycled = 0;  ///< of those, served from the free list
    std::size_t released = 0;  ///< storages returned by destroyed trees
  };
  [[nodiscard]] static ArenaStats arena_stats() noexcept;
  /// Drop the calling thread's free list (frees the cached capacity).
  static void arena_trim() noexcept;

 private:
  friend class TreeView;
  static constexpr std::uint32_t kEmptySlot = kNoEntry;

  void seed_genesis();
  /// Register one more membership column holding genesis; returns it.
  std::uint32_t add_column();
  /// Insert a validated block under its parent's entry; returns its entry.
  std::uint32_t append(const Block& block, std::uint32_t parent_idx);
  [[nodiscard]] std::uint32_t find(BlockHash hash) const noexcept;
  [[nodiscard]] std::uint32_t index_of(BlockHash hash) const;
  void index_insert(BlockHash hash, std::uint32_t idx);
  void index_grow();

  Storage s_;
  std::size_t max_blocks_ = kMaxBlocks;
  HeadSet heads_;
};

class TreeView;

/// A parent-unknown buffer, one per honest node's view (flush(BlockTree&)
/// serves a standalone tree): deduplicated (re-delivery cannot grow it),
/// retried until no progress, and permanently invalid blocks are dropped
/// instead of retried forever.
class OrphanBuffer {
 public:
  /// Buffers the block unless an identical hash is already waiting. The
  /// dedupe is a scan: buffers stay short (transport ships ancestors first)
  /// and every honest node holds one, so no per-buffer hash set.
  void buffer(const Block& block);
  /// Retries every buffered block against `tree` until no further progress;
  /// newly admitted blocks are appended to `*accepted` (when non-null) in
  /// acceptance order. Duplicate and Invalid outcomes drop the block.
  void flush(BlockTree& tree, std::vector<Block>* accepted);
  /// The same against a view; admitted blocks are reported as store entries.
  void flush(TreeView& view, std::vector<std::uint32_t>* accepted);
  [[nodiscard]] std::size_t size() const noexcept { return orphans_.size(); }
  /// Drop every buffered orphan (crash: the buffer is volatile state).
  void clear() noexcept { orphans_.clear(); }

 private:
  std::vector<Block> orphans_;  ///< arrival order
};

/// One party's view of a shared block store: the set of the store's entries
/// it holds, its maximum-length heads in its own arrival order, the min-hash
/// head, the best length, a block count and its parent-unknown blocks.
/// Admission and head selection follow BlockTree::try_add exactly, so a view
/// answers every query the party's own tree would; chain length, slot and
/// ancestry are properties of the block and are read from the store.
///
/// The set is one column of the store's membership matrix (see
/// Storage::member), registered when the view is built; a block delivered to
/// every view sets one bit in each of a run of consecutive words. A view owns
/// its column, so it is movable but not copyable. A block whose content is
/// identical to a stored one was header-checked when it entered the store, so
/// only bit tests remain (admit); any other block gets the full check and,
/// on its first admission, is interned in the store (its parent is held,
/// hence stored). The store must outlive the view.
///
/// What admission reads of a stored entry is the same for every view over
/// the store, so a block delivered to N views is resolved once and admitted
/// N times.
class TreeView {
 public:
  explicit TreeView(BlockTree* store);

  TreeView(TreeView&&) noexcept = default;
  TreeView& operator=(TreeView&&) noexcept = default;
  TreeView(const TreeView&) = delete;
  TreeView& operator=(const TreeView&) = delete;

  /// A block resolved against the store with one index probe: the entry
  /// holding its hash (or kNone), whether that entry is this very block,
  /// and the header check (true for a stored block; computed otherwise).
  struct Lookup {
    std::uint32_t entry;
    bool stored;
    bool intact;
  };
  static constexpr std::uint32_t kNone = BlockTree::kNoEntry;
  [[nodiscard]] Lookup lookup(const Block& block) const;

  /// BlockTree::try_add on the view: Duplicate if held, Invalid if the header
  /// is bad, Orphan if the parent is not held, Invalid unless the slot rises
  /// above the parent's, else Added (and `*added`, when non-null, is the
  /// block's entry).
  BlockTree::AddResult try_add(const Block& block, const Lookup& found,
                               std::uint32_t* added = nullptr);
  BlockTree::AddResult try_add(const Block& block) { return try_add(block, lookup(block)); }

  /// A store entry resolved for admission to any view over its store: the
  /// matrix row offsets (row * columns) and bits of the entry and of its
  /// parent, and the entry's length and hash. Valid only while the store
  /// gains no view: add_column re-lays the matrix out, so a resolution made
  /// before a view joins must be made again. The library admits each
  /// resolution within the call that made it, and a Simulation creates its
  /// views in its constructor, before any delivery.
  struct Resolved {
    std::uint32_t entry;
    std::uint32_t length;
    BlockHash hash;
    std::size_t row;
    std::uint64_t bit;
    std::size_t parent_row;
    std::uint64_t parent_bit;
  };
  /// Resolve the store's entry `entry`, and grow the matrix to hold its row
  /// (the parent's row, below it, is held already), so admission needs no
  /// bound check.
  [[nodiscard]] static Resolved resolve(BlockTree& store, std::uint32_t entry) {
    BlockTree::Storage& s = store.s_;
    const std::uint32_t parent = s.parents[entry];
    const std::size_t row = static_cast<std::size_t>(entry >> 6) * s.columns;
    if (row + s.columns > s.member.size()) s.member.resize(row + s.columns, 0);
    return {entry, s.lengths[entry], s.arrival[entry], row, std::uint64_t{1} << (entry & 63),
            static_cast<std::size_t>(parent >> 6) * s.columns, std::uint64_t{1} << (parent & 63)};
  }
  /// try_add of a resolved store entry: Duplicate if held, Orphan if its
  /// parent is not, else Added. The store checked its header and slot.
  BlockTree::AddResult admit(const Resolved& r) {
    std::vector<std::uint64_t>& member = store_->s_.member;
    std::uint64_t& word = member[r.row + column_];
    if ((word & r.bit) != 0) return BlockTree::AddResult::Duplicate;
    if ((member[r.parent_row + column_] & r.parent_bit) == 0) return BlockTree::AddResult::Orphan;
    word |= r.bit;
    ++count_;
    heads_.offer(r.entry, r.length, r.hash);
    return BlockTree::AddResult::Added;
  }

  /// The party's parent-unknown blocks, flushed against this view.
  [[nodiscard]] OrphanBuffer& orphans() noexcept { return orphans_; }
  [[nodiscard]] const OrphanBuffer& orphans() const noexcept { return orphans_; }

  [[nodiscard]] bool contains(BlockHash hash) const;
  [[nodiscard]] std::size_t block_count() const noexcept { return count_; }
  [[nodiscard]] std::size_t best_length() const noexcept { return heads_.best_length(); }
  /// As BlockTree::best_head / max_length_heads, in this view's arrival order.
  [[nodiscard]] BlockHash best_head(TieBreak rule) const {
    return heads_.best(rule, store_->s_.arrival);
  }
  [[nodiscard]] std::vector<BlockHash> max_length_heads() const {
    return heads_.heads(store_->s_.arrival);
  }
  /// The held blocks in store order: a set, not this view's arrival order.
  [[nodiscard]] std::vector<BlockHash> members() const;
  [[nodiscard]] const BlockTree& store() const noexcept { return *store_; }

 private:
  [[nodiscard]] bool holds(std::uint32_t entry) const noexcept {
    const BlockTree::Storage& s = store_->s_;
    const std::size_t word = static_cast<std::size_t>(entry >> 6) * s.columns + column_;
    return word < s.member.size() && ((s.member[word] >> (entry & 63)) & 1u) != 0;
  }

  BlockTree* store_;
  std::uint32_t column_;   ///< this view's column of the store's matrix
  std::size_t count_ = 1;  ///< genesis is always held
  HeadSet heads_;
  OrphanBuffer orphans_;
};

static_assert(!std::is_copy_constructible_v<TreeView> && !std::is_copy_assignable_v<TreeView>,
              "a view owns its matrix column");
static_assert(std::is_nothrow_move_constructible_v<TreeView>,
              "views move when a node vector grows");

}  // namespace mh
