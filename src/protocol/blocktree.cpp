#include "protocol/blocktree.hpp"

#include <algorithm>
#include <bit>
#include <utility>

#include "obs/obs.hpp"
#include "support/check.hpp"

namespace mh {

namespace {

/// Fresh index tables start tiny: standalone nodes (tests, replay tools)
/// each own a store, so the per-tree floor stays in the hundreds of bytes;
/// tables grow geometrically and the grown capacity is what the arena
/// recycles for the next run's global and public trees.
constexpr std::size_t kIndexInitialCap = 16;

/// Block hashes are already FNV digests; one multiplicative round decorrelates
/// the low bits used by the power-of-two mask.
constexpr std::uint64_t index_mix(BlockHash key) noexcept {
  key *= 0x9e3779b97f4a7c15ULL;
  return key ^ (key >> 32);
}

/// OrphanBuffer::flush against a tree or a view: retry every buffered block
/// until a pass makes no progress. `admit` tries one block and reports an
/// admission itself; Orphan blocks keep waiting, compacted in place in their
/// arrival order, and Duplicate and Invalid ones are dropped — a buffered
/// block whose parent arrived but whose labels are bad is permanently
/// invalid, so it is not retried forever.
template <class Admit>
void retry_orphans(std::vector<Block>& orphans, Admit admit) {
  bool progress = true;
  while (progress && !orphans.empty()) {
    progress = false;
    std::size_t kept = 0;
    for (std::size_t i = 0; i < orphans.size(); ++i) {
      switch (admit(orphans[i])) {
        case BlockTree::AddResult::Added:
          progress = true;
          MH_OBS_COUNT("protocol.node.orphans_flushed", 1);
          break;
        case BlockTree::AddResult::Orphan:
          orphans[kept++] = orphans[i];
          break;
        case BlockTree::AddResult::Duplicate:
        case BlockTree::AddResult::Invalid:
          MH_OBS_COUNT("protocol.node.orphans_dropped", 1);
          break;
      }
    }
    orphans.resize(kept);
  }
}

/// Per-thread free list of tree storages. A destroyed tree donates its
/// buffers here; the next tree built on the same thread reuses them, so
/// back-to-back runs in a sweep cell allocate nothing per block once the
/// first run set the high-water capacity.
struct StorageArena {
  std::vector<BlockTree::Storage> free_list;
  BlockTree::ArenaStats stats;
};

StorageArena& arena() noexcept {
  thread_local StorageArena instance;
  return instance;
}

/// Make a (possibly recycled) storage empty-but-capacitated: every column
/// cleared, the index table wiped to the empty sentinel at its current size.
void reset_storage(BlockTree::Storage& s) {
  s.blocks.clear();
  s.lengths.clear();
  s.slots.clear();
  s.parents.clear();
  s.arrival.clear();
  s.member.clear();
  s.columns = 0;
  if (s.index_vals.empty()) {
    s.index_keys.assign(kIndexInitialCap, 0);
    s.index_vals.assign(kIndexInitialCap, 0xffffffffu);
  } else {
    std::fill(s.index_vals.begin(), s.index_vals.end(), 0xffffffffu);
  }
  s.index_size = 0;
}

}  // namespace

BlockTree::BlockTree() : BlockTree(kMaxBlocks) {}

BlockTree::BlockTree(std::size_t max_blocks)
    : max_blocks_(std::min(max_blocks, kMaxBlocks)) {
  MH_REQUIRE_MSG(max_blocks_ >= 1, "block tree must have room for genesis");
  StorageArena& a = arena();
  ++a.stats.acquired;
  if (!a.free_list.empty()) {
    s_ = std::move(a.free_list.back());
    a.free_list.pop_back();
    ++a.stats.recycled;
  }
  reset_storage(s_);
  seed_genesis();
}

BlockTree::~BlockTree() {
  // A moved-from tree has surrendered its vectors; only a live storage (its
  // index table is never empty) goes back to the arena.
  if (s_.index_vals.empty()) return;
  StorageArena& a = arena();
  ++a.stats.released;
  a.free_list.push_back(std::move(s_));
}

BlockTree::ArenaStats BlockTree::arena_stats() noexcept { return arena().stats; }

void BlockTree::arena_trim() noexcept {
  arena().free_list.clear();
  arena().free_list.shrink_to_fit();
}

void BlockTree::seed_genesis() {
  const Block& genesis = genesis_block();
  s_.blocks.push_back(genesis);
  s_.lengths.push_back(0);
  s_.slots.push_back(genesis.slot);
  s_.parents.push_back(0);  // genesis is its own parent slot (never walked)
  s_.arrival.push_back(genesis.hash);
  index_insert(genesis.hash, 0);
}

std::uint32_t BlockTree::add_column() {
  std::vector<std::uint64_t>& member = s_.member;
  const std::uint32_t column = s_.columns;
  const std::size_t rows = column == 0 ? 0 : member.size() / column;
  if (rows <= 1) {
    // One row (genesis's word) is laid out the same at any width.
    member.resize(column);
    member.push_back(1);
  } else {
    std::vector<std::uint64_t> wider(rows * (column + 1), 0);
    for (std::size_t w = 0; w < rows; ++w)
      std::copy_n(member.begin() + static_cast<std::ptrdiff_t>(w * column), column,
                  wider.begin() + static_cast<std::ptrdiff_t>(w * (column + 1)));
    wider[column] = 1;
    member.swap(wider);
  }
  s_.columns = column + 1;
  return column;
}

std::uint32_t BlockTree::find(BlockHash hash) const noexcept {
  const std::size_t mask = s_.index_vals.size() - 1;
  for (std::size_t probe = index_mix(hash) & mask;; probe = (probe + 1) & mask) {
    const std::uint32_t val = s_.index_vals[probe];
    if (val == kEmptySlot || s_.index_keys[probe] == hash) return val;
  }
}

std::uint32_t BlockTree::index_of(BlockHash hash) const {
  const std::uint32_t idx = find(hash);
  MH_REQUIRE_MSG(idx != kEmptySlot, "unknown block");
  return idx;
}

void BlockTree::index_insert(BlockHash hash, std::uint32_t idx) {
  if ((s_.index_size + 1) * 8 >= s_.index_vals.size() * 7) index_grow();
  const std::size_t mask = s_.index_vals.size() - 1;
  std::size_t probe = index_mix(hash) & mask;
  while (s_.index_vals[probe] != kEmptySlot) probe = (probe + 1) & mask;
  s_.index_keys[probe] = hash;
  s_.index_vals[probe] = idx;
  ++s_.index_size;
}

void BlockTree::index_grow() {
  const std::size_t cap = s_.index_vals.size() * 2;
  std::vector<BlockHash> keys(cap, 0);
  std::vector<std::uint32_t> vals(cap, kEmptySlot);
  const std::size_t mask = cap - 1;
  for (std::size_t i = 0; i < s_.index_vals.size(); ++i) {
    const std::uint32_t val = s_.index_vals[i];
    if (val == kEmptySlot) continue;
    const BlockHash key = s_.index_keys[i];
    std::size_t probe = index_mix(key) & mask;
    while (vals[probe] != kEmptySlot) probe = (probe + 1) & mask;
    keys[probe] = key;
    vals[probe] = val;
  }
  s_.index_keys = std::move(keys);
  s_.index_vals = std::move(vals);
}

BlockTree::AddResult BlockTree::try_add(const Block& block) {
  if (find(block.hash) != kEmptySlot) return AddResult::Duplicate;
  if (!verify_block_integrity(block)) return AddResult::Invalid;
  const std::uint32_t parent_idx = find(block.parent);
  if (parent_idx == kEmptySlot) return AddResult::Orphan;
  if (block.slot <= s_.slots[parent_idx]) return AddResult::Invalid;
  append(block, parent_idx);
  return AddResult::Added;
}

std::uint32_t BlockTree::append(const Block& block, std::uint32_t parent_idx) {
  // Index and length both live in 32 bits (kEmptySlot is the index
  // sentinel); the 10^6-party / 10^7-slot tiers make these limits
  // reachable, so overflow must throw, never truncate.
  MH_REQUIRE_MSG(s_.blocks.size() < max_blocks_, "block tree capacity exhausted");
  const auto idx = static_cast<std::uint32_t>(s_.blocks.size());
  MH_REQUIRE_MSG(s_.lengths[parent_idx] < 0xffffffffu, "chain length overflows 32 bits");
  const std::uint32_t length = s_.lengths[parent_idx] + 1;

  heads_.offer(idx, length, block.hash);
  s_.blocks.push_back(block);
  s_.lengths.push_back(length);
  s_.slots.push_back(block.slot);
  s_.parents.push_back(parent_idx);
  s_.arrival.push_back(block.hash);
  index_insert(block.hash, idx);
  return idx;
}

bool BlockTree::contains(BlockHash hash) const { return find(hash) != kEmptySlot; }

const Block& BlockTree::block(BlockHash hash) const { return s_.blocks[index_of(hash)]; }

std::size_t BlockTree::length(BlockHash hash) const { return s_.lengths[index_of(hash)]; }

std::vector<BlockHash> HeadSet::heads(const std::vector<BlockHash>& hashes) const {
  std::vector<BlockHash> out;
  out.reserve(1 + ties_.size());
  out.push_back(hashes[first_]);
  for (const std::uint32_t entry : ties_) out.push_back(hashes[entry]);
  return out;
}

BlockHash BlockTree::best_head(TieBreak rule) const { return heads_.best(rule, s_.arrival); }

std::vector<BlockHash> BlockTree::max_length_heads() const { return heads_.heads(s_.arrival); }

std::vector<BlockHash> BlockTree::chain(BlockHash head) const {
  std::uint32_t idx = index_of(head);
  std::vector<BlockHash> out(static_cast<std::size_t>(s_.lengths[idx]) + 1);
  for (std::size_t pos = out.size(); pos-- > 0;) {
    out[pos] = s_.arrival[idx];
    if (pos != 0) idx = s_.parents[idx];
  }
  return out;
}

BlockHash BlockTree::common_ancestor(BlockHash a, BlockHash b) const {
  const std::uint32_t from_a = index_of(a);
  const std::uint32_t from_b = index_of(b);
  // Level the longer side, then step both until they meet (at genesis at the
  // latest: it roots every chain).
  std::uint32_t ia = from_a;
  std::uint32_t ib = from_b;
  while (s_.lengths[ia] > s_.lengths[ib]) ia = s_.parents[ia];
  while (s_.lengths[ib] > s_.lengths[ia]) ib = s_.parents[ib];
  while (ia != ib) {
    ia = s_.parents[ia];
    ib = s_.parents[ib];
  }
  const std::size_t meet = s_.lengths[ia];
  MH_OBS_HIST("protocol.tree.walk_steps", s_.lengths[from_a] - meet + (s_.lengths[from_b] - meet));
  return s_.arrival[ia];
}

std::optional<BlockHash> BlockTree::block_at_slot(BlockHash head, std::uint64_t slot) const {
  const std::uint32_t from = index_of(head);
  // Slots strictly increase along a chain, so the first block at or below
  // `slot` on the way up is the deepest one; genesis (slot 0) ends the walk.
  std::uint32_t idx = from;
  while (s_.slots[idx] > slot) idx = s_.parents[idx];
  MH_OBS_HIST("protocol.tree.walk_steps", s_.lengths[from] - s_.lengths[idx]);
  if (idx == 0) return std::nullopt;
  return s_.arrival[idx];
}

void OrphanBuffer::buffer(const Block& block) {
  for (const Block& o : orphans_)
    if (o.hash == block.hash) return;
  orphans_.push_back(block);
}

void OrphanBuffer::flush(BlockTree& tree, std::vector<Block>* accepted) {
  retry_orphans(orphans_, [&](const Block& b) {
    const BlockTree::AddResult r = tree.try_add(b);
    if (r == BlockTree::AddResult::Added && accepted) accepted->push_back(b);
    return r;
  });
}

void OrphanBuffer::flush(TreeView& view, std::vector<std::uint32_t>* accepted) {
  retry_orphans(orphans_, [&](const Block& b) {
    std::uint32_t entry = TreeView::kNone;
    const BlockTree::AddResult r = view.try_add(b, view.lookup(b), &entry);
    if (r == BlockTree::AddResult::Added && accepted) accepted->push_back(entry);
    return r;
  });
}

TreeView::TreeView(BlockTree* store)
    : store_(store), column_(store != nullptr ? store->add_column() : 0) {
  MH_REQUIRE(store != nullptr);
}

TreeView::Lookup TreeView::lookup(const Block& block) const {
  const std::uint32_t entry = store_->find(block.hash);
  const bool stored = entry != kNone && store_->s_.blocks[entry] == block;
  return Lookup{entry, stored, stored || verify_block_integrity(block)};
}

BlockTree::AddResult TreeView::try_add(const Block& block, const Lookup& found,
                                       std::uint32_t* added) {
  using AddResult = BlockTree::AddResult;
  if (found.stored) {
    const AddResult r = admit(resolve(*store_, found.entry));
    if (r == AddResult::Added && added) *added = found.entry;
    return r;
  }
  if (found.entry != kNone && holds(found.entry)) return AddResult::Duplicate;
  if (!found.intact) return AddResult::Invalid;
  const std::uint32_t parent = store_->find(block.parent);
  if (parent == kNone || !holds(parent)) return AddResult::Orphan;
  if (block.slot <= store_->s_.slots[parent]) return AddResult::Invalid;
  // First admission of a block the store never recorded: intern it. A stored
  // entry under the same hash with other content would be a hash collision.
  MH_REQUIRE_MSG(found.entry == kNone, "block hash collision in the store");
  const std::uint32_t entry = store_->append(block, parent);
  admit(resolve(*store_, entry));  // Added: the parent is held
  if (added) *added = entry;
  return AddResult::Added;
}

bool TreeView::contains(BlockHash hash) const {
  const std::uint32_t entry = store_->find(hash);
  return entry != kNone && holds(entry);
}

std::vector<BlockHash> TreeView::members() const {
  const BlockTree::Storage& s = store_->s_;
  std::vector<BlockHash> out;
  out.reserve(count_);
  for (std::size_t word = column_, row = 0; word < s.member.size(); word += s.columns, ++row)
    for (std::uint64_t bits = s.member[word]; bits != 0; bits &= bits - 1)
      out.push_back(s.arrival[row * 64 + std::countr_zero(bits)]);
  return out;
}

}  // namespace mh
