#include "phtree/sharded.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cassert>
#include <mutex>
#include <new>
#include <numeric>

#include "common/bits.h"
#include "common/fault.h"
#include "common/simd.h"
#include "phtree/builder.h"
#include "phtree/cursor.h"
#include "phtree/validate.h"

namespace phtree {
namespace {

// SplitMix64 finaliser: full-avalanche 64-bit mix (same constants as
// common/rng.h's seeding stage).
uint64_t Mix64(uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return x;
}

}  // namespace

PhTreeSharded::PhTreeSharded(uint32_t dim, uint32_t num_shards,
                             ShardRouting routing, const PhTreeConfig& config,
                             ThreadPool* pool)
    : dim_(dim),
      routing_(routing),
      config_(config),
      pool_(pool != nullptr || num_shards <= 1 ? pool : &ThreadPool::Shared()) {
  assert(dim >= 1);
  assert(num_shards >= 1 && (num_shards & (num_shards - 1)) == 0 &&
         "num_shards must be a power of two");
  if (num_shards == 0) {
    num_shards = 1;
  }
  shard_bits_ = static_cast<uint32_t>(std::countr_zero(num_shards));
  // More shard bits than interleaved key bits would alias shards to empty
  // regions; 64*dim bits is the whole key, far beyond any sane S anyway.
  assert(shard_bits_ <= 64 * dim_);
  shards_.reserve(num_shards);
  for (uint32_t s = 0; s < num_shards; ++s) {
    shards_.push_back(std::make_unique<Shard>(dim, config, &epochs_));
  }
}

void PhTreeSharded::ParallelFor(
    size_t n, const std::function<void(size_t)>& fn) const {
  if (n <= 1) {
    if (n == 1) {
      fn(0);
    }
    return;
  }
  pool_->ParallelFor(n, fn);
}

uint32_t PhTreeSharded::ShardOf(std::span<const uint64_t> key) const {
  assert(key.size() == dim_);
  if (shard_bits_ == 0) {
    return 0;  // single shard: skip the hash/prefix work entirely
  }
  if (routing_ == ShardRouting::kHash) {
    uint64_t h = 0x9e3779b97f4a7c15ULL;  // golden-ratio seed
    for (const uint64_t word : key) {
      h = Mix64(h ^ word);
    }
    return static_cast<uint32_t>(h & (num_shards() - 1));
  }
  // Top shard_bits_ bits of the z-interleaved address: bit 63 of dim 0,
  // bit 63 of dim 1, ..., then bit 62 of dim 0, ...
  uint64_t s = 0;
  uint32_t d = 0;
  uint32_t bit = 63;
  for (uint32_t j = 0; j < shard_bits_; ++j) {
    s = (s << 1) | ((key[d] >> bit) & 1);
    if (++d == dim_) {
      d = 0;
      --bit;
    }
  }
  return static_cast<uint32_t>(s);
}

void PhTreeSharded::ShardRegion(uint32_t s, PhKey* lo, PhKey* hi) const {
  lo->resize(dim_);
  hi->resize(dim_);
  RegionInto(s, lo->data(), hi->data());
}

void PhTreeSharded::RegionInto(uint32_t s, uint64_t* lo, uint64_t* hi) const {
  assert(s < num_shards());
  for (uint32_t d = 0; d < dim_; ++d) {
    lo[d] = 0;
    hi[d] = ~uint64_t{0};
  }
  if (routing_ == ShardRouting::kHash) {
    return;  // hash shards are not spatial: every region is the full space
  }
  uint32_t d = 0;
  uint32_t bit = 63;
  for (uint32_t j = 0; j < shard_bits_; ++j) {
    const uint64_t fixed = (s >> (shard_bits_ - 1 - j)) & 1;
    if (fixed) {
      lo[d] |= uint64_t{1} << bit;
    } else {
      hi[d] &= ~(uint64_t{1} << bit);
    }
    if (++d == dim_) {
      d = 0;
      --bit;
    }
  }
}

bool PhTreeSharded::ShardIntersects(uint32_t s, std::span<const uint64_t> min,
                                    std::span<const uint64_t> max) const {
  if (routing_ == ShardRouting::kHash) {
    return true;  // any key may hash anywhere: no spatial pruning
  }
  uint64_t lo[kMaxDims];
  uint64_t hi[kMaxDims];
  RegionInto(s, lo, hi);
  for (uint32_t d = 0; d < dim_; ++d) {
    if (lo[d] > max[d] || hi[d] < min[d]) {
      return false;
    }
  }
  return true;
}

size_t PhTreeSharded::size() const {
  EpochManager::ReadGuard guard(epochs_);
  size_t total = 0;
  for (const auto& shard : shards_) {
    total += shard->reader()->size();
  }
  return total;
}

bool PhTreeSharded::Insert(std::span<const uint64_t> key, uint64_t value) {
  Shard& shard = *shards_[ShardOf(key)];
  std::lock_guard lock(shard.mutex);
  return shard.writer()->Insert(key, value);
}

bool PhTreeSharded::InsertOrAssign(std::span<const uint64_t> key,
                                   uint64_t value) {
  Shard& shard = *shards_[ShardOf(key)];
  std::lock_guard lock(shard.mutex);
  return shard.writer()->InsertOrAssign(key, value);
}

bool PhTreeSharded::Erase(std::span<const uint64_t> key) {
  Shard& shard = *shards_[ShardOf(key)];
  std::lock_guard lock(shard.mutex);
  return shard.writer()->Erase(key);
}

UpdateOutcome PhTreeSharded::Update(std::span<const uint64_t> old_key,
                                    std::span<const uint64_t> new_key,
                                    std::optional<uint64_t> value) {
  const UpdateOutcome out = TryUpdate(old_key, new_key, value);
  if (out == UpdateOutcome::kNoMem) {
    throw std::bad_alloc();
  }
  return out;
}

UpdateOutcome PhTreeSharded::TryUpdate(std::span<const uint64_t> old_key,
                                       std::span<const uint64_t> new_key,
                                       std::optional<uint64_t> value) {
  const uint32_t so = ShardOf(old_key);
  const uint32_t sn = ShardOf(new_key);
  if (so == sn) {
    // Same shard: one critical section, and the tree's single-descent
    // relocation fast path applies.
    Shard& shard = *shards_[so];
    std::lock_guard lock(shard.mutex);
    return shard.writer()->TryUpdate(old_key, new_key, value);
  }
  // Cross-shard move: take both writer locks in ascending shard index (the
  // deadlock-free total order), then insert-then-erase across the trees.
  // Holding both writer mutexes also makes the plain Find/Contains reads
  // below safe without an epoch guard: only a shard's writer reclaims its
  // arena, and both writers are us.
  std::unique_lock first(shards_[std::min(so, sn)]->mutex);
  std::unique_lock second(shards_[std::max(so, sn)]->mutex);
  PhTree& src = *shards_[so]->writer();
  PhTree& dst = *shards_[sn]->writer();
  const std::optional<uint64_t> old_value = src.Find(old_key);
  if (!old_value.has_value()) {
    return UpdateOutcome::kOldMissing;
  }
  if (dst.Contains(new_key)) {
    return UpdateOutcome::kNewOccupied;
  }
  const uint64_t v = value.has_value() ? *value : *old_value;
  if (dst.TryInsert(new_key, v) == OpStatus::kNoMem) {
    return UpdateOutcome::kNoMem;
  }
  if (src.TryErase(old_key) == OpStatus::kApplied) {
    return UpdateOutcome::kMoved;
  }
  // The source-side erase needed an allocation (node merge) and failed:
  // undo the destination insert with faults suspended, so the rollback
  // cannot itself be failed by the test harness.
  FaultInjectorSuspend suspend;
  const OpStatus undo = dst.TryErase(new_key);
  (void)undo;
  assert(undo == OpStatus::kApplied);
  return UpdateOutcome::kNoMem;
}

std::optional<uint64_t> PhTreeSharded::Find(
    std::span<const uint64_t> key) const {
  EpochManager::ReadGuard guard(epochs_);
  return shards_[ShardOf(key)]->reader()->Find(key);
}

std::vector<std::optional<uint64_t>> PhTreeSharded::FindBatch(
    std::span<const PhKey> keys) const {
  std::vector<std::optional<uint64_t>> results(keys.size());
  // One sort by (shard, z-sample) turns the batch into one run per shard,
  // each in PhTree::FindBatch's visit order; every run is one resumed
  // descent over its index span, answering into `results` in place.
  std::vector<PhTree::BatchSlot> order(keys.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    order[i] = {ShardOf(keys[i]), static_cast<uint32_t>(i),
                simd::ZSamplePrefix(keys[i].data(), dim_)};
  }
  std::sort(order.begin(), order.end());
  EpochManager::ReadGuard guard(epochs_);
  for (auto run = order.cbegin(); run != order.cend();) {
    const uint32_t s = run->shard;
    const auto end = std::find_if(run, order.cend(), [s](const auto& slot) {
      return slot.shard != s;
    });
    shards_[s]->reader()->FindRun(keys, {run, end}, results.data());
    run = end;
  }
  return results;
}

void PhTreeSharded::Clear() {
  for (auto& shard : shards_) {
    std::lock_guard lock(shard->mutex);
    // MVCC Clear retires the whole tree behind one atomic root store, so
    // concurrent lock-free readers keep walking their snapshot.
    shard->writer()->Clear();
  }
}

size_t PhTreeSharded::BulkLoad(std::span<const PhEntry> entries) {
  const uint32_t S = num_shards();
  // One partition pass: each shard's entries as flat rows, in input order.
  std::vector<std::vector<uint64_t>> keys(S);
  std::vector<std::vector<uint64_t>> values(S);
  for (uint32_t s = 0; s < S; ++s) {
    keys[s].reserve((entries.size() / S + 1) * dim_);
    values[s].reserve(entries.size() / S + 1);
  }
  for (const PhEntry& e : entries) {
    assert(e.key.size() == dim_);
    const uint32_t s = ShardOf(e.key);
    keys[s].insert(keys[s].end(), e.key.begin(), e.key.end());
    values[s].push_back(e.value);
  }
  std::vector<size_t> inserted(S, 0);
  // An allocation failure reaches the caller once every shard has finished
  // (ParallelFor relays it).
  ParallelFor(S, [&](size_t s) {
    if (values[s].empty()) {
      return;
    }
    Shard& shard = *shards_[s];
    std::lock_guard lock(shard.mutex);
    PhTree* tree = shard.writer();
    if (tree->empty()) {
      inserted[s] = BuildFromRows(tree, keys[s], values[s],
                                  ZOrderPermutation(keys[s], dim_));
      return;
    }
    for (size_t i = 0; i < values[s].size(); ++i) {
      const std::span<const uint64_t> key(keys[s].data() + i * dim_, dim_);
      inserted[s] += tree->Insert(key, values[s][i]) ? 1 : 0;
    }
  });
  return std::accumulate(inserted.begin(), inserted.end(), size_t{0});
}

std::vector<std::pair<PhKey, uint64_t>> PhTreeSharded::QueryWindow(
    std::span<const uint64_t> min, std::span<const uint64_t> max) const {
  assert(min.size() == dim_ && max.size() == dim_);
  std::vector<uint32_t> hit;
  for (uint32_t s = 0; s < num_shards(); ++s) {
    if (ShardIntersects(s, min, max)) {
      hit.push_back(s);
    }
  }
  std::vector<std::pair<PhKey, uint64_t>> out;
  if (hit.empty()) {
    return out;
  }
  if (hit.size() == 1) {
    EpochManager::ReadGuard guard(epochs_);
    return shards_[hit[0]]->reader()->QueryWindow(min, max);
  }
  std::vector<std::vector<std::pair<PhKey, uint64_t>>> per(hit.size());
  ParallelFor(hit.size(), [&](size_t i) {
    // Pool threads announce themselves: epoch slots are per reader, not
    // per API call.
    EpochManager::ReadGuard guard(epochs_);
    per[i] = shards_[hit[i]]->reader()->QueryWindow(min, max);
  });
  size_t total = 0;
  for (const auto& v : per) {
    total += v.size();
  }
  out.reserve(total);
  // With z-prefix routing, `hit` is ascending in z-order, so appending in
  // order already yields the global z-order; hash shards interleave, so
  // their concatenation needs an explicit z-sort to restore it.
  for (auto& v : per) {
    std::move(v.begin(), v.end(), std::back_inserter(out));
  }
  if (routing_ == ShardRouting::kHash) {
    std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
      return ZOrderLess(a.first, b.first);
    });
  }
  return out;
}

void PhTreeSharded::QueryWindow(
    std::span<const uint64_t> min, std::span<const uint64_t> max,
    const std::function<void(const PhKey&, uint64_t)>& visitor) const {
  assert(min.size() == dim_ && max.size() == dim_);
  EpochManager::ReadGuard guard(epochs_);
  for (uint32_t s = 0; s < num_shards(); ++s) {
    if (!ShardIntersects(s, min, max)) {
      continue;
    }
    shards_[s]->reader()->QueryWindow(min, max, visitor);
  }
}

size_t PhTreeSharded::CountWindow(std::span<const uint64_t> min,
                                  std::span<const uint64_t> max) const {
  assert(min.size() == dim_ && max.size() == dim_);
  std::vector<uint32_t> hit;
  for (uint32_t s = 0; s < num_shards(); ++s) {
    if (ShardIntersects(s, min, max)) {
      hit.push_back(s);
    }
  }
  if (hit.empty()) {
    return 0;
  }
  std::vector<size_t> counts(hit.size(), 0);
  ParallelFor(hit.size(), [&](size_t i) {
    EpochManager::ReadGuard guard(epochs_);
    counts[i] = shards_[hit[i]]->reader()->CountWindow(min, max);
  });
  return std::accumulate(counts.begin(), counts.end(), size_t{0});
}

WindowPage PhTreeSharded::QueryWindowPage(
    std::span<const uint64_t> min, std::span<const uint64_t> max,
    size_t page_size, std::span<const uint64_t> resume_after) const {
  assert(min.size() == dim_ && max.size() == dim_);
  WindowPage page;
  if (routing_ == ShardRouting::kZPrefix) {
    // Ascending shard index is ascending z-order, so the page fills shard
    // by shard: each intersecting shard is asked for the entries still
    // missing (one beyond the page, so `more` stays exact) until the page
    // overfills or the shards run out. Shards whose region precedes the
    // token return nothing at O(depth) seek cost.
    for (uint32_t s = 0;
         s < num_shards() && page.entries.size() <= page_size; ++s) {
      if (!ShardIntersects(s, min, max)) {
        continue;
      }
      const size_t want = page_size + 1 - page.entries.size();
      EpochManager::ReadGuard guard(epochs_);
      WindowPage sub = shards_[s]->reader()->QueryWindowPage(min, max, want,
                                                             resume_after);
      std::move(sub.entries.begin(), sub.entries.end(),
                std::back_inserter(page.entries));
    }
  } else {
    // Hash routing: the global first page after the token is contained in
    // the union of every shard's first page_size + 1 entries after it —
    // fetch those in parallel, z-merge, truncate below.
    std::vector<WindowPage> per(num_shards());
    ParallelFor(num_shards(), [&](size_t s) {
      EpochManager::ReadGuard guard(epochs_);
      per[s] = shards_[s]->reader()->QueryWindowPage(min, max, page_size + 1,
                                                     resume_after);
    });
    for (auto& sub : per) {
      std::move(sub.entries.begin(), sub.entries.end(),
                std::back_inserter(page.entries));
    }
    std::sort(page.entries.begin(), page.entries.end(),
              [](const auto& a, const auto& b) {
                return ZOrderLess(a.first, b.first);
              });
  }
  page.more = page.entries.size() > page_size;
  if (page.more) {
    page.entries.resize(page_size);
    page.token = page.entries.empty()
                     ? PhKey(resume_after.begin(), resume_after.end())
                     : page.entries.back().first;
  }
  return page;
}

std::vector<KnnResult> PhTreeSharded::KnnSearch(
    std::span<const uint64_t> center, size_t n, KnnMetric metric) const {
  assert(center.size() == dim_);
  // One best-first search over every shard's root, each seeded at its
  // region's distance: a shard is expanded only once its bound reaches the
  // front of the queue, so shards that cannot hold one of the n nearest
  // are never opened, and the results come out in the single-tree order.
  EpochManager::ReadGuard guard(epochs_);
  std::vector<KnnRoot> roots;
  roots.reserve(num_shards());
  uint64_t lo[kMaxDims];
  uint64_t hi[kMaxDims];
  for (uint32_t s = 0; s < num_shards(); ++s) {
    RegionInto(s, lo, hi);
    roots.push_back({shards_[s]->reader(),
                     KnnBoxDist2(center, {lo, dim_}, {hi, dim_}, metric)});
  }
  return phtree::KnnSearch(roots, center, n, metric);
}

void PhTreeSharded::ForEach(
    const std::function<void(const PhKey&, uint64_t)>& fn) const {
  EpochManager::ReadGuard guard(epochs_);
  for (const auto& shard : shards_) {
    shard->reader()->ForEach(fn);
  }
}

PhTreeStats PhTreeSharded::ComputeStats() const {
  PhTreeStats total;
  total.epoch = epochs_.epoch();
  for (const auto& shard : shards_) {
    // Writer mutex: the stats walk reads arena accounting (freelists,
    // retired queue) that only the writer side may touch.
    std::lock_guard lock(shard->mutex);
    const PhTreeStats s = shard->reader()->ComputeStats();
    total.n_entries += s.n_entries;
    total.n_nodes += s.n_nodes;
    total.n_lhc_nodes += s.n_lhc_nodes;
    total.n_bhc_nodes += s.n_bhc_nodes;
    total.lhc_node_bytes += s.lhc_node_bytes;
    total.bhc_node_bytes += s.bhc_node_bytes;
    total.memory_bytes += s.memory_bytes;
    total.arena_slab_bytes += s.arena_slab_bytes;
    total.arena_live_bytes += s.arena_live_bytes;
    total.arena_freelist_bytes += s.arena_freelist_bytes;
    total.arena_retired_bytes += s.arena_retired_bytes;
    total.arena_retired_nodes += s.arena_retired_nodes;
    total.arena_reclaimed_nodes += s.arena_reclaimed_nodes;
    total.max_depth = std::max(total.max_depth, s.max_depth);
    total.sum_node_depth += s.sum_node_depth;
    total.infix_bits += s.infix_bits;
    total.n_postfix_entries += s.n_postfix_entries;
  }
  return total;
}

Status PhTreeSharded::Save(const std::string& path,
                           const SaveOptions& options) const {
  const uint32_t S = num_shards();
  std::vector<uint8_t> bytes;
  {
    // All writer mutexes taken together (in index order, like every
    // cross-shard path here) => the snapshot is the one cross-shard
    // consistent view. Lock-free readers are unaffected throughout.
    std::vector<std::unique_lock<std::mutex>> locks;
    locks.reserve(S);
    for (const auto& shard : shards_) {
      locks.emplace_back(shard->mutex);
    }
    uint64_t n = 0;
    for (const auto& shard : shards_) {
      n += shard->reader()->size();
    }
    // The shards' scans stream to the writer in global z-order, so the
    // bytes equal those of one tree holding the same entries.
    SnapshotWriter writer(dim_, config_.store_values, n, options);
    if (routing_ == ShardRouting::kZPrefix || S == 1) {
      // Ascending shard index is ascending z-order: concatenate.
      for (const auto& shard : shards_) {
        for (TreeCursor c(*shard->reader()); c.Valid(); c.Next()) {
          writer.Add(c.key(), c.value());
        }
      }
    } else {
      // Hash shards interleave: an S-way z-order merge of their scans.
      std::vector<TreeCursor> scans;
      scans.reserve(S);
      for (const auto& shard : shards_) {
        scans.emplace_back(*shard->reader());
      }
      for (;;) {
        TreeCursor* next = nullptr;
        for (TreeCursor& c : scans) {
          if (c.Valid() &&
              (next == nullptr || ZOrderCompare(c.key(), next->key()) < 0)) {
            next = &c;
          }
        }
        if (next == nullptr) {
          break;
        }
        writer.Add(next->key(), next->value());
        next->Next();
      }
    }
    bytes = std::move(writer).Finish();
  }
  // The bytes are the snapshot; do the disk I/O unlocked.
  return WriteSnapshotFileOr(bytes, path);
}

Status PhTreeSharded::Load(const std::string& path,
                           const LoadOptions& options) {
  const uint32_t S = num_shards();
  // Each shard's rows, in stream (= z-)order: the decode routes every
  // verified entry by ShardOf, whatever the routing.
  std::vector<std::vector<uint64_t>> keys(S);
  std::vector<std::vector<uint64_t>> values(S);
  PhTreeConfig cfg;
  {
    auto bytes = ReadSnapshotFileOr(path);
    if (!bytes) {
      return bytes.error();
    }
    auto reader = SnapshotReader::Open(*bytes);
    if (!reader) {
      return reader.error();
    }
    if (reader->dim() != dim_) {
      return Status::Error(
          StatusCode::kInvalidArgument,
          "snapshot dimensionality " + std::to_string(reader->dim()) +
              " does not match sharded tree dimensionality " +
              std::to_string(dim_));
    }
    cfg = reader->config();
    const size_t per_shard = reader->max_entries() / S;
    for (uint32_t s = 0; s < S; ++s) {
      keys[s].reserve(per_shard * dim_);
      values[s].reserve(per_shard);
    }
    const Status decoded = reader->ReadEntries(
        [&](std::span<const uint64_t> key, uint64_t value) {
          const uint32_t s = ShardOf(key);
          keys[s].insert(keys[s].end(), key.begin(), key.end());
          values[s].push_back(value);
        });
    if (!decoded.ok()) {
      return decoded;
    }
  }
  // Replacement shards are built in parallel while readers keep using the
  // old ones; the swap below is the only all-shard exclusive section.
  std::vector<PhTree> trees;
  trees.reserve(S);
  for (uint32_t s = 0; s < S; ++s) {
    trees.emplace_back(dim_, cfg);
  }
  // An allocation failure reaches the caller once every shard has finished
  // (ParallelFor relays it), leaving the shards untouched.
  ParallelFor(S, [&](size_t s) {
    ZOrderBuilder builder(&trees[s]);
    const std::span<const uint64_t> rows(keys[s]);
    for (size_t i = 0; i < values[s].size(); ++i) {
      builder.Add(rows.subspan(i * dim_, dim_), values[s][i]);
    }
    builder.Finish();
  });
  if (options.validate_structure) {
    for (uint32_t s = 0; s < S; ++s) {
      const std::string violation = ValidatePhTree(trees[s]);
      if (!violation.empty()) {
        return Status(StatusCode::kStructureInvalid, Status::kNoOffset,
                      "rebuilt shard " + std::to_string(s) +
                          " fails validation: " + violation);
      }
    }
  }
  std::vector<PhTree*> old(S, nullptr);
  {
    std::vector<std::unique_lock<std::mutex>> locks;
    locks.reserve(S);
    for (const auto& shard : shards_) {
      locks.emplace_back(shard->mutex);
    }
    config_ = cfg;
    for (uint32_t s = 0; s < S; ++s) {
      PhTree* fresh = new PhTree(std::move(trees[s]));
      fresh->EnableMvcc(&epochs_);
      old[s] = shards_[s]->tree.exchange(fresh, std::memory_order_acq_rel);
    }
  }
  // The displaced trees' destructors reset their whole arenas at once —
  // legal only once no lock-free reader can still hold a node of them.
  epochs_.SynchronizeFullGrace();
  for (PhTree* tree : old) {
    delete tree;
  }
  return Status::Ok();
}

}  // namespace phtree
