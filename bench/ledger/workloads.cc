// The four phbench workloads. README.md says why each was chosen; the
// comments here say how each is driven and checked.
//
// Every workload is a set of closed-loop clients (an embedded library's
// callers wait on each call). Inputs come from the run's seed only. Each
// read op's answer is reduced to a 64-bit digest per slot of a
// pre-generated op stream; a repeat of a slot must reproduce its first
// digest, and after the timed phase every slot's first digest is checked
// against a reference computed without the PH-tree (oracle.h).
#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <deque>
#include <exception>
#include <functional>
#include <optional>
#include <stdexcept>
#include <stop_token>
#include <string>
#include <thread>

#include "benchlib/workloads.h"
#include "common/bits.h"
#include "common/thread_pool.h"
#include "datasets/datasets.h"
#include "mem_vfs.h"
#include "oracle.h"
#include "phbench.h"
#include "phtree/cursor.h"
#include "phtree/knn.h"
#include "phtree/phtree_d.h"
#include "phtree/serialize.h"
#include "phtree/sharded.h"
#include "phtree/wal.h"

namespace phbench {
namespace {

using phtree::KnnMetric;
using phtree::OpStatus;
using phtree::PhKey;
using phtree::PhTree;
using phtree::UpdateOutcome;

constexpr size_t kProbeSamples = 2000;
constexpr size_t kProbeLookups = 20000;
constexpr size_t kLadderKeys = 100000;
constexpr size_t kLadderMoves = 200000;

size_t Scaled(size_t base, double scale, size_t floor) {
  return std::max(floor, static_cast<size_t>(static_cast<double>(base) * scale));
}

void AppendEncoded(std::span<const double> p, std::vector<uint64_t>* out) {
  for (const double v : p) {
    out->push_back(phtree::SortableDoubleBits(v));
  }
}

std::vector<uint64_t> EncodeDataset(const phtree::Dataset& ds) {
  std::vector<uint64_t> keys;
  keys.reserve(ds.coords.size());
  AppendEncoded(ds.coords, &keys);
  return keys;
}

std::vector<uint64_t> Iota(size_t n) {
  std::vector<uint64_t> v(n);
  for (size_t i = 0; i < n; ++i) {
    v[i] = i;
  }
  return v;
}

uint64_t FindDigest(const std::optional<uint64_t>& r) {
  return r ? *r + 1 : 0;
}

uint64_t WindowDigestOf(const WindowDigest& w) {
  return Mix(w.count, w.value_sum);
}

uint64_t KnnDigestOf(const std::vector<phtree::KnnResult>& r) {
  uint64_t h = r.size();
  for (const phtree::KnnResult& n : r) {
    for (const uint64_t k : n.key) {
      h = Mix(h, k);
    }
    h = Mix(h, std::bit_cast<uint64_t>(n.dist2));
    h = Mix(h, n.value);
  }
  return h;
}

uint64_t KnnDigestOf(const std::vector<Neighbor>& r,
                     const PointOracle& oracle,
                     std::span<const uint64_t> values) {
  uint64_t h = r.size();
  for (const Neighbor& n : r) {
    for (const uint64_t k : oracle.key(n.index)) {
      h = Mix(h, k);
    }
    h = Mix(h, std::bit_cast<uint64_t>(n.dist2));
    h = Mix(h, values[n.index]);
  }
  return h;
}

/// First answer per stream slot; a later answer for the slot must match.
class DigestLog {
 public:
  explicit DigestLog(size_t slots) : digest_(slots), seen_(slots, 0) {}
  void Record(size_t slot, uint64_t digest) {
    if (!seen_[slot]) {
      seen_[slot] = 1;
      digest_[slot] = digest;
    } else if (digest_[slot] != digest) {
      ++inconsistent_;
    }
  }
  size_t size() const { return seen_.size(); }
  bool seen(size_t slot) const { return seen_[slot] != 0; }
  uint64_t digest(size_t slot) const { return digest_[slot]; }
  uint64_t inconsistent() const { return inconsistent_; }

 private:
  std::vector<uint64_t> digest_;
  std::vector<uint8_t> seen_;
  uint64_t inconsistent_ = 0;
};

struct Slot {
  OpKind kind;
  uint32_t param;
};

/// Random index sample (with replacement) of `count` rows of `flat`.
std::vector<uint64_t> SampleRows(const std::vector<uint64_t>& flat,
                                 uint32_t dim, size_t count, uint64_t seed) {
  phtree::Rng rng(seed);
  const size_t n = flat.size() / dim;
  std::vector<uint64_t> out;
  for (size_t i = 0; i < count && n > 0; ++i) {
    const auto r = Row(flat, rng.NextBounded(n), dim);
    out.insert(out.end(), r.begin(), r.end());
  }
  return out;
}

/// The first `count` rows of `flat`.
std::vector<uint64_t> Head(const std::vector<uint64_t>& flat, uint32_t dim,
                           size_t count) {
  const size_t n = std::min(flat.size(), count * dim);
  return {flat.begin(), flat.begin() + static_cast<ptrdiff_t>(n)};
}

/// Builds the layer ladder's op stream from `keys` (n x dim, distinct):
/// up to `max_keys` of them, and `n_moves` relocations of random keys by
/// `perturb(key, rng)`, which must keep keys distinct.
template <typename Perturb>
void MakeLadderStream(uint32_t dim, const std::vector<uint64_t>& keys,
                      size_t max_keys, size_t n_moves, uint64_t seed,
                      Perturb&& perturb, ProbeInput* in) {
  const size_t n = std::min(keys.size() / dim, max_keys);
  phtree::Rng rng(seed);
  // A uniform sample without replacement (partial Fisher-Yates over
  // indices), so the ladder sees the workload's spatial distribution.
  std::vector<uint32_t> pick(keys.size() / dim);
  for (uint32_t i = 0; i < pick.size(); ++i) {
    pick[i] = i;
  }
  for (size_t i = 0; i < n; ++i) {
    const size_t j = i + rng.NextBounded(pick.size() - i);
    std::swap(pick[i], pick[j]);
    const uint64_t* k = keys.data() + size_t{pick[i]} * dim;
    in->ladder_keys.insert(in->ladder_keys.end(), k, k + dim);
  }
  std::vector<uint64_t> cur = in->ladder_keys;
  for (size_t m = 0; m < n_moves && n > 0; ++m) {
    const uint32_t obj = static_cast<uint32_t>(rng.NextBounded(n));
    uint64_t* k = cur.data() + size_t{obj} * dim;
    perturb(std::span<uint64_t>(k, dim), rng);
    in->move_object.push_back(obj);
    in->move_to.insert(in->move_to.end(), k, k + dim);
  }
}

/// Moves each coordinate of an encoded double key by up to +-`step`.
auto DoubleJitter(double step) {
  return [step](std::span<uint64_t> key, phtree::Rng& rng) {
    for (uint64_t& k : key) {
      const double v = phtree::SortableBitsToDouble(k);
      k = phtree::SortableDoubleBits(v + rng.NextDouble(-step, step));
    }
  };
}

void ClosedLoopPhase(double seconds, ClientStats* c,
                     const std::function<void()>& one_op) {
  const Clock::time_point deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(seconds));
  do {
    one_op();
  } while (c->last_end() < deadline);
}

// ---- tiger_serve -----------------------------------------------------------

/// A read-only point/window/kNN service over a 2D TIGER-like map, 2.5x
/// larger than a 105 MiB L3: descent and node reads are memory-bound.
/// One client. Op mix: 88.5% Find (half hits), 0.5% FindBatch of 64 keys,
/// 5.5% windows of +-0.01 degrees around a stored point, 5.5% kNN(10).
/// A 64-key batch takes several times longer than any single query, so
/// its share stays well under 1%: at 1% the p99 would sit on the edge
/// between batches and the window/kNN tail and jump between the two.
class TigerServe final : public Workload {
 public:
  explicit TigerServe(const RunOptions& o)
      : o_(o),
        n_(Scaled(4000000, o.scale, 2000)),
        digests_(std::clamp<size_t>(n_ / 4, 4096, size_t{1} << 20)) {}

  int clients() const override { return 1; }

  void Generate() override {
    const phtree::Dataset ds = phtree::GenerateTigerLike(n_, SubSeed(o_.seed, 1));
    keys_ = EncodeDataset(ds);
    values_ = Iota(n_);
    phtree::Rng rng(SubSeed(o_.seed, 2));
    size_t n_find = 0;
    size_t n_batch = 0;
    slots_.resize(digests_.size());
    for (Slot& s : slots_) {
      const double r = rng.NextDouble();
      if (r < 0.885) {
        s = {OpKind::kFind, static_cast<uint32_t>(n_find++)};
      } else if (r < 0.89) {
        s = {OpKind::kFindBatch,
             static_cast<uint32_t>(n_batch++ % kDistinctBatches)};
      } else if (r < 0.945) {
        const auto c = ds.point(rng.NextBounded(n_));
        const double lo[2] = {c[0] - 0.01, c[1] - 0.01};
        const double hi[2] = {c[0] + 0.01, c[1] + 0.01};
        s = {OpKind::kWindow, static_cast<uint32_t>(win_lo_.size() / 2)};
        AppendEncoded(lo, &win_lo_);
        AppendEncoded(hi, &win_hi_);
      } else {
        const auto c = ds.point(rng.NextBounded(n_));
        const double center[2] = {c[0] + rng.NextDouble(-0.005, 0.005),
                                  c[1] + rng.NextDouble(-0.005, 0.005)};
        s = {OpKind::kKnn, static_cast<uint32_t>(knn_.size() / 2)};
        AppendEncoded(center, &knn_);
      }
    }
    for (const auto& q :
         phtree::bench::MakePointQueries(ds, n_find, SubSeed(o_.seed, 3))) {
      AppendEncoded(q, &finds_);
    }
    const auto batch_keys = phtree::bench::MakePointQueries(
        ds, std::min(n_batch, kDistinctBatches) * kBatch, SubSeed(o_.seed, 4));
    for (size_t i = 0; i < batch_keys.size(); ++i) {
      if (i % kBatch == 0) {
        batches_.emplace_back();
      }
      batches_.back().push_back(phtree::EncodeKeyD(batch_keys[i]));
    }
  }

  void Setup() override {
    tree_.reset();
    tree_ = std::make_unique<PhTree>(2);
    for (size_t i = 0; i < n_; ++i) {
      tree_->Insert(Row(keys_, i, 2), values_[i]);
    }
  }

  void Run(double seconds, PhaseStats* ps) override {
    ClientStats& c = ps->clients[0];
    ClosedLoopPhase(seconds, &c, [&] {
      const size_t slot = next_op_ % slots_.size();
      const uint64_t id = next_op_++;
      const Slot s = slots_[slot];
      uint64_t digest = 0;
      switch (s.kind) {
        case OpKind::kFind:
          digest = FindDigest(c.Timed(OpKind::kFind, id, [&] {
            return tree_->Find(Row(finds_, s.param, 2));
          }));
          break;
        case OpKind::kFindBatch:
          for (const auto& r : c.Timed(OpKind::kFindBatch, id, [&] {
                 return tree_->FindBatch(batches_[s.param]);
               })) {
            digest = Mix(digest, FindDigest(r));
          }
          break;
        case OpKind::kWindow: {
          const WindowDigest w = c.Timed(OpKind::kWindow, id, [&] {
            return VisitWindow(*tree_, Row(win_lo_, s.param, 2),
                                     Row(win_hi_, s.param, 2));
          });
          c.AddWindowResults(w.count);
          digest = WindowDigestOf(w);
          break;
        }
        default:
          digest = KnnDigestOf(c.Timed(OpKind::kKnn, id, [&] {
            return phtree::KnnSearch(*tree_, Row(knn_, s.param, 2), kKnnK,
                                     KnnMetric::kL2Double);
          }));
          break;
      }
      digests_.Record(slot, digest);
    });
  }

  void Verify(Checker* check) override {
    check->Expect(digests_.inconsistent() == 0,
                  "tiger_serve: a repeated op returned a different answer");
    check->Expect(tree_->size() == n_, "tiger_serve: tree size changed");
    const PointOracle oracle(2, keys_, values_);
    for (size_t slot = 0; slot < slots_.size(); ++slot) {
      if (!digests_.seen(slot)) {
        continue;
      }
      const Slot s = slots_[slot];
      uint64_t want = 0;
      switch (s.kind) {
        case OpKind::kFind:
          want = FindDigest(oracle.Find(Row(finds_, s.param, 2)));
          break;
        case OpKind::kFindBatch:
          for (const PhKey& k : batches_[s.param]) {
            want = Mix(want, FindDigest(oracle.Find(k)));
          }
          break;
        case OpKind::kWindow:
          want = WindowDigestOf(
              oracle.Window(Row(win_lo_, s.param, 2), Row(win_hi_, s.param, 2)));
          break;
        default:
          want = KnnDigestOf(
              oracle.Knn(Row(knn_, s.param, 2), kKnnK, KnnMetric::kL2Double),
              oracle, values_);
          break;
      }
      if (digests_.digest(slot) != want) {
        check->Fail("tiger_serve: " + std::string(OpName(s.kind)) + " op " +
                    std::to_string(slot) + " differs from the reference");
      }
    }
  }

  double BytesPerEntry() override { return tree_->ComputeStats().BytesPerEntry(); }

  ProbeInput MakeProbeInput() override {
    ProbeInput in;
    in.dim = 2;
    in.tree = tree_.get();
    in.hits = SampleRows(keys_, 2, kProbeLookups, SubSeed(o_.seed, 20));
    // TIGER coordinates sit on a 1e-6 degree grid; half a step off the
    // grid is never stored.
    in.misses = in.hits;
    for (size_t i = 0; i < in.misses.size(); i += 2) {
      in.misses[i] = phtree::SortableDoubleBits(
          phtree::SortableBitsToDouble(in.misses[i]) + 5e-7);
    }
    in.window_lo = Head(win_lo_, 2, kProbeSamples);
    in.window_hi = Head(win_hi_, 2, kProbeSamples);
    in.knn_centers = Head(knn_, 2, kProbeSamples);
    MakeLadderStream(2, keys_, kLadderKeys, kLadderMoves, SubSeed(o_.seed, 21),
                     DoubleJitter(2e-4), &in);
    return in;
  }

 private:
  static constexpr size_t kBatch = 64;
  static constexpr size_t kDistinctBatches = 2048;

  RunOptions o_;
  size_t n_;
  std::vector<uint64_t> keys_;
  std::vector<uint64_t> values_;
  std::vector<Slot> slots_;
  std::vector<uint64_t> finds_;
  std::vector<std::vector<PhKey>> batches_;
  std::vector<uint64_t> win_lo_;
  std::vector<uint64_t> win_hi_;
  std::vector<uint64_t> knn_;
  DigestLog digests_;
  uint64_t next_op_ = 0;
  std::unique_ptr<PhTree> tree_;
};

// ---- cube6d_window ---------------------------------------------------------

/// Window scans over a 6D uniform cube small enough to stay in a core's
/// 2 MiB L2: the traversal cursor and the k>=4 SIMD box kernels do most of
/// the work. One client. 90% windows of 0.1% of the volume (about 20
/// results; one in five drained in 8-entry QueryWindowPage pages), 10%
/// Find. A larger cube lives in the L3 the host shares with its other
/// tenants, and its run-to-run spread was twice as wide. The op stream is
/// long enough that a 10 s run sends each window once: the p99 then
/// samples the seed's window shapes, not a few hundred of them again.
class Cube6dWindow final : public Workload {
 public:
  explicit Cube6dWindow(const RunOptions& o)
      : o_(o),
        n_(Scaled(20000, o.scale, 2000)),
        digests_(Scaled(size_t{1} << 18, o.scale, 4096)) {}

  int clients() const override { return 1; }

  void Generate() override {
    const phtree::Dataset ds = phtree::GenerateCube(n_, kDim, SubSeed(o_.seed, 1));
    keys_ = EncodeDataset(ds);
    values_ = Iota(n_);
    phtree::Rng rng(SubSeed(o_.seed, 2));
    size_t n_find = 0;
    size_t n_window = 0;
    slots_.resize(digests_.size());
    for (Slot& s : slots_) {
      if (rng.NextBool(0.9)) {
        s = {rng.NextBool(0.2) ? OpKind::kWindowPaged : OpKind::kWindow,
             static_cast<uint32_t>(n_window++)};
      } else {
        s = {OpKind::kFind, static_cast<uint32_t>(n_find++)};
      }
    }
    for (const auto& box : phtree::bench::MakeVolumeQueries(
             ds, n_window, 0.001, SubSeed(o_.seed, 3))) {
      AppendEncoded(box.lo, &win_lo_);
      AppendEncoded(box.hi, &win_hi_);
    }
    for (const auto& q :
         phtree::bench::MakePointQueries(ds, n_find, SubSeed(o_.seed, 4))) {
      AppendEncoded(q, &finds_);
    }
  }

  void Setup() override {
    tree_.reset();
    tree_ = std::make_unique<PhTree>(kDim);
    for (size_t i = 0; i < n_; ++i) {
      tree_->Insert(Row(keys_, i, kDim), values_[i]);
    }
  }

  void Run(double seconds, PhaseStats* ps) override {
    ClientStats& c = ps->clients[0];
    ClosedLoopPhase(seconds, &c, [&] {
      const size_t slot = next_op_ % slots_.size();
      const uint64_t id = next_op_++;
      const Slot s = slots_[slot];
      uint64_t digest = 0;
      if (s.kind == OpKind::kFind) {
        digest = FindDigest(c.Timed(OpKind::kFind, id, [&] {
          return tree_->Find(Row(finds_, s.param, kDim));
        }));
      } else {
        const auto lo = Row(win_lo_, s.param, kDim);
        const auto hi = Row(win_hi_, s.param, kDim);
        const WindowDigest w =
            s.kind == OpKind::kWindow
                ? c.Timed(OpKind::kWindow, id,
                          [&] { return VisitWindow(*tree_, lo, hi); })
                : c.Timed(OpKind::kWindowPaged, id,
                          [&] { return DrainWindow(*tree_, lo, hi); });
        c.AddWindowResults(w.count);
        digest = WindowDigestOf(w);
      }
      digests_.Record(slot, digest);
    });
  }

  void Verify(Checker* check) override {
    check->Expect(digests_.inconsistent() == 0,
                  "cube6d_window: a repeated op returned a different answer");
    check->Expect(tree_->size() == n_, "cube6d_window: tree size changed");
    const PointOracle oracle(kDim, keys_, values_);
    for (size_t slot = 0; slot < slots_.size(); ++slot) {
      if (!digests_.seen(slot)) {
        continue;
      }
      const Slot s = slots_[slot];
      const uint64_t want =
          s.kind == OpKind::kFind
              ? FindDigest(oracle.Find(Row(finds_, s.param, kDim)))
              : WindowDigestOf(oracle.Window(Row(win_lo_, s.param, kDim),
                                             Row(win_hi_, s.param, kDim)));
      if (digests_.digest(slot) != want) {
        check->Fail("cube6d_window: " + std::string(OpName(s.kind)) + " op " +
                    std::to_string(slot) + " differs from the reference");
      }
    }
  }

  double BytesPerEntry() override { return tree_->ComputeStats().BytesPerEntry(); }

  ProbeInput MakeProbeInput() override {
    ProbeInput in;
    in.dim = kDim;
    in.tree = tree_.get();
    in.hits = SampleRows(keys_, kDim, kProbeLookups, SubSeed(o_.seed, 20));
    phtree::Rng rng(SubSeed(o_.seed, 22));
    for (size_t i = 0; i < kProbeLookups * kDim; ++i) {
      in.misses.push_back(phtree::SortableDoubleBits(rng.NextDouble()));
    }
    for (size_t i = 0; i < kProbeSamples * kDim; ++i) {
      in.knn_centers.push_back(phtree::SortableDoubleBits(rng.NextDouble()));
    }
    in.window_lo = Head(win_lo_, kDim, kProbeSamples);
    in.window_hi = Head(win_hi_, kDim, kProbeSamples);
    MakeLadderStream(kDim, keys_, kLadderKeys, kLadderMoves,
                     SubSeed(o_.seed, 21), DoubleJitter(1e-3), &in);
    return in;
  }

 private:
  static constexpr uint32_t kDim = 6;

  RunOptions o_;
  size_t n_;
  std::vector<uint64_t> keys_;
  std::vector<uint64_t> values_;
  std::vector<Slot> slots_;
  std::vector<uint64_t> finds_;
  std::vector<uint64_t> win_lo_;
  std::vector<uint64_t> win_hi_;
  DigestLog digests_;
  uint64_t next_op_ = 0;
  std::unique_ptr<PhTree> tree_;
};

// ---- moving_objects --------------------------------------------------------

/// The paper's motivating update workload: 1M 2D objects in a PhTreeSharded
/// (S=8, z-prefix routing, its own one-worker ThreadPool). One writer moves
/// 1% of the objects per tick by a Gaussian step (sigma 1e-4 of the
/// domain) through TryUpdate; two readers run 50% windows of side 0.01
/// (about 100 results) and 50% kNN(10) until the writer stops. Keys are
/// the unit-square positions scaled to the full 64-bit range, so z-prefix
/// routing balances the shards.
class MovingObjects final : public Workload {
 public:
  explicit MovingObjects(const RunOptions& o)
      : o_(o),
        n_(Scaled(1000000, o.scale, 2000)),
        reader_slots_(std::clamp<size_t>(n_ / 64, 1024, size_t{1} << 14)),
        pool_(std::make_unique<phtree::ThreadPool>(1)) {}

  int clients() const override { return 1 + kReaders; }

  void Generate() override {
    phtree::bench::MovingObjectsConfig cfg;
    cfg.dim = 2;
    cfg.n_objects = n_;
    cfg.move_fraction = 0.01;
    cfg.sigma = 1e-4;
    mover_ = std::make_unique<phtree::bench::MovingObjectsWorkload>(
        cfg, SubSeed(o_.seed, 1));
    for (const auto& p : mover_->positions()) {
      initial_.push_back(ToKey(p[0]));
      initial_.push_back(ToKey(p[1]));
    }
    for (size_t i = 0; i < n_; ++i) {
      entries_.push_back(phtree::PhEntry{PhKey(Row(initial_, i, 2).begin(),
                                               Row(initial_, i, 2).end()),
                                         i});
    }
    for (int r = 0; r < kReaders; ++r) {
      phtree::Rng rng(SubSeed(o_.seed, 10 + r));
      ReaderStream& s = readers_[r];
      for (size_t i = 0; i < reader_slots_; ++i) {
        const double x = rng.NextDouble();
        const double y = rng.NextDouble();
        if (rng.NextBool(0.5)) {
          s.kinds.push_back(OpKind::kWindow);
          s.params.insert(s.params.end(),
                          {ToKey(std::max(0.0, x - 0.005)),
                           ToKey(std::max(0.0, y - 0.005)),
                           ToKey(std::min(1.0, x + 0.005)),
                           ToKey(std::min(1.0, y + 0.005))});
        } else {
          s.kinds.push_back(OpKind::kKnn);
          s.params.insert(s.params.end(), {ToKey(x), ToKey(y), 0, 0});
        }
      }
    }
  }

  void Setup() override {
    tree_.reset();
    tree_ = std::make_unique<phtree::PhTreeSharded>(
        2, kShards, phtree::ShardRouting::kZPrefix, phtree::PhTreeConfig{},
        pool_.get());
    tree_->BulkLoad(entries_);
    cur_ = initial_;
  }

  void Run(double seconds, PhaseStats* ps) override {
    {
      // Destroying a jthread requests its stop and joins it, on every exit
      // path of this block.
      std::vector<std::jthread> readers;
      for (int r = 0; r < kReaders; ++r) {
        readers.emplace_back([this, r, ps](std::stop_token stop) {
          try {
            ReaderLoop(r, &ps->clients[1 + r], stop);
          } catch (const std::exception& e) {
            readers_[r].error = e.what();
          }
        });
      }
      ClientStats& c = ps->clients[0];
      ClosedLoopPhase(seconds, &c, [&] {
        if (next_move_ == moves_.size()) {
          NextTick();
        }
        const Move& m = moves_[next_move_++];
        const std::span<uint64_t> from(cur_.data() + size_t{m.object} * 2, 2);
        const UpdateOutcome out = c.Timed(OpKind::kUpdate, writes_++, [&] {
          return tree_->TryUpdate(from, m.to);
        });
        if (out == UpdateOutcome::kMoved) {
          std::copy(m.to.begin(), m.to.end(), from.begin());
        } else {
          c.AddFailure();
          ++bad_updates_;
        }
      });
    }
  }

  void Verify(Checker* check) override {
    check->Expect(bad_updates_ == 0,
                  "moving_objects: " + std::to_string(bad_updates_) +
                      " TryUpdate calls did not move their object");
    for (int r = 0; r < kReaders; ++r) {
      check->Expect(readers_[r].bad == 0,
                    "moving_objects: reader " + std::to_string(r) + " saw " +
                        std::to_string(readers_[r].bad) + " malformed answers");
      check->Expect(readers_[r].error.empty(),
                    "moving_objects: reader " + std::to_string(r) +
                        " stopped: " + readers_[r].error);
    }
    check->Expect(tree_->size() == n_, "moving_objects: tree size changed");
    uint64_t lost = 0;
    for (size_t i = 0; i < n_; ++i) {
      const auto v = tree_->Find(Row(cur_, i, 2));
      lost += (!v || *v != i) ? 1 : 0;
    }
    check->Expect(lost == 0, "moving_objects: " + std::to_string(lost) +
                                 " objects not found at their last position");
    // The readers' queries again, now against a quiescent tree and the
    // reference: every kind of answer the readers got is checked exactly
    // on the final state.
    const std::vector<uint64_t> ids = Iota(n_);
    const PointOracle oracle(2, cur_, ids);
    const ReaderStream& s = readers_[0];
    for (size_t i = 0; i < std::min<size_t>(s.kinds.size(), 2000); ++i) {
      const std::span<const uint64_t> p(s.params.data() + i * 4, 4);
      bool same;
      if (s.kinds[i] == OpKind::kWindow) {
        same = VisitWindow(*tree_, p.subspan(0, 2), p.subspan(2, 2)) ==
               oracle.Window(p.subspan(0, 2), p.subspan(2, 2));
      } else {
        same = SameNeighbors(
            tree_->KnnSearch(p.subspan(0, 2), kKnnK, KnnMetric::kL2Integer),
            oracle.Knn(p.subspan(0, 2), kKnnK, KnnMetric::kL2Integer), oracle);
      }
      if (!same) {
        check->Fail("moving_objects: reader query " + std::to_string(i) +
                    " differs from the reference on the final state");
      }
    }
  }

  double BytesPerEntry() override { return tree_->ComputeStats().BytesPerEntry(); }

  ProbeInput MakeProbeInput() override {
    probe_tree_ = std::make_unique<PhTree>(2);
    for (size_t i = 0; i < n_; ++i) {
      probe_tree_->Insert(Row(cur_, i, 2), i);
    }
    ProbeInput in;
    in.dim = 2;
    in.metric = KnnMetric::kL2Integer;
    in.routing = phtree::ShardRouting::kZPrefix;
    in.tree = probe_tree_.get();
    in.hits = SampleRows(cur_, 2, kProbeLookups, SubSeed(o_.seed, 20));
    phtree::Rng rng(SubSeed(o_.seed, 22));
    for (size_t i = 0; i < kProbeLookups * 2; ++i) {
      in.misses.push_back(rng.NextU64());
    }
    const ReaderStream& s = readers_[0];
    for (size_t i = 0; i < s.kinds.size(); ++i) {
      const uint64_t* p = s.params.data() + i * 4;
      if (s.kinds[i] == OpKind::kWindow &&
          in.window_lo.size() < kProbeSamples * 2) {
        in.window_lo.insert(in.window_lo.end(), p, p + 2);
        in.window_hi.insert(in.window_hi.end(), p + 2, p + 4);
      } else if (s.kinds[i] == OpKind::kKnn &&
                 in.knn_centers.size() < kProbeSamples * 2) {
        in.knn_centers.insert(in.knn_centers.end(), p, p + 2);
      }
    }
    MakeLadderStream(
        2, cur_, kLadderKeys, kLadderMoves, SubSeed(o_.seed, 21),
        [](std::span<uint64_t> key, phtree::Rng& r) {
          for (uint64_t& k : key) {
            const double step = r.NextDouble(-2e-4, 2e-4);
            const double v = std::clamp(FromKey(k) + step, 0.0, 1.0);
            k = ToKey(v);
          }
        },
        &in);
    return in;
  }

 private:
  static constexpr int kReaders = 2;
  static constexpr uint32_t kShards = 8;

  struct Move {
    uint32_t object;
    std::array<uint64_t, 2> to;
  };
  struct ReaderStream {
    std::vector<OpKind> kinds;
    std::vector<uint64_t> params;  // 4 words per slot: box lo, hi / center
    uint64_t bad = 0;
    std::string error;  // what ended the reader early, if anything
  };

  static uint64_t ToKey(double x) {
    return x >= 1.0 ? ~uint64_t{0}
                    : static_cast<uint64_t>(std::ldexp(std::max(x, 0.0), 64));
  }
  static double FromKey(uint64_t k) {
    return std::ldexp(static_cast<double>(k), -64);
  }

  /// The next tick's moves, drawn outside any timed op.
  void NextTick() {
    moves_.clear();
    next_move_ = 0;
    for (const auto& m : mover_->Tick()) {
      moves_.push_back(Move{static_cast<uint32_t>(m.object),
                            {ToKey(m.to[0]), ToKey(m.to[1])}});
    }
  }

  void ReaderLoop(int r, ClientStats* c, const std::stop_token& stop) {
    ReaderStream& s = readers_[r];
    const size_t want = std::min<size_t>(kKnnK, n_);
    uint64_t id = 0;
    while (!stop.stop_requested()) {
      const size_t slot = id % s.kinds.size();
      const std::span<const uint64_t> p(s.params.data() + slot * 4, 4);
      const uint64_t op = (uint64_t{1} + r) << 56 | id++;
      if (s.kinds[slot] == OpKind::kWindow) {
        const auto lo = p.subspan(0, 2);
        const auto hi = p.subspan(2, 2);
        uint64_t outside = 0;
        const uint64_t count = c->Timed(OpKind::kWindow, op, [&] {
          uint64_t n = 0;
          tree_->QueryWindow(lo, hi, [&](const PhKey& k, uint64_t) {
            ++n;
            outside += (k[0] < lo[0] || k[0] > hi[0] || k[1] < lo[1] ||
                        k[1] > hi[1])
                           ? 1
                           : 0;
          });
          return n;
        });
        c->AddWindowResults(count);
        s.bad += outside != 0 ? 1 : 0;
      } else {
        const auto res = c->Timed(OpKind::kKnn, op, [&] {
          return tree_->KnnSearch(p.subspan(0, 2), kKnnK,
                                  KnnMetric::kL2Integer);
        });
        bool sorted = res.size() == want;
        for (size_t i = 1; i < res.size() && sorted; ++i) {
          sorted = res[i - 1].dist2 <= res[i].dist2;
        }
        s.bad += sorted ? 0 : 1;
      }
    }
  }

  RunOptions o_;
  size_t n_;
  size_t reader_slots_;
  std::unique_ptr<phtree::ThreadPool> pool_;
  std::unique_ptr<phtree::bench::MovingObjectsWorkload> mover_;
  std::vector<uint64_t> initial_;
  std::vector<phtree::PhEntry> entries_;
  std::vector<uint64_t> cur_;  // each object's current key, writer-owned
  std::vector<Move> moves_;
  size_t next_move_ = 0;
  uint64_t writes_ = 0;
  uint64_t bad_updates_ = 0;
  ReaderStream readers_[kReaders];
  std::unique_ptr<phtree::PhTreeSharded> tree_;
  std::unique_ptr<PhTree> probe_tree_;
};

// ---- ttl_durable -----------------------------------------------------------

/// A durable time-to-live store: 3D keys (epoch, x, y), 20k inserts per
/// epoch, entries live 16 epochs (about 320k live). Each epoch ends with
/// an expiry window and a TryErase of every hit. Every mutation is
/// appended to a WAL (sync_every_n = 0; the client syncs every 256
/// records); every 16 epochs the tree is serialised, written as a snapshot
/// and the WAL restarted. The only workload that runs the in-place
/// mutation engine under churn, the arena freelists, the WAL and
/// serialisation. Files live in MemVfs, so the numbers are the software's,
/// not a device's. One client.
class TtlDurable final : public Workload {
 public:
  explicit TtlDurable(const RunOptions& o) : o_(o) {
    cfg_.space_dim = 2;
    cfg_.inserts_per_epoch = Scaled(20000, o.scale, 200);
    cfg_.ttl = kTtl;
  }

  int clients() const override { return 1; }

  void Generate() override {
    workload_ = std::make_unique<phtree::bench::TtlWorkload>(
        cfg_, SubSeed(o_.seed, 1));
    for (uint64_t e = 0; e < kTtl; ++e) {
      prefill_.push_back(NextBatch());
    }
  }

  void Setup() override {
    wal_ = phtree::WalWriter();
    tree_.reset();
    vfs_.Unlink(kWalPath);
    vfs_.Unlink(kSnapPath);
    tree_ = std::make_unique<PhTree>(kDim);
    live_.clear();
    next_value_ = 0;
    unsynced_ = 0;
    epochs_since_checkpoint_ = 0;
    OpenWal();
    for (const std::vector<uint64_t>& keys : prefill_) {
      Batch b{keys, next_value_};
      for (size_t i = 0; i < keys.size() / kDim; ++i) {
        const auto key = Row(keys, i, kDim);
        const uint64_t value = next_value_++;
        setup_ok_ &= tree_->TryInsert(key, value) == OpStatus::kApplied &&
                     wal_.AppendInsert(key, value).ok() && MaybeSync();
      }
      live_.push_back(std::move(b));
    }
    setup_ok_ &= Checkpoint();
  }

  void Run(double seconds, PhaseStats* ps) override {
    ClientStats& c = ps->clients[0];
    const Clock::time_point deadline =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(seconds));
    do {
      RunEpoch(&c);
    } while (c.last_end() < deadline);
  }

  void Verify(Checker* check) override {
    check->Expect(setup_ok_, "ttl_durable: set-up mutations or I/O failed");
    check->Expect(bad_expiry_ == 0,
                  "ttl_durable: " + std::to_string(bad_expiry_) +
                      " expiry windows returned the wrong entries");
    uint64_t live = 0;
    uint64_t lost = 0;
    for (const Batch& b : live_) {
      for (size_t i = 0; i < b.keys.size() / kDim; ++i) {
        const auto v = tree_->Find(Row(b.keys, i, kDim));
        lost += (!v || *v != b.first_value + i) ? 1 : 0;
        ++live;
      }
    }
    check->Expect(tree_->size() == live && lost == 0,
                  "ttl_durable: live content differs from the reference");
    check->Expect(wal_.Sync().ok(), "ttl_durable: final WAL sync failed");
    auto recovered = phtree::RecoverPhTree(kSnapPath, kWalPath);
    if (!recovered) {
      check->Fail("ttl_durable: recovery failed: " +
                  recovered.error().ToString());
      return;
    }
    check->Expect(
        recovered->size() == tree_->size() &&
            ContentDigest(*recovered) == ContentDigest(*tree_),
        "ttl_durable: snapshot + WAL recovery differs from the live tree");
  }

  double BytesPerEntry() override { return tree_->ComputeStats().BytesPerEntry(); }

  ProbeInput MakeProbeInput() override {
    std::vector<uint64_t> live;
    for (const Batch& b : live_) {
      live.insert(live.end(), b.keys.begin(), b.keys.end());
    }
    ProbeInput in;
    in.dim = kDim;
    in.tree = tree_.get();
    in.hits = SampleRows(live, kDim, kProbeLookups, SubSeed(o_.seed, 20));
    // The same positions one epoch beyond the newest: never stored.
    const double future = static_cast<double>(workload_->epoch() + 1);
    in.misses = in.hits;
    for (size_t i = 0; i < in.misses.size(); i += kDim) {
      in.misses[i] = phtree::SortableDoubleBits(future);
    }
    // One-epoch slabs over the whole space, as the expiry scan reads them.
    phtree::Rng rng(SubSeed(o_.seed, 22));
    const uint64_t first = workload_->epoch() + 1 - kTtl;
    for (size_t i = 0; i < 64; ++i) {
      const double t = static_cast<double>(first + rng.NextBounded(kTtl));
      const double lo[kDim] = {t, cfg_.lo, cfg_.lo};
      const double hi[kDim] = {t, cfg_.hi, cfg_.hi};
      AppendEncoded(lo, &in.window_lo);
      AppendEncoded(hi, &in.window_hi);
    }
    // kNN centers on a live epoch: neighbours come from that epoch's slab.
    for (size_t i = 0; i < kProbeSamples; ++i) {
      const double c[kDim] = {static_cast<double>(first + rng.NextBounded(kTtl)),
                              rng.NextDouble(), rng.NextDouble()};
      AppendEncoded(c, &in.knn_centers);
    }
    MakeLadderStream(
        kDim, live, kLadderKeys, kLadderMoves, SubSeed(o_.seed, 21),
        [](std::span<uint64_t> key, phtree::Rng& r) {
          DoubleJitter(1e-3)(key.subspan(1), r);  // space moves, time stays
        },
        &in);
    return in;
  }

 private:
  static constexpr uint32_t kDim = 3;
  static constexpr uint64_t kTtl = 16;
  static constexpr uint64_t kCheckpointEvery = 16;
  static constexpr uint32_t kSyncEvery = 256;
  static constexpr const char* kWalPath = "/phbench/ttl.wal";
  static constexpr const char* kSnapPath = "/phbench/ttl.snapshot";

  struct Batch {
    std::vector<uint64_t> keys;
    uint64_t first_value;
  };

  std::vector<uint64_t> NextBatch() {
    std::vector<uint64_t> keys;
    for (const auto& k : workload_->NextBatch()) {
      AppendEncoded(k, &keys);
    }
    return keys;
  }

  void OpenWal() {
    phtree::WalOptions options;
    options.sync_every_n = 0;
    auto opened = phtree::WalWriter::Open(kWalPath, kDim, true, options);
    if (!opened) {
      throw std::runtime_error("ttl_durable: cannot open WAL: " +
                               opened.error().ToString());
    }
    wal_ = std::move(*opened);
  }

  /// Group commit: the client, not the WAL writer, decides when to fsync.
  bool MaybeSync() {
    if (++unsynced_ < kSyncEvery) {
      return true;
    }
    unsynced_ = 0;
    trace::Span span("wal.sync", 0);
    return wal_.Sync().ok();
  }

  /// Snapshot the tree, then restart the WAL: the snapshot is durable
  /// before the log it replaces is dropped.
  bool Checkpoint() {
    epochs_since_checkpoint_ = 0;
    bool ok = wal_.Sync().ok();
    std::vector<uint8_t> bytes;
    {
      trace::Span span("serialize.serialize", 0);
      bytes = phtree::SerializePhTree(*tree_);
    }
    {
      trace::Span span("serialize.write_snapshot", 0);
      ok &= phtree::WriteSnapshotFileOr(bytes, kSnapPath).ok();
    }
    trace::Span span("wal.rotate", 0);
    ok &= wal_.Close().ok();
    vfs_.Unlink(kWalPath);
    OpenWal();
    return ok;
  }

  /// One mutation and its log record, timed together as the client sees
  /// them.
  void Mutate(ClientStats* c, OpKind kind, std::span<const uint64_t> key,
              uint64_t value) {
    const uint64_t id = ops_++;
    const bool ok = c->Timed(kind, id, [&] {
      OpStatus st;
      {
        trace::Span span(kind == OpKind::kInsert ? "phtree.try_insert"
                                                 : "phtree.try_erase",
                         id);
        st = kind == OpKind::kInsert ? tree_->TryInsert(key, value)
                                     : tree_->TryErase(key);
      }
      if (st != OpStatus::kApplied) {
        return false;
      }
      trace::Span span("wal.append", id);
      const phtree::Status ws = kind == OpKind::kInsert
                                    ? wal_.AppendInsert(key, value)
                                    : wal_.AppendErase(key);
      return ws.ok() && MaybeSync();
    });
    if (!ok) {
      c->AddFailure();
    }
  }

  void RunEpoch(ClientStats* c) {
    Batch b{NextBatch(), next_value_};
    for (size_t i = 0; i < b.keys.size() / kDim; ++i) {
      Mutate(c, OpKind::kInsert, Row(b.keys, i, kDim), next_value_++);
    }
    std::vector<double> lo_d;
    std::vector<double> hi_d;
    workload_->ExpiryWindow(&lo_d, &hi_d);
    std::vector<uint64_t> lo;
    std::vector<uint64_t> hi;
    AppendEncoded(lo_d, &lo);
    AppendEncoded(hi_d, &hi);
    std::vector<uint64_t> expired;
    std::vector<uint64_t> values;
    c->Timed(OpKind::kExpire, ops_++, [&] {
      tree_->QueryWindow(lo, hi, [&](const PhKey& k, uint64_t v) {
        expired.insert(expired.end(), k.begin(), k.end());
        values.push_back(v);
      });
      return values.size();
    });
    c->AddWindowResults(values.size());
    // The window must return exactly the oldest live batch.
    const Batch& oldest = live_.front();
    const size_t n_old = oldest.keys.size() / kDim;
    std::sort(values.begin(), values.end());
    bool exact = values.size() == n_old;
    for (size_t i = 0; i < values.size() && exact; ++i) {
      exact = values[i] == oldest.first_value + i;
    }
    bad_expiry_ += exact ? 0 : 1;
    for (size_t i = 0; i < expired.size() / kDim; ++i) {
      Mutate(c, OpKind::kErase, Row(expired, i, kDim), 0);
    }
    live_.pop_front();
    live_.push_back(std::move(b));
    if (++epochs_since_checkpoint_ == kCheckpointEvery) {
      if (!c->Timed(OpKind::kCheckpoint, ops_++, [&] { return Checkpoint(); })) {
        c->AddFailure();
      }
    }
  }

  /// Order-dependent digest of a tree's whole content (z-order).
  static uint64_t ContentDigest(const PhTree& tree) {
    uint64_t h = 0;
    tree.ForEach([&h](const PhKey& k, uint64_t v) {
      for (const uint64_t w : k) {
        h = Mix(h, w);
      }
      h = Mix(h, v);
    });
    return h;
  }

  RunOptions o_;
  phtree::bench::TtlConfig cfg_;
  MemVfs vfs_;
  phtree::ScopedVfs use_vfs_{&vfs_};
  std::unique_ptr<phtree::bench::TtlWorkload> workload_;
  std::vector<std::vector<uint64_t>> prefill_;
  std::deque<Batch> live_;
  phtree::WalWriter wal_;
  std::unique_ptr<PhTree> tree_;
  uint64_t next_value_ = 0;
  uint64_t ops_ = 0;
  uint32_t unsynced_ = 0;
  uint64_t epochs_since_checkpoint_ = 0;
  uint64_t bad_expiry_ = 0;
  bool setup_ok_ = true;
};

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {
      "tiger_serve", "cube6d_window", "moving_objects", "ttl_durable"};
  return names;
}

std::unique_ptr<Workload> MakeWorkload(const RunOptions& options) {
  if (options.workload == "tiger_serve") {
    return std::make_unique<TigerServe>(options);
  }
  if (options.workload == "cube6d_window") {
    return std::make_unique<Cube6dWindow>(options);
  }
  if (options.workload == "moving_objects") {
    return std::make_unique<MovingObjects>(options);
  }
  if (options.workload == "ttl_durable") {
    return std::make_unique<TtlDurable>(options);
  }
  return nullptr;
}

}  // namespace phbench
