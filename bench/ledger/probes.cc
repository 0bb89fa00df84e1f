// Per-layer probes of the traced run. Each probe times public calls of one
// module on the workload's own live index and key samples (ProbeInput),
// single-threaded and after the workload's timed phase, so every workload
// reports every layer metric on its own data.
//
// The layer ladder replays one insert / relocate / erase stream through
// successively taller stacks: a plain PhTree, the same with MVCC (copy-on-
// write + epoch reclamation), PhTreeSync, PhTreeSharded with one shard and
// with eight. The difference between the medians of adjacent rungs is
// what that layer adds to one op.
#include <algorithm>

#include "common/thread_pool.h"
#include "mem_vfs.h"
#include "oracle.h"
#include "phbench.h"
#include "phtree/cursor.h"
#include "phtree/phtree_sync.h"
#include "phtree/serialize.h"
#include "phtree/sharded.h"
#include "phtree/wal.h"
#include "trace.h"

namespace phbench {
namespace {

using phtree::PhKey;
using phtree::PhTree;
using phtree::UpdateOutcome;

constexpr size_t kBatch = 64;
constexpr size_t kBatchKeys = 64 * 256;
constexpr int kBatchReps = 5;
constexpr uint32_t kSyncEvery = 256;

// Keeps timed loops whose results are otherwise unused from being elided.
volatile uint32_t g_sink = 0;

double P50Us(const LatencyHistogram& h) { return h.Percentile(0.5) / 1000.0; }

double SecondsSince(Clock::time_point t0) {
  return static_cast<double>(ElapsedNs(t0, Clock::now())) / 1e9;
}

struct RungResult {
  LatencyHistogram insert;
  LatencyHistogram update;
  LatencyHistogram erase;
  LatencyHistogram all;
};

/// Runs the ladder stream through `index`. `after_inserts` and
/// `after_updates` see the index between phases (untimed).
template <typename Index, typename AfterInserts, typename AfterUpdates>
RungResult RunRung(const char* name, Index& index, const ProbeInput& in,
                   Checker* check, AfterInserts&& after_inserts,
                   AfterUpdates&& after_updates) {
  trace::Span span(name, 0);
  const uint32_t dim = in.dim;
  const size_t n = in.ladder_keys.size() / dim;
  RungResult r;
  uint64_t bad = 0;
  for (size_t i = 0; i < n; ++i) {
    const auto t0 = Clock::now();
    const bool ok = index.Insert(Row(in.ladder_keys, i, dim), i);
    r.insert.Record(SampleNs(t0, Clock::now()));
    bad += ok ? 0 : 1;
  }
  after_inserts(index);
  std::vector<uint64_t> cur = in.ladder_keys;
  for (size_t m = 0; m < in.move_object.size(); ++m) {
    const std::span<uint64_t> from(cur.data() + size_t{in.move_object[m]} * dim,
                                   dim);
    const auto to = Row(in.move_to, m, dim);
    const auto t0 = Clock::now();
    const UpdateOutcome out = index.Update(from, to);
    r.update.Record(SampleNs(t0, Clock::now()));
    if (out == UpdateOutcome::kMoved) {
      std::copy(to.begin(), to.end(), from.begin());
    } else {
      ++bad;
    }
  }
  after_updates(index);
  for (size_t i = 0; i < n; ++i) {
    const auto t0 = Clock::now();
    const bool ok = index.Erase(Row(cur, i, dim));
    r.erase.Record(SampleNs(t0, Clock::now()));
    bad += ok ? 0 : 1;
  }
  check->Expect(bad == 0 && index.size() == 0,
                std::string(name) + ": " + std::to_string(bad) +
                    " ladder ops failed or the index is not empty after them");
  r.all.Merge(r.insert);
  r.all.Merge(r.update);
  r.all.Merge(r.erase);
  return r;
}

void Ladder(const ProbeInput& in, std::vector<Metric>* out, Checker* check) {
  const auto none = [](const auto&) {};
  const size_t n_moves = in.move_object.size();

  PhTree plain(in.dim);
  const RungResult p = RunRung("ladder.plain", plain, in, check, none, none);
  const phtree::PhUpdateStats& us = plain.update_stats();

  phtree::EpochManager epochs;
  PhTree mvcc_tree(in.dim);
  mvcc_tree.EnableMvcc(&epochs);
  const uint64_t epoch0 = epochs.epoch();
  uint64_t reclaimed_before = 0;
  uint64_t reclaimed_after = 0;
  const RungResult m = RunRung(
      "ladder.mvcc", mvcc_tree, in, check,
      [&](const PhTree& t) {
        reclaimed_before = t.ComputeStats().arena_reclaimed_nodes;
      },
      [&](const PhTree& t) {
        reclaimed_after = t.ComputeStats().arena_reclaimed_nodes;
      });
  const double ladder_kops =
      static_cast<double>(m.all.count()) / 1000.0;
  const uint64_t epoch_advances = epochs.epoch() - epoch0;

  phtree::PhTreeSync sync(in.dim);
  const RungResult s = RunRung("ladder.sync", sync, in, check, none, none);

  phtree::ThreadPool pool(1);
  phtree::PhTreeSharded s1(in.dim, 1, in.routing, phtree::PhTreeConfig{},
                           &pool);
  const RungResult r1 = RunRung("ladder.sharded1", s1, in, check, none, none);

  phtree::PhTreeSharded s8(in.dim, 8, in.routing, phtree::PhTreeConfig{},
                           &pool);
  uint64_t cross = 0;
  {
    std::vector<uint64_t> cur = in.ladder_keys;
    for (size_t i = 0; i < n_moves; ++i) {
      const std::span<uint64_t> from(
          cur.data() + size_t{in.move_object[i]} * in.dim, in.dim);
      const auto to = Row(in.move_to, i, in.dim);
      cross += s8.ShardOf(from) != s8.ShardOf(to) ? 1 : 0;
      std::copy(to.begin(), to.end(), from.begin());
    }
  }
  double balance = 0;
  const RungResult r8 = RunRung(
      "ladder.sharded8", s8, in, check,
      [&](const phtree::PhTreeSharded& t) {
        size_t most = 0;
        for (uint32_t i = 0; i < t.num_shards(); ++i) {
          most = std::max(most, t.UnsafeShard(i).size());
        }
        balance = static_cast<double>(most) * t.num_shards() /
                  static_cast<double>(std::max<size_t>(t.size(), 1));
      },
      none);

  // Route cost: ShardOf over every ladder key, several passes.
  const size_t n_keys = in.ladder_keys.size() / in.dim;
  uint32_t sink = 0;
  const auto t0 = Clock::now();
  for (int rep = 0; rep < 10; ++rep) {
    for (size_t i = 0; i < n_keys; ++i) {
      sink ^= s8.ShardOf(Row(in.ladder_keys, i, in.dim));
    }
  }
  const double route_ns = static_cast<double>(ElapsedNs(t0, Clock::now())) /
                          static_cast<double>(10 * std::max<size_t>(n_keys, 1));
  g_sink = sink;

  const uint64_t moved = us.fast_path + us.fallback;
  out->push_back({"phtree.insert_p50_us", P50Us(p.insert), "us"});
  out->push_back({"phtree.update_p50_us", P50Us(p.update), "us"});
  out->push_back({"phtree.erase_p50_us", P50Us(p.erase), "us"});
  out->push_back({"phtree.update_fast_path_frac",
                  moved == 0 ? 0.0
                             : static_cast<double>(us.fast_path) /
                                   static_cast<double>(moved),
                  "ratio"});
  out->push_back({"arena.mvcc_insert_overhead_us",
                  P50Us(m.insert) - P50Us(p.insert), "us"});
  out->push_back({"arena.mvcc_update_overhead_us",
                  P50Us(m.update) - P50Us(p.update), "us"});
  out->push_back({"arena.mvcc_erase_overhead_us",
                  P50Us(m.erase) - P50Us(p.erase), "us"});
  out->push_back({"arena.reclaimed_per_update",
                  static_cast<double>(reclaimed_after - reclaimed_before) /
                      static_cast<double>(std::max<size_t>(n_moves, 1)),
                  "count"});
  out->push_back({"arena.epoch_advances_per_kop",
                  static_cast<double>(epoch_advances) / ladder_kops, "1/kop"});
  out->push_back({"sync.overhead_us", P50Us(s.all) - P50Us(m.all), "us"});
  out->push_back({"sharded.s1_overhead_us", P50Us(r1.all) - P50Us(s.all), "us"});
  out->push_back({"sharded.s8_overhead_us", P50Us(r8.all) - P50Us(r1.all), "us"});
  out->push_back({"sharded.route_ns", route_ns, "ns"});
  out->push_back({"sharded.cross_shard_frac",
                  static_cast<double>(cross) /
                      static_cast<double>(std::max<size_t>(n_moves, 1)),
                  "ratio"});
  out->push_back({"sharded.shard_balance", balance, "ratio"});
}

void Lookups(const ProbeInput& in, std::vector<Metric>* out, Checker* check) {
  trace::Span span("probe.lookups", 0);
  const PhTree& tree = *in.tree;
  LatencyHistogram hit;
  LatencyHistogram miss;
  uint64_t wrong = 0;
  for (size_t i = 0; i < in.hits.size() / in.dim; ++i) {
    const auto t0 = Clock::now();
    const bool found = tree.Find(Row(in.hits, i, in.dim)).has_value();
    hit.Record(SampleNs(t0, Clock::now()));
    wrong += found ? 0 : 1;
  }
  for (size_t i = 0; i < in.misses.size() / in.dim; ++i) {
    const auto t0 = Clock::now();
    const bool found = tree.Find(Row(in.misses, i, in.dim)).has_value();
    miss.Record(SampleNs(t0, Clock::now()));
    wrong += found ? 1 : 0;
  }
  check->Expect(wrong == 0, "probe: " + std::to_string(wrong) +
                                " Find answers contradict the key samples");

  // Looped Find against FindBatch on the same groups of 64, interleaved.
  std::vector<PhKey> keys;
  for (size_t i = 0; keys.size() < kBatchKeys; ++i) {
    const std::vector<uint64_t>& src = i % 2 == 0 ? in.hits : in.misses;
    const size_t rows = src.size() / in.dim;
    if (rows == 0) {
      break;
    }
    const auto k = Row(src, (i / 2) % rows, in.dim);
    keys.emplace_back(k.begin(), k.end());
  }
  std::vector<double> loop_ns;
  std::vector<double> batch_ns;
  uint64_t mismatches = 0;
  for (int rep = 0; rep < kBatchReps; ++rep) {
    std::vector<std::optional<uint64_t>> looped;
    auto t0 = Clock::now();
    for (const PhKey& k : keys) {
      looped.push_back(tree.Find(k));
    }
    loop_ns.push_back(static_cast<double>(ElapsedNs(t0, Clock::now())));
    std::vector<std::optional<uint64_t>> batched;
    t0 = Clock::now();
    for (size_t i = 0; i < keys.size(); i += kBatch) {
      const auto part = tree.FindBatch(std::span<const PhKey>(keys).subspan(
          i, std::min(kBatch, keys.size() - i)));
      batched.insert(batched.end(), part.begin(), part.end());
    }
    batch_ns.push_back(static_cast<double>(ElapsedNs(t0, Clock::now())));
    mismatches += looped == batched ? 0 : 1;
  }
  check->Expect(mismatches == 0, "probe: FindBatch differs from looped Find");

  out->push_back({"phtree.find_hit_p50_us", P50Us(hit), "us"});
  out->push_back({"phtree.find_miss_p50_us", P50Us(miss), "us"});
  out->push_back(
      {"phtree.find_batch_speedup", Median(loop_ns) / Median(batch_ns), "ratio"});
}

void Scans(const ProbeInput& in, std::vector<Metric>* out, Checker* check) {
  trace::Span span("probe.scans", 0);
  const PhTree& tree = *in.tree;
  const uint32_t dim = in.dim;
  double visit_ns = 0;
  double paged_ns = 0;
  uint64_t results = 0;
  uint64_t differ = 0;
  for (size_t i = 0; i < in.window_lo.size() / dim; ++i) {
    const auto lo = Row(in.window_lo, i, dim);
    const auto hi = Row(in.window_hi, i, dim);
    // Alternate which form runs first so neither always meets warm caches.
    WindowDigest a;
    WindowDigest b;
    for (int pass = 0; pass < 2; ++pass) {
      const bool visitor = (pass == 0) == (i % 2 == 0);
      const auto t0 = Clock::now();
      if (visitor) {
        a = VisitWindow(tree, lo, hi);
        visit_ns += static_cast<double>(ElapsedNs(t0, Clock::now()));
      } else {
        b = DrainWindow(tree, lo, hi);
        paged_ns += static_cast<double>(ElapsedNs(t0, Clock::now()));
      }
    }
    differ += a == b ? 0 : 1;
    results += a.count;
  }
  check->Expect(differ == 0, "probe: paged window scan differs from visitor");

  // A slab: dimension 0 up to its 1/16 quantile, every other dimension
  // unbounded.
  std::vector<uint64_t> first;
  for (size_t i = 0; i < in.hits.size(); i += dim) {
    first.push_back(in.hits[i]);
  }
  std::nth_element(first.begin(), first.begin() + first.size() / 16,
                   first.end());
  std::vector<uint64_t> lo(dim, 0);
  std::vector<uint64_t> hi(dim, ~uint64_t{0});
  hi[0] = first.empty() ? ~uint64_t{0} : first[first.size() / 16];
  std::vector<double> slab_us;
  uint64_t slab_results = 0;
  for (int rep = 0; rep < 3; ++rep) {
    const auto t0 = Clock::now();
    slab_results = VisitWindow(tree, lo, hi).count;
    slab_us.push_back(static_cast<double>(ElapsedNs(t0, Clock::now())) / 1000.0);
  }
  check->Expect(slab_results > 0, "probe: slab scan returned nothing");

  // kNN: time per returned neighbour.
  double knn_ns = 0;
  uint64_t neighbours = 0;
  const size_t want = std::min(kKnnK, tree.size());
  for (size_t i = 0; i < in.knn_centers.size() / dim; ++i) {
    const auto t0 = Clock::now();
    const auto r =
        phtree::KnnSearch(tree, Row(in.knn_centers, i, dim), kKnnK, in.metric);
    knn_ns += static_cast<double>(ElapsedNs(t0, Clock::now()));
    check->Expect(r.size() == want, "probe: kNN returned too few results");
    neighbours += r.size();
  }

  out->push_back({"cursor.window_us_per_result",
                  visit_ns / 1000.0 / static_cast<double>(std::max<uint64_t>(results, 1)),
                  "us"});
  out->push_back({"cursor.page_overhead", paged_ns / std::max(visit_ns, 1.0),
                  "ratio"});
  out->push_back({"cursor.slab_scan_us_per_result",
                  Median(slab_us) /
                      static_cast<double>(std::max<uint64_t>(slab_results, 1)),
                  "us"});
  out->push_back({"knn.us_per_result",
                  knn_ns / 1000.0 /
                      static_cast<double>(std::max<uint64_t>(neighbours, 1)),
                  "us"});
}

void Structure(const ProbeInput& in, std::vector<Metric>* out) {
  trace::Span span("probe.structure", 0);
  const phtree::PhTreeStats st = in.tree->ComputeStats();
  const double nodes = static_cast<double>(std::max<size_t>(st.n_nodes, 1));
  const double entries = static_cast<double>(std::max<size_t>(st.n_entries, 1));
  out->push_back({"phtree.avg_node_depth",
                  static_cast<double>(st.sum_node_depth) / nodes, "count"});
  out->push_back({"phtree.entries_per_node",
                  static_cast<double>(st.n_entries) / nodes, "count"});
  out->push_back({"node.hc_frac", static_cast<double>(st.n_hc_nodes) / nodes,
                  "ratio"});
  out->push_back({"node.lhc_frac", static_cast<double>(st.n_lhc_nodes) / nodes,
                  "ratio"});
  out->push_back({"node.bhc_frac", static_cast<double>(st.n_bhc_nodes) / nodes,
                  "ratio"});
  out->push_back({"arena.slab_bytes_per_entry",
                  static_cast<double>(st.arena_slab_bytes) / entries, "B"});
  out->push_back(
      {"arena.freelist_frac",
       static_cast<double>(st.arena_freelist_bytes) /
           static_cast<double>(std::max<uint64_t>(st.arena_slab_bytes, 1)),
       "ratio"});
}

/// WAL append and replay, snapshot serialise / write / load, and recovery
/// from both, all through MemVfs.
void Durability(const ProbeInput& in, std::vector<Metric>* out,
                Checker* check) {
  trace::Span span("probe.durability", 0);
  MemVfs vfs;
  phtree::ScopedVfs use_vfs(&vfs);
  const char* wal_path = "/probe/log.wal";
  const char* snap_path = "/probe/tree.snapshot";
  const PhTree& tree = *in.tree;
  const uint32_t dim = in.dim;
  const size_t n = in.ladder_keys.size() / dim;

  phtree::WalOptions options;
  options.sync_every_n = 0;
  auto opened = phtree::WalWriter::Open(wal_path, dim, true, options);
  if (!opened) {
    check->Fail("probe: cannot open WAL: " + opened.error().ToString());
    return;
  }
  phtree::WalWriter wal = std::move(*opened);
  LatencyHistogram append;
  bool io_ok = true;
  for (size_t i = 0; i < n; ++i) {
    const auto t0 = Clock::now();
    io_ok &= wal.AppendInsert(Row(in.ladder_keys, i, dim), i).ok();
    if ((i + 1) % kSyncEvery == 0) {
      io_ok &= wal.Sync().ok();
    }
    append.Record(SampleNs(t0, Clock::now()));
  }
  io_ok &= wal.Close().ok();
  const double user_bytes = static_cast<double>(n) * (dim * 8 + 8);
  const double wal_bytes = static_cast<double>(vfs.FileSize(wal_path));

  std::vector<uint8_t> log(static_cast<size_t>(wal_bytes));
  {
    const int fd = vfs.Open(wal_path, 0, 0);
    io_ok &= fd >= 0 && vfs.Read(fd, log.data(), log.size()) ==
                            static_cast<ssize_t>(log.size());
    vfs.Close(fd);
  }
  PhTree replayed(dim);
  auto t0 = Clock::now();
  const auto replay = phtree::ReplayWal(log, &replayed);
  const double replay_s = SecondsSince(t0);
  check->Expect(replay && replay->records_applied == n && replayed.size() == n,
                "probe: WAL replay did not apply every record");

  t0 = Clock::now();
  double serialize_s = 0;
  double write_s = 0;
  double load_s = 0;
  size_t snapshot_bytes = 0;
  {  // scoped: the stream and the loaded copy are freed before recovery
    std::vector<uint8_t> bytes = phtree::SerializePhTree(tree);
    serialize_s = SecondsSince(t0);
    snapshot_bytes = bytes.size();
    t0 = Clock::now();
    io_ok &= phtree::WriteSnapshotFileOr(bytes, snap_path).ok();
    write_s = SecondsSince(t0);
    t0 = Clock::now();
    auto loaded = phtree::DeserializePhTreeOr(bytes);
    load_s = SecondsSince(t0);
    check->Expect(loaded && loaded->size() == tree.size(),
                  "probe: snapshot did not load back to the same size");
  }
  size_t expected = tree.size();
  for (size_t i = 0; i < n; ++i) {
    expected += tree.Find(Row(in.ladder_keys, i, dim)).has_value() ? 0 : 1;
  }
  t0 = Clock::now();
  auto recovered = phtree::RecoverPhTree(snap_path, wal_path);
  const double recover_s = SecondsSince(t0);
  check->Expect(recovered && recovered->size() == expected,
                "probe: snapshot + WAL recovery has the wrong size");
  check->Expect(io_ok, "probe: WAL or snapshot I/O failed");

  out->push_back({"wal.append_p50_us", P50Us(append), "us"});
  out->push_back({"wal.bytes_per_user_byte", wal_bytes / user_bytes, "ratio"});
  out->push_back({"wal.replay_s", replay_s, "s"});
  out->push_back({"serialize.checkpoint_s", serialize_s, "s"});
  out->push_back({"serialize.snapshot_write_s", write_s, "s"});
  out->push_back({"serialize.snapshot_bytes_per_entry",
                  static_cast<double>(snapshot_bytes) /
                      static_cast<double>(std::max<size_t>(tree.size(), 1)),
                  "B"});
  out->push_back({"serialize.load_s", load_s, "s"});
  out->push_back({"serialize.recover_s", recover_s, "s"});
}

}  // namespace

void RunProbes(const ProbeInput& in, std::vector<Metric>* out,
               Checker* check) {
  Lookups(in, out, check);
  Scans(in, out, check);
  Structure(in, out);
  Durability(in, out, check);
  Ladder(in, out, check);
}

}  // namespace phbench
