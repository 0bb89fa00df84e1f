// Model-based differential runner: replays one command stream against the
// ReferenceModel oracle and every tree variant of the repository at once —
// PhTree, PhTreeSharded (one shard, i.e. PhTreeSync, plus several shard
// counts in both routing modes), KD1, KD2 and CB1 — asserting identical observable results after
// every operation, with periodic full-content comparison and the deepened
// structural validator (ValidatePhTreeDeep) on every PH-tree involved.
//
// This is the machine-checked form of the paper's Sect. 4 claim that all
// index variants answer the same workload with the same result sets; every
// future performance PR regresses against it (tests/differential_test.cc
// for the tier-1 bounded run, fuzz/diff_soak for the >= 1M-op soak, and
// fuzz/fuzz_ops for coverage-guided byte streams through the same runner).
#ifndef PHTREE_TESTLIB_DIFFERENTIAL_H_
#define PHTREE_TESTLIB_DIFFERENTIAL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "testlib/commands.h"

namespace phtree {
namespace testlib {

/// What to replay and against which variants.
struct DiffOptions {
  /// Workload shape (dim, grid, op weights). dim/grid_bits live here.
  CommandOptions commands;
  uint64_t seed = 1;
  size_t ops = 10000;

  /// Every `validate_every` ops (and once at the end): full content
  /// comparison of every variant against the oracle plus
  /// ValidatePhTreeDeep on every PH-tree (each shard separately, with a
  /// shard-routing ownership check). 0 disables the periodic audits (the
  /// final one always runs).
  size_t validate_every = 2000;

  /// Include the double-keyed baselines KD1 / KD2 / CB1.
  bool include_baselines = true;
  /// Include the PhTreeSharded configurations: one z-prefix shard (the
  /// PhTreeSync configuration) plus `shard_counts` in both routing modes.
  bool include_concurrent = true;
  /// Shard counts instantiated per routing mode (powers of two).
  std::vector<uint32_t> shard_counts = {2, 8};

  /// Directory for the file-based snapshot round-trips (PhTreeSharded
  /// Save+Load). Empty: those variants skip kSaveLoad; the
  /// plain PhTree always round-trips in memory through
  /// SerializePhTree / DeserializePhTreeOr (paranoid options).
  std::string tmp_dir;

  /// Random allocation-fault injection: when fault_every_n > 0 the runner
  /// installs a process-wide FaultInjector armed to fail roughly one in
  /// `fault_every_n` allocation-site hits (seeded by fault_seed). Every
  /// std::bad_alloc a mutation throws is caught, counted, and the op is
  /// retried with injection suspended — the commit-or-rollback contract
  /// (phtree.h OpStatus) makes the retry equivalent to a clean first run,
  /// so the oracle comparison doubles as a rollback check. Fault mode
  /// keeps every variant, sharded ones included, decomposes kBulkLoad
  /// into per-entry inserts (so the newly-inserted count stays exact
  /// across retries, and no faulted mutation runs on a pool thread), and
  /// suspends injection during snapshot round-trips and audits (those
  /// paths are covered by the dedicated crash-point tests instead).
  uint64_t fault_seed = 0;
  uint64_t fault_every_n = 0;

  /// Concurrent mode: when > 0 the runner changes shape entirely. The
  /// calling thread becomes the single writer, replaying the command
  /// stream against one PhTreeSync with exact per-op oracle comparison
  /// (valid because nothing else mutates), while `reader_threads` threads
  /// hammer the same tree through the lock-free read path with
  /// find/window/kNN/page probes, checking the invariants that survive
  /// churn: window results in-box and strictly z-ordered, kNN distances
  /// ascending, page sizes bounded. Every `validate_every` ops the writer
  /// parks and every reader performs one exact size + full-content audit
  /// of the quiesced tree against a published oracle snapshot (tagged
  /// with the reclamation epoch it ran in). Reader probe counts land in
  /// DiffReport::replayed. Ignores include_baselines /
  /// include_concurrent / shard_counts; mutually exclusive with fault
  /// injection (reader threads have no bad_alloc handler) — fault_every_n
  /// is ignored when reader_threads > 0.
  size_t reader_threads = 0;
};

/// Outcome of a differential run.
struct DiffReport {
  size_t ops_run = 0;      ///< commands consumed from the source
  size_t replayed = 0;     ///< op applications summed over all variants
  size_t variants = 0;     ///< tree configurations replayed against
  size_t max_size = 0;     ///< largest oracle size observed
  size_t final_size = 0;   ///< oracle size at the end
  /// Injected allocation failures survived (fault mode only): each one was
  /// a bad_alloc whose rollback the subsequent retry + comparisons vetted.
  size_t injected_failures = 0;
  /// kBulkLoad commands applied to an empty tree (the z-order builder
  /// path; fault mode decomposes bulk loads into inserts instead).
  size_t bulk_loads_into_empty = 0;
  /// kSaveLoad commands applied (snapshot write + builder-based load).
  size_t save_loads = 0;
  /// Empty = zero divergence. Otherwise a description of the first
  /// divergence: op index, op kind, variant name, expected vs actual.
  std::string divergence;

  bool ok() const { return divergence.empty(); }
};

/// Replays `opts.ops` commands from a seeded RandomCommandSource.
DiffReport RunDifferential(const DiffOptions& opts);

/// Replays an arbitrary source (the fuzz_ops entry point) until it is
/// exhausted or `opts.ops` commands ran, whichever comes first.
DiffReport RunDifferential(const DiffOptions& opts, CommandSource& source);

}  // namespace testlib
}  // namespace phtree

#endif  // PHTREE_TESTLIB_DIFFERENTIAL_H_
