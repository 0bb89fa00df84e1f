// Exhaustive allocation-fault sweep: the machine-checked form of the
// commit-or-rollback contract (phtree.h OpStatus). For every mutating
// command of a seeded trace, the sweep re-runs the operation with the
// process-wide FaultInjector armed to fail the 0th, 1st, 2nd, ...
// allocation-site hit, until an arming no longer fires (the op ran out of
// allocation sites). Every injected failure must return kNoMem and leave
// the tree exactly where it was (size, lookup results, full content and the
// deep structural validator all agree with the oracle); a fired fault the
// op absorbed (a shrink's failed block trade keeps the oversized block)
// must leave the op fully applied. Only then is the op committed for real
// and the trace continues. A final builder leg fails every allocation of
// an empty-tree BulkLoad and of a snapshot load of the trace's live
// entries, before every Clear and at the end: each must throw
// std::bad_alloc and leave no node behind.
#ifndef PHTREE_TESTLIB_FAULT_SWEEP_H_
#define PHTREE_TESTLIB_FAULT_SWEEP_H_

#include <cstdint>
#include <string>

#include "testlib/commands.h"

namespace phtree {
namespace testlib {

struct FaultSweepOptions {
  /// Workload shape (dim, grid, op weights). Query kinds are skipped — the
  /// sweep targets mutations; queries allocate through no fault site.
  CommandOptions commands;
  uint64_t seed = 1;
  /// Commands drawn from the source (mutating ones are swept; the rest are
  /// skipped but still consume randomness, keeping traces comparable with
  /// the differential runner's).
  size_t ops = 2000;
  /// Safety bound on site indices probed per operation: a single mutation
  /// touches at most two nodes, so its allocation-site count is small; a
  /// sweep that keeps firing past this many indices is itself a bug.
  size_t max_sites_per_op = 4096;
  /// Full content comparison + ValidatePhTreeDeep after every injected
  /// failure is O(n) and dominates the sweep on big trees; instead the
  /// cheap invariants (size, the op key's lookup) run every time and the
  /// expensive ones every `deep_every` injections (and always at the end).
  /// 1 = always deep-check.
  size_t deep_every = 128;
  /// Run the swept tree in MVCC mode (PhTree::EnableMvcc with a private
  /// EpochManager): replaced nodes are retired instead of freed, so the
  /// sweep exercises the rollback under retirement (created nodes deleted,
  /// nothing published, nothing retired). The swept trees store values.
  bool mvcc = false;
};

struct FaultSweepReport {
  size_t ops_run = 0;            ///< mutating commands swept and applied
  size_t injected_failures = 0;  ///< kNoMem rollbacks verified
  size_t absorbed_faults = 0;    ///< fault fired but the op still applied
  size_t deep_checks = 0;        ///< full content + deep-validation passes
  /// Builder-leg failures verified: an empty-tree BulkLoad and a snapshot
  /// load of the final live entries, each failed at every allocation.
  size_t builder_failures = 0;
  /// Empty = the contract held everywhere. Otherwise the first violation:
  /// op index, op kind, site index, and what diverged.
  std::string failure;

  bool ok() const { return failure.empty(); }
};

/// Runs the sweep on a fresh PhTree (default config) against the oracle.
/// Installs a process-wide FaultInjector for the duration; not reentrant
/// with other fault-injection users.
FaultSweepReport RunFaultSweep(const FaultSweepOptions& opts);

}  // namespace testlib
}  // namespace phtree

#endif  // PHTREE_TESTLIB_FAULT_SWEEP_H_
