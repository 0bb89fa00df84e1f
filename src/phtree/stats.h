// Structural statistics of a PH-tree, used by the space experiments
// (paper Tables 1-3, Figs. 10/14/15) and by tests.
#ifndef PHTREE_PHTREE_STATS_H_
#define PHTREE_PHTREE_STATS_H_

#include <cstddef>
#include <cstdint>

namespace phtree {

struct PhTreeStats {
  /// Number of stored entries.
  size_t n_entries = 0;
  /// Total number of nodes (paper Table 3).
  size_t n_nodes = 0;
  /// Always 0: the dense HC layout is retired (DESIGN.md §2). Kept, with
  /// hc_node_bytes, only because phbench's `node.hc_frac` reads it.
  size_t n_hc_nodes = 0;
  /// Nodes currently in LHC (linearised) representation.
  size_t n_lhc_nodes = 0;
  /// Nodes currently in BHC (presence bitmap) representation.
  size_t n_bhc_nodes = 0;
  /// Exact measured bytes per representation; lhc_node_bytes and
  /// bhc_node_bytes sum to memory_bytes, and hc_node_bytes is always 0.
  uint64_t hc_node_bytes = 0;
  uint64_t lhc_node_bytes = 0;
  uint64_t bhc_node_bytes = 0;
  /// Total bytes of the structure (paper Tables 1-2, "bytes per entry" =
  /// memory_bytes / n_entries). *Measured*: the sum of the granted arena
  /// blocks of all reachable nodes (one per node, header and bit stream),
  /// equal to arena_live_bytes minus arena_retired_bytes.
  uint64_t memory_bytes = 0;
  /// Exact bytes the tree's arena reserved from the system: slabs and
  /// large blocks.
  uint64_t arena_slab_bytes = 0;
  /// Exact bytes in use by live nodes (their blocks).
  uint64_t arena_live_bytes = 0;
  /// Exact recyclable bytes parked in the arena freelists.
  uint64_t arena_freelist_bytes = 0;
  /// Bytes held by retired-but-not-yet-reclaimed nodes (MVCC mode:
  /// unlinked by a copy-on-write publication, awaiting their epoch grace
  /// period). Invariant: memory_bytes + arena_retired_bytes ==
  /// arena_live_bytes. Zero outside MVCC mode.
  uint64_t arena_retired_bytes = 0;
  /// Number of retired-but-not-yet-reclaimed nodes (MVCC mode).
  size_t arena_retired_nodes = 0;
  /// Total nodes whose deferred free completed (cumulative, MVCC mode).
  uint64_t arena_reclaimed_nodes = 0;
  /// Current epoch of the attached EpochManager (0 = no MVCC).
  uint64_t epoch = 0;
  /// Maximum node depth (paper: bounded by w = 64).
  size_t max_depth = 0;
  /// Sum of the depths of all nodes (for average depth).
  size_t sum_node_depth = 0;
  /// Total infix bits stored across all nodes (prefix-sharing volume).
  uint64_t infix_bits = 0;
  /// Total postfix entry count across all nodes (== n_entries).
  size_t n_postfix_entries = 0;

  /// Field-by-field equality (every field, so an aggregate that drops one
  /// is caught).
  friend bool operator==(const PhTreeStats&, const PhTreeStats&) = default;

  double BytesPerEntry() const {
    return n_entries == 0 ? 0.0
                          : static_cast<double>(memory_bytes) /
                                static_cast<double>(n_entries);
  }
  double EntryToNodeRatio() const {
    return n_nodes == 0 ? 0.0
                        : static_cast<double>(n_entries) /
                              static_cast<double>(n_nodes);
  }
};

}  // namespace phtree

#endif  // PHTREE_PHTREE_STATS_H_
