// Tuning knobs for the PH-tree node representation. The defaults implement
// the paper's behaviour (Sect. 3.2): per-node adaptive choice between the
// hypercube array (HC), the linearised, sorted representation (LHC), and the
// packed-leaf bitmap representation (BHC, for sub-free nodes), decided by
// comparing the exact bit sizes of all legal candidates, with an optional
// hysteresis band (the paper's "relaxed switching condition" future-work
// item) to prevent nodes from oscillating on alternating insert/delete.
#ifndef PHTREE_PHTREE_CONFIG_H_
#define PHTREE_PHTREE_CONFIG_H_

#include <cstdint>

namespace phtree {

/// Node representation policy, used by the ablation benchmarks.
enum class NodeRepr : uint8_t {
  kAdaptive,  ///< paper behaviour: pick the smallest of HC, LHC and BHC
  kLhcOnly,   ///< always use the linearised representation
  kHcOnly,    ///< use HC whenever the dimensionality permits it
  kBhcOnly,   ///< packed leaf (BHC) whenever the node is sub-free and the
              ///< dimensionality permits it; LHC otherwise
};

/// Per-tree configuration.
struct PhTreeConfig {
  /// Representation policy.
  NodeRepr repr = NodeRepr::kAdaptive;

  /// A representation switch only happens when the best other representation
  /// is smaller than `hysteresis` times the current one. The default 1.0 is
  /// the paper's strict smaller-wins rule (with the deterministic tie-break
  /// preference LHC, then BHC, then HC on equal sizes), which keeps the tree
  /// shape a pure function of the stored data. Values < 1.0 implement the
  /// "relaxed switching condition" future-work item: oscillation between
  /// representations on alternating insert/delete is damped, at the cost of
  /// history-dependent node representations (the *entries* stay identical).
  double hysteresis = 1.0;

  /// HC is never used above this dimensionality (2^k slots).
  uint32_t hc_max_dim = 20;

  /// When false, the tree stores keys only (a point *set*, like the paper's
  /// reference implementation, whose entries are "sets of values" with no
  /// payload): postfix entries get no 64-bit payload slot, only sub-node
  /// pointers are kept, and Find() returns 0 for present keys. Cuts 8+
  /// bytes per entry (see bench/table1_space, row "PH(set)").
  bool store_values = true;
};

}  // namespace phtree

#endif  // PHTREE_PHTREE_CONFIG_H_
