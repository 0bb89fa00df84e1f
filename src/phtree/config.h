// Per-tree configuration of the PH-tree. Node representation is not
// configurable: every node uses whichever of LHC and BHC needs the
// fewest bits for its current occupancy (paper Sect. 3.2, Node::PickRepr),
// so a tree's shape is a pure function of its content.
#ifndef PHTREE_PHTREE_CONFIG_H_
#define PHTREE_PHTREE_CONFIG_H_

namespace phtree {

/// Per-tree configuration.
struct PhTreeConfig {
  /// When false, the tree stores keys only (a point *set*, like the paper's
  /// reference implementation, whose entries are "sets of values" with no
  /// payload): postfix entries get no 64-bit payload slot, only sub-node
  /// pointers are kept, and Find() returns 0 for present keys. Cuts 8+
  /// bytes per entry (see bench/table1_space, row "PH(set)").
  bool store_values = true;
};

}  // namespace phtree

#endif  // PHTREE_PHTREE_CONFIG_H_
