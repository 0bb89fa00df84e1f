// Structural invariant checker for the PH-tree, used by tests, the
// differential harness (src/testlib) and debugging.
#ifndef PHTREE_PHTREE_VALIDATE_H_
#define PHTREE_PHTREE_VALIDATE_H_

#include <string>

#include "phtree/phtree.h"

namespace phtree {

/// Walks the whole tree and verifies its structural invariants:
///  1. every non-root node has >= 2 entries (and never more than 2^k),
///  2. parent.postfix_len == child.infix_len + 1 + child.postfix_len,
///  3. node entry counts and sub-node counts match the stored tables,
///  4. LHC address tables are strictly sorted,
///  5. the total number of postfix entries equals tree.size(),
///  6. every node holds the smallest legal representation (ties going to
///     LHC, then BHC, then HC; BHC only without sub-nodes; HC and BHC only
///     up to kMaxHcDim dimensions),
///  7. every reachable node is owned by the tree's arena, the arena's live
///     node count equals the reachable node count, and its live-byte meter
///     equals the sum of per-node exact sizes.
/// Returns an empty string if all invariants hold, else a description of the
/// first violation.
std::string ValidatePhTree(const PhTree& tree);

/// Everything ValidatePhTree checks, plus:
///  - the prefix-consistency audit: keys are reconstructed along every
///    root-to-postfix path and must come out in strictly ascending z-order
///    (a corrupted infix, address table or postfix record breaks the
///    ordering or the self-lookup);
///  - the self-lookup: a point query finds every reconstructed key with
///    its enumerated payload, so the enumeration and lookup views of the
///    same node bits agree;
///  - the block-ownership audit: every reachable and retired node's handle
///    names exactly the block its contents are granted, a block of 8 words
///    or fewer sits inside one 64-byte line, and all those blocks are
///    pairwise disjoint and sum to the arena's live bytes (no block owned
///    twice);
///  - the stats cross-check: ComputeStats() against the walk (node, entry
///    and per-representation counts, depths, infix bits, memory bytes) and
///    the arena meters against PhTreeStats, plus the accounting identity
///    slab >= live + freelist.
/// This is the validator the differential runner and the fuzz targets
/// call; it is O(n * w * k) instead of O(nodes).
std::string ValidatePhTreeDeep(const PhTree& tree);

}  // namespace phtree

#endif  // PHTREE_PHTREE_VALIDATE_H_
