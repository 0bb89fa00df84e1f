// Bottom-up construction of a PH-tree from entries in z-order. A tree's
// shape is a pure function of its entries (DESIGN.md invariant 5), so a
// stream arriving in z-order fixes each node as soon as the stream leaves
// the node's region. ZOrderBuilder keeps the open rightmost path on a
// stack and writes every node exactly once, when it closes: in the
// representation the switching rule gives its final occupancy, in a block
// of exactly its BlockWords() (Node::TryBuild). The result equals the tree
// repeated Insert would build, node for node.
//
// Nothing is reachable from the tree until Finish publishes the root with
// one release store, so a lock-free reader of a live MVCC tree sees the
// whole batch or none of it.
//
// Callers: PhTree::BulkLoad into an empty tree, snapshot load
// (DeserializePhTreeOr, and through it LoadPhTreeOr and RecoverPhTree),
// and PhTreeSharded's BulkLoad (each empty shard) and Load.
#ifndef PHTREE_PHTREE_BUILDER_H_
#define PHTREE_PHTREE_BUILDER_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "phtree/node.h"
#include "phtree/phtree.h"

namespace phtree {

class ZOrderBuilder {
 public:
  enum class AddResult : uint8_t {
    kAdded,
    kDuplicate,   ///< equal to the previous key; not added
    kOutOfOrder,  ///< z-before the previous key; not added
  };

  /// Builds into `tree`, which must be empty and must not be modified
  /// until Finish has returned or the builder is destroyed.
  explicit ZOrderBuilder(PhTree* tree);
  /// Frees every node built so far unless Finish published them: the tree
  /// is left empty, with its arena as it was before the builder.
  ~ZOrderBuilder();
  ZOrderBuilder(const ZOrderBuilder&) = delete;
  ZOrderBuilder& operator=(const ZOrderBuilder&) = delete;

  /// Appends the next entry, which must be z-after the previous one. Writes
  /// every node the stream has left. Throws std::bad_alloc if a node cannot
  /// be allocated (the destructor then frees what was built).
  AddResult Add(std::span<const uint64_t> key, uint64_t value);

  /// Writes the open path and publishes the root and the size. Throws
  /// std::bad_alloc like Add; nothing is published then.
  void Finish();

  /// Entries added so far.
  size_t size() const { return count_; }

 private:
  /// A node of the rightmost path: its bit level and where its finished
  /// entries start in entries_.
  struct OpenNode {
    uint32_t postfix_len;
    size_t first;
  };

  /// Appends `group` (the entry holding prev_) to the top node's entries,
  /// at prev_'s address at bit `postfix_len`.
  void Push(const NodeEntry& group, uint32_t postfix_len);
  /// Appends `group` to the top node, writes the node under a parent at
  /// bit `parent_len`, pops it and returns its sub entry.
  NodeEntry CloseTop(const NodeEntry& group, uint32_t parent_len);
  void FreeSubtree(NodeHandle handle);

  PhTree* tree_;
  uint32_t dim_;
  bool store_values_;
  std::vector<OpenNode> open_;  // root first
  /// The finished entries of the open nodes, each node's a tail segment,
  /// and, dim words per entry, the keys their postfix records come from.
  std::vector<NodeEntry> entries_;
  std::vector<uint64_t> keys_;
  /// The last key added: it belongs to every open node and is the one
  /// entry not yet placed.
  std::vector<uint64_t> prev_;
  uint64_t prev_value_ = 0;
  size_t count_ = 0;
  bool finished_ = false;
};

/// The stable z-order permutation of the rows of `keys` (`dim` words per
/// row): row order[i] is the i-th in z-order, and equal rows keep their
/// input order. Sorts a one-word z-sample per row (the interleaved bits
/// from the highest bit any two rows differ in downward) and finishes the
/// rare runs of equal samples with the full comparison.
std::vector<size_t> ZOrderPermutation(std::span<const uint64_t> keys,
                                      uint32_t dim);

/// Fills the empty `tree` with the rows of `keys` (dim words each) and
/// `values`, fed to the builder in `order`, a stable z-order permutation
/// of the rows (ZOrderPermutation's): of equal keys the first wins.
/// Returns the number of entries stored. All or nothing: on
/// std::bad_alloc the tree is still empty.
size_t BuildFromRows(PhTree* tree, std::span<const uint64_t> keys,
                     std::span<const uint64_t> values,
                     std::span<const size_t> order);

}  // namespace phtree

#endif  // PHTREE_PHTREE_BUILDER_H_
