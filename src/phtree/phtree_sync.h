// Thread-safe PH-tree (paper Sect. 5, third outlook item: "the fact that at
// most two nodes are modified with each update makes the PH-tree suitable
// for concurrent access and updates").
//
// PhTreeSync is PhTreeSharded with exactly one shard: one MVCC tree, one
// writer mutex, lock-free epoch-guarded reads (see sharded.h). The one-shard
// case skips routing, starts no thread-pool threads, saves by serialising
// the tree under its writer mutex, and loads by swapping the loaded tree in.
#ifndef PHTREE_PHTREE_PHTREE_SYNC_H_
#define PHTREE_PHTREE_PHTREE_SYNC_H_

#include <cstdint>

#include "phtree/sharded.h"

namespace phtree {

/// Thread-safe facade over one PhTree with wait-free reads. All methods are
/// safe to call from any number of threads concurrently.
class PhTreeSync : public PhTreeSharded {
 public:
  explicit PhTreeSync(uint32_t dim, const PhTreeConfig& config = PhTreeConfig{})
      : PhTreeSharded(dim, 1, ShardRouting::kZPrefix, config) {}
};

}  // namespace phtree

#endif  // PHTREE_PHTREE_PHTREE_SYNC_H_
