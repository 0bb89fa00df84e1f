#include "phtree/validate.h"

#include <algorithm>
#include <cstdint>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "common/bits.h"
#include "phtree/arena.h"
#include "phtree/cursor.h"
#include "phtree/node.h"
#include "phtree/stats.h"

namespace phtree {

/// The validator's window into PhTree internals: the root's handle, which
/// the block-ownership audit needs next to every child handle.
class PhTreeValidator {
 public:
  static NodeRef Root(const PhTree& tree) { return tree.root_; }
};

namespace {

/// One arena block the deep audit accounts for: a reachable, a retired or
/// a free one.
struct BlockSpan {
  uintptr_t addr;
  uint64_t bytes;
};

struct ValidateState {
  const PhTree* tree;
  bool deep = false;  // false = structural only
  size_t postfix_entries = 0;
  size_t nodes = 0;
  size_t lhc_nodes = 0;
  size_t bhc_nodes = 0;
  uint64_t node_bytes = 0;
  // Independently measured bytes per representation; their sum must equal
  // node_bytes and the arena's live-byte meter.
  uint64_t lhc_bytes = 0;
  uint64_t bhc_bytes = 0;
  uint64_t infix_bits = 0;
  size_t max_depth = 0;
  size_t sum_node_depth = 0;
  // Deep mode: the key bits accumulated along the current root-to-node path
  // (address bits + infixes), and the previously emitted full key.
  PhKey path;
  PhKey prev_key;
  bool have_prev = false;
  // Deep mode: a full-tree cursor advanced in lock-step with the recursive
  // walk, cross-checking the unified traversal engine (enumeration order,
  // suspend-free full scans) against the independent reconstruction here.
  TreeCursor walker;
  // Deep mode: every reachable node's block, for the ownership audit.
  std::vector<BlockSpan> blocks;
  std::ostringstream error;
  bool failed = false;

  void Fail(const std::string& msg) {
    if (!failed) {
      error << msg;
      failed = true;
    }
  }
};

/// Deep-mode block checks of one node: the block touches no more 64-byte
/// lines than its size needs (counted here from its address, apart from
/// the pool's SlabWordPool::FitsLines), and its handle names exactly the
/// block its contents are granted.
std::string CheckBlock(const NodeArena& arena, NodeRef ref) {
  constexpr uint64_t kLineBytes = SlabWordPool::kLineWords * sizeof(uint64_t);
  const uintptr_t first = reinterpret_cast<uintptr_t>(ref.ptr);
  const uint64_t bytes = ref.ptr->MemoryBytes();
  const uint64_t lines_touched =
      (first + bytes - 1) / kLineBytes - first / kLineBytes + 1;
  if (lines_touched != (bytes + kLineBytes - 1) / kLineBytes) {
    return "node block touches more cache lines than its size needs";
  }
  if (!arena.IsGrantedBlock(ref)) {
    return "node block is not exactly its grant";
  }
  return std::string();
}

void ValidateNode(NodeRef ref, const Node* parent, size_t depth,
                  ValidateState* state) {
  if (state->failed) {
    return;
  }
  const Node* node = ref.ptr;
  std::ostringstream ctx;
  ctx << "node(pl=" << node->postfix_len() << ",il=" << node->infix_len()
      << ",n=" << node->num_entries() << "): ";

  ++state->nodes;
  const uint64_t node_bytes = node->MemoryBytes();
  state->node_bytes += node_bytes;
  state->infix_bits +=
      static_cast<uint64_t>(node->infix_len()) * node->dim();
  // Depth convention matches StatsRec: the root counts as depth 1.
  state->max_depth = std::max(state->max_depth, depth + 1);
  state->sum_node_depth += depth + 1;
  switch (node->repr()) {
    case Node::Repr::kBhc:
      ++state->bhc_nodes;
      state->bhc_bytes += node_bytes;
      break;
    case Node::Repr::kLhc:
      ++state->lhc_nodes;
      state->lhc_bytes += node_bytes;
      break;
  }
  // Arena ownership: every reachable node must have been carved out of the
  // tree's own arena (a foreign or stale pointer here means a splice or
  // move transferred a node across trees).
  if (!state->tree->arena()->Owns(node)) {
    state->Fail(ctx.str() + "node not owned by the tree's arena");
    return;
  }
  if (state->deep) {
    const std::string block = CheckBlock(*state->tree->arena(), ref);
    if (!block.empty()) {
      state->Fail(ctx.str() + block);
      return;
    }
    state->blocks.push_back(
        BlockSpan{reinterpret_cast<uintptr_t>(node), node_bytes});
  }
  if (parent != nullptr && node->num_entries() < 2) {
    state->Fail(ctx.str() + "non-root node with < 2 entries");
    return;
  }
  if (node->dim() < 64 &&
      node->num_entries() > (uint64_t{1} << node->dim())) {
    state->Fail(ctx.str() + "more entries than hypercube slots");
    return;
  }
  if (parent != nullptr &&
      parent->postfix_len() !=
          node->infix_len() + 1 + node->postfix_len()) {
    state->Fail(ctx.str() + "parent/child postfix_len mismatch");
    return;
  }
  if (node->dim() != state->tree->dim()) {
    state->Fail(ctx.str() + "dimension mismatch");
    return;
  }

  uint32_t entries = 0;
  uint32_t subs = 0;
  uint64_t prev_addr = 0;
  bool first = true;
  // The walk decodes each entry through the ordinal accessors, not
  // through NodeCursor's batches and running ranks, so the lock-step check
  // below compares two independent decoders.
  for (uint64_t ord = node->FirstOrdinal(); ord != Node::kNoOrdinal;
       ord = node->NextOrdinal(ord)) {
    const uint64_t addr = node->OrdinalAddr(ord);
    if (!first && addr <= prev_addr) {
      state->Fail(ctx.str() + "addresses not strictly ascending");
      return;
    }
    if (addr >= (uint64_t{1} << node->dim())) {
      state->Fail(ctx.str() + "address out of range");
      return;
    }
    first = false;
    prev_addr = addr;
    ++entries;
    if (state->deep) {
      // Like TreeCursor, the walk keeps one shared key buffer:
      // entries rewrite exactly the bits at or below this node's level, so
      // bits above stay the accumulated prefix.
      ApplyHcAddress(addr, node->postfix_len(), state->path);
    }
    if (node->OrdinalIsSub(ord)) {
      ++subs;
      const NodeHandle ch = node->OrdinalSub(ord);
      const NodeRef child{
          const_cast<Node*>(state->tree->arena()->NodeAt(ch)), ch};
      if (state->deep) {
        child.ptr->ReadInfixInto(state->path);
      }
      ValidateNode(child, node, depth + 1, state);
      if (state->failed) {
        return;
      }
    } else {
      ++state->postfix_entries;
      if (state->deep) {
        node->ReadPostfixInto(ord, state->path);
        // Prefix consistency: enumerating the tree in address order must
        // produce the reconstructed keys in strictly ascending z-order.
        // Any corrupted infix, address or postfix record either breaks
        // this monotonicity or the self-lookup below.
        if (state->have_prev &&
            !ZOrderLess(state->prev_key, state->path)) {
          state->Fail(ctx.str() +
                      "reconstructed keys not strictly z-ascending");
          return;
        }
        state->prev_key = state->path;
        state->have_prev = true;
        // Lock-step engine cross-check: the TreeCursor full scan must
        // deliver exactly this entry now.
        if (!state->walker.Valid()) {
          state->Fail(ctx.str() +
                      "tree cursor exhausted before the recursive walk");
          return;
        }
        const std::span<const uint64_t> wkey = state->walker.key();
        if (!std::equal(wkey.begin(), wkey.end(), state->path.begin(),
                        state->path.end())) {
          state->Fail(ctx.str() +
                      "tree cursor key != recursively reconstructed key");
          return;
        }
        if (state->walker.value() != node->OrdinalPayload(ord)) {
          state->Fail(ctx.str() +
                      "tree cursor payload != enumerated payload");
          return;
        }
        state->walker.Next();
        const std::optional<uint64_t> found = state->tree->Find(state->path);
        if (!found.has_value()) {
          state->Fail(ctx.str() +
                      "reconstructed key not found by point query");
          return;
        }
        if (*found != node->OrdinalPayload(ord)) {
          state->Fail(ctx.str() +
                      "point query payload != enumerated payload");
          return;
        }
      }
    }
  }
  if (entries != node->num_entries() || subs != node->num_subs()) {
    state->Fail(ctx.str() + "entry/sub counts inconsistent with tables");
    return;
  }

  // The switching rule, re-derived from the size functions rather than
  // by calling Node::PickRepr, so the check stays independent of it: the
  // node holds the smaller of LHC and BHC, ties going to LHC. BHC is legal
  // only for sub-free nodes up to kMaxHcDim.
  if (node->is_bhc() && node->num_subs() != 0) {
    state->Fail(ctx.str() + "BHC node holds sub-node entries");
    return;
  }
  const bool bhc_legal = node->dim() <= kMaxHcDim && node->num_subs() == 0;
  const Node::Repr best =
      bhc_legal && node->ReprBits(Node::Repr::kBhc) <
                       node->ReprBits(Node::Repr::kLhc)
          ? Node::Repr::kBhc
          : Node::Repr::kLhc;
  if (node->repr() != best) {
    state->Fail(ctx.str() + "representation is not the smallest legal one");
  }
}

std::string Validate(const PhTree& tree, bool deep) {
  ValidateState state;
  state.tree = &tree;
  state.deep = deep;
  if (deep) {
    state.path.assign(tree.dim(), 0);
    state.walker = TreeCursor(tree);
  }
  if (tree.root() != nullptr) {
    if (tree.root()->infix_len() != 0) {
      return "root node has a non-empty infix";
    }
    if (tree.root()->postfix_len() != kBitWidth - 1) {
      return "root node postfix_len != 63";
    }
    ValidateNode(PhTreeValidator::Root(tree), nullptr, 0, &state);
  }
  if (state.failed) {
    return state.error.str();
  }
  if (deep && state.walker.Valid()) {
    return "tree cursor enumerates more entries than the recursive walk";
  }
  if (state.postfix_entries != tree.size()) {
    std::ostringstream os;
    os << "postfix entry count " << state.postfix_entries
       << " != tree size " << tree.size();
    return os.str();
  }
  // Arena bookkeeping invariants: the arena must account exactly the
  // reachable nodes (no leaked, no double-freed slots), and its live-byte
  // meter must equal the sum of per-node exact sizes. In MVCC mode, nodes
  // unlinked by a copy-on-write publication stay in the arena's accounting
  // until their epoch grace period expires, so the reachable side of each
  // cross-check carries the retired queue.
  const NodeArena* arena = tree.arena();
  if (arena != nullptr &&
      arena->live_nodes() != state.nodes + arena->retired_nodes()) {
    std::ostringstream os;
    os << "arena live node count " << arena->live_nodes()
       << " != reachable node count " << state.nodes << " + retired "
       << arena->retired_nodes();
    return os.str();
  }
  if (state.lhc_bytes + state.bhc_bytes != state.node_bytes) {
    std::ostringstream os;
    os << "per-representation byte sums " << state.lhc_bytes << "+"
       << state.bhc_bytes << " != total node bytes " << state.node_bytes;
    return os.str();
  }
  if (arena != nullptr &&
      arena->LiveBytes() !=
          state.lhc_bytes + state.bhc_bytes + arena->RetiredBytes()) {
    std::ostringstream os;
    os << "arena live bytes " << arena->LiveBytes()
       << " != measured LHC+BHC node bytes "
       << state.lhc_bytes + state.bhc_bytes << " + retired bytes "
       << arena->RetiredBytes();
    return os.str();
  }

  if (deep && arena != nullptr) {
    // Block ownership: reachable and retired blocks are exactly the bytes
    // the allocator counts as handed out, and the freelists hold exactly
    // the bytes it counts as free. All those blocks must be pairwise
    // disjoint: a block named twice (two parents, a parent and the retire
    // queue, a node and a freelist) overlaps itself.
    std::string retired_error;
    arena->ForEachRetired([&](NodeRef ref, uint64_t bytes) {
      if (retired_error.empty()) {
        retired_error = CheckBlock(*arena, ref);
      }
      state.blocks.push_back(
          BlockSpan{reinterpret_cast<uintptr_t>(ref.ptr), bytes});
    });
    if (!retired_error.empty()) {
      return "retired " + retired_error;
    }
    uint64_t live_sum = 0;
    for (const BlockSpan& b : state.blocks) {
      live_sum += b.bytes;
    }
    if (live_sum != arena->LiveBytes()) {
      std::ostringstream os;
      os << "reachable + retired block bytes " << live_sum
         << " != arena live bytes " << arena->LiveBytes();
      return os.str();
    }
    const SlabWordPool& pool = arena->pool();
    uint64_t free_sum = 0;
    pool.ForEachFreeBlock([&](NodeHandle h, uint64_t words) {
      free_sum += words * sizeof(uint64_t);
      state.blocks.push_back(BlockSpan{reinterpret_cast<uintptr_t>(pool.At(h)),
                                       words * sizeof(uint64_t)});
    });
    if (free_sum != arena->FreeListBytes()) {
      std::ostringstream os;
      os << "freelist block bytes " << free_sum
         << " != arena freelist bytes " << arena->FreeListBytes();
      return os.str();
    }
    const auto by_addr = [](const BlockSpan& a, const BlockSpan& b) {
      return a.addr < b.addr;
    };
    std::sort(state.blocks.begin(), state.blocks.end(), by_addr);
    for (size_t i = 1; i < state.blocks.size(); ++i) {
      if (state.blocks[i - 1].addr + state.blocks[i - 1].bytes >
          state.blocks[i].addr) {
        return "arena blocks overlap: a block is owned twice";
      }
    }
    // The granule law: every granule the bump cursor has carved lies in
    // exactly one block, reachable, retired or free. The blocks are
    // disjoint, so it holds iff every slab block lies inside a carved run
    // and the slab blocks sum to the carved bytes. Blocks above
    // kMaxClassWords words are large blocks (CheckBlock proved each one its
    // grant), which the cursor never carves.
    std::vector<BlockSpan> carved;
    uint64_t carved_sum = 0;
    pool.ForEachCarvedRun([&](const uint64_t* run, uint64_t words) {
      carved.push_back(BlockSpan{reinterpret_cast<uintptr_t>(run),
                                 words * sizeof(uint64_t)});
      carved_sum += words * sizeof(uint64_t);
    });
    std::sort(carved.begin(), carved.end(), by_addr);
    constexpr uint64_t kMaxSlabBlockBytes =
        SlabWordPool::kMaxClassWords * sizeof(uint64_t);
    uint64_t covered = 0;
    size_t run = 0;
    for (const BlockSpan& b : state.blocks) {
      if (b.bytes > kMaxSlabBlockBytes) {
        continue;
      }
      while (run < carved.size() &&
             carved[run].addr + carved[run].bytes <= b.addr) {
        ++run;
      }
      if (run == carved.size() || b.addr < carved[run].addr ||
          b.addr + b.bytes > carved[run].addr + carved[run].bytes) {
        return "arena block outside the granules the bump cursor carved";
      }
      covered += b.bytes;
    }
    if (covered != carved_sum) {
      std::ostringstream os;
      os << "leaked granules: the bump cursor carved " << carved_sum
         << " bytes, but reachable, retired and free blocks cover "
         << covered;
      return os.str();
    }
  }

  if (deep) {
    const PhTreeStats stats = tree.ComputeStats();
    std::ostringstream os;
    if (stats.n_entries != tree.size()) {
      os << "stats n_entries " << stats.n_entries << " != size "
         << tree.size();
    } else if (stats.n_nodes != state.nodes) {
      os << "stats n_nodes " << stats.n_nodes << " != walked "
         << state.nodes;
    } else if (stats.n_hc_nodes != 0 || stats.hc_node_bytes != 0) {
      os << "stats report " << stats.n_hc_nodes << " HC nodes of "
         << stats.hc_node_bytes << " bytes; the layout is retired";
    } else if (stats.n_lhc_nodes != state.lhc_nodes ||
               stats.n_bhc_nodes != state.bhc_nodes) {
      os << "stats LHC/BHC split " << stats.n_lhc_nodes << "/"
         << stats.n_bhc_nodes << " != walked " << state.lhc_nodes << "/"
         << state.bhc_nodes;
    } else if (stats.lhc_node_bytes != state.lhc_bytes ||
               stats.bhc_node_bytes != state.bhc_bytes) {
      os << "stats per-repr bytes " << stats.lhc_node_bytes << "/"
         << stats.bhc_node_bytes << " != walked " << state.lhc_bytes << "/"
         << state.bhc_bytes;
    } else if (stats.n_postfix_entries != state.postfix_entries) {
      os << "stats n_postfix_entries " << stats.n_postfix_entries
         << " != walked " << state.postfix_entries;
    } else if (stats.memory_bytes != state.node_bytes) {
      os << "stats memory_bytes " << stats.memory_bytes
         << " != walked node byte sum " << state.node_bytes;
    } else if (stats.infix_bits != state.infix_bits) {
      os << "stats infix_bits " << stats.infix_bits << " != walked "
         << state.infix_bits;
    } else if (stats.max_depth != state.max_depth) {
      os << "stats max_depth " << stats.max_depth << " != walked "
         << state.max_depth;
    } else if (stats.sum_node_depth != state.sum_node_depth) {
      os << "stats sum_node_depth " << stats.sum_node_depth
         << " != walked " << state.sum_node_depth;
    } else if (arena != nullptr) {
      // Arena accounting cross-checks: the stats snapshot must restate the
      // arena meters exactly (the granule law above ties the meters to the
      // slabs).
      if (stats.arena_live_bytes != arena->LiveBytes()) {
        os << "stats arena_live_bytes " << stats.arena_live_bytes
           << " != arena " << arena->LiveBytes();
      } else if (stats.arena_slab_bytes != arena->SlabBytes()) {
        os << "stats arena_slab_bytes " << stats.arena_slab_bytes
           << " != arena " << arena->SlabBytes();
      } else if (stats.arena_freelist_bytes != arena->FreeListBytes()) {
        os << "stats arena_freelist_bytes " << stats.arena_freelist_bytes
           << " != arena " << arena->FreeListBytes();
      } else if (stats.arena_retired_bytes != arena->RetiredBytes()) {
        os << "stats arena_retired_bytes " << stats.arena_retired_bytes
           << " != arena " << arena->RetiredBytes();
      } else if (stats.memory_bytes + stats.arena_retired_bytes !=
                 stats.arena_live_bytes) {
        os << "reachable bytes " << stats.memory_bytes << " + retired "
           << stats.arena_retired_bytes << " != arena live bytes "
           << stats.arena_live_bytes;
      }
    }
    const std::string msg = os.str();
    if (!msg.empty()) {
      return msg;
    }
  }
  return std::string();
}

}  // namespace

std::string ValidatePhTree(const PhTree& tree) {
  return Validate(tree, /*deep=*/false);
}

std::string ValidatePhTreeDeep(const PhTree& tree) {
  return Validate(tree, /*deep=*/true);
}

}  // namespace phtree
