#include "testlib/commands.h"

#include <algorithm>
#include <cassert>

namespace phtree {
namespace testlib {
namespace {

/// Bounded pool of recently used keys shared by both sources.
constexpr size_t kRecentCap = 1024;

double GridValue(uint64_t raw, uint32_t grid_bits) {
  const uint64_t mask = LowMask(grid_bits);
  const int64_t centred = static_cast<int64_t>(raw & mask) -
                          static_cast<int64_t>((mask >> 1) + 1);
  return static_cast<double>(centred);
}

void FillPointOp(Command* cmd, OpKind kind, const PhKeyD& key,
                 uint64_t value) {
  cmd->kind = kind;
  cmd->key_d = key;
  cmd->key = EncodePoint(key);
  cmd->key2_d.clear();
  cmd->key2.clear();
  cmd->value = value;
  cmd->update_keep_value = false;
  cmd->knn_n = 0;
  cmd->page_size = 0;
  cmd->bulk.clear();
  cmd->bulk_d.clear();
  cmd->batch.clear();
  cmd->batch_d.clear();
}

void FillWindowOp(Command* cmd, OpKind kind, PhKeyD lo, PhKeyD hi) {
  cmd->kind = kind;
  cmd->key_d = std::move(lo);
  cmd->key2_d = std::move(hi);
  cmd->key = EncodePoint(cmd->key_d);
  cmd->key2 = EncodePoint(cmd->key2_d);
  cmd->value = 0;
  cmd->update_keep_value = false;
  cmd->knn_n = 0;
  cmd->page_size = 0;
  cmd->bulk.clear();
  cmd->bulk_d.clear();
  cmd->batch.clear();
  cmd->batch_d.clear();
}

/// kUpdate command: key = the old key, key2 = the new key.
void FillUpdateOp(Command* cmd, PhKeyD old_key, PhKeyD new_key,
                  bool keep_value, uint64_t value) {
  FillWindowOp(cmd, OpKind::kUpdate, std::move(old_key), std::move(new_key));
  cmd->value = value;
  cmd->update_keep_value = keep_value;
}

}  // namespace

const char* OpKindName(OpKind kind) {
  switch (kind) {
    case OpKind::kInsert: return "Insert";
    case OpKind::kInsertOrAssign: return "InsertOrAssign";
    case OpKind::kErase: return "Erase";
    case OpKind::kFind: return "Find";
    case OpKind::kWindow: return "Window";
    case OpKind::kCountWindow: return "CountWindow";
    case OpKind::kKnn: return "Knn";
    case OpKind::kClear: return "Clear";
    case OpKind::kSaveLoad: return "SaveLoad";
    case OpKind::kBulkLoad: return "BulkLoad";
    case OpKind::kWindowPage: return "WindowPage";
    case OpKind::kFindBatch: return "FindBatch";
    case OpKind::kUpdate: return "Update";
  }
  return "?";
}

RandomCommandSource::RandomCommandSource(const CommandOptions& options,
                                         uint64_t seed)
    : options_(options), rng_(seed) {
  assert(options_.dim >= 1 && options_.dim <= kMaxDims);
  assert(options_.grid_bits >= 1 && options_.grid_bits <= 32);
  total_weight_ = uint64_t{0} + options_.w_insert + options_.w_assign +
                  options_.w_erase + options_.w_find + options_.w_window +
                  options_.w_count + options_.w_knn + options_.w_clear +
                  options_.w_saveload + options_.w_bulk +
                  options_.w_window_page + options_.w_find_batch +
                  options_.w_update;
  assert(total_weight_ > 0);
  recent_.reserve(kRecentCap);
}

PhKeyD RandomCommandSource::RandomPoint() {
  PhKeyD key(options_.dim);
  for (double& v : key) {
    v = GridValue(rng_.NextU64(), options_.grid_bits);
  }
  return key;
}

PhKeyD RandomCommandSource::PickPoint() {
  if (!recent_.empty() && rng_.NextBool(options_.reuse_p)) {
    return recent_[rng_.NextBounded(recent_.size())];
  }
  return RandomPoint();
}

void RandomCommandSource::Remember(const PhKeyD& key) {
  if (recent_.size() < kRecentCap) {
    recent_.push_back(key);
  } else {
    recent_[rng_.NextBounded(kRecentCap)] = key;
  }
}

bool RandomCommandSource::Next(Command* cmd) {
  uint64_t pick = rng_.NextBounded(total_weight_);
  const auto take = [&pick](uint32_t w) {
    if (pick < w) {
      return true;
    }
    pick -= w;
    return false;
  };
  if (take(options_.w_insert)) {
    const PhKeyD key = PickPoint();
    Remember(key);
    FillPointOp(cmd, OpKind::kInsert, key, rng_.NextU64());
  } else if (take(options_.w_assign)) {
    const PhKeyD key = PickPoint();
    Remember(key);
    FillPointOp(cmd, OpKind::kInsertOrAssign, key, rng_.NextU64());
  } else if (take(options_.w_erase)) {
    FillPointOp(cmd, OpKind::kErase, PickPoint(), 0);
  } else if (take(options_.w_update)) {
    const PhKeyD old_key = PickPoint();
    PhKeyD new_key;
    if (rng_.NextBool(options_.update_nearby_p)) {
      // Moving-objects shape: perturb each coordinate by a few grid steps
      // so the move usually stays within a shared-prefix subtree (the
      // in-node move fast path). Delta 0 on every axis exercises
      // the old == new payload rewrite.
      new_key = old_key;
      for (double& v : new_key) {
        v += static_cast<double>(static_cast<int64_t>(rng_.NextBounded(5))) -
             2.0;
      }
    } else {
      new_key = PickPoint();  // arbitrary move, often cross-subtree/shard
    }
    Remember(new_key);
    FillUpdateOp(cmd, old_key, std::move(new_key),
                 rng_.NextBool(options_.update_keep_value_p), rng_.NextU64());
  } else if (take(options_.w_find)) {
    FillPointOp(cmd, OpKind::kFind, PickPoint(), 0);
  } else if (int window_sel = take(options_.w_window)        ? 1
                              : take(options_.w_count)       ? 2
                              : take(options_.w_window_page) ? 3
                                                             : 0;
             window_sel != 0) {
    const OpKind kind = window_sel == 1   ? OpKind::kWindow
                        : window_sel == 2 ? OpKind::kCountWindow
                                          : OpKind::kWindowPage;
    PhKeyD lo = PickPoint();
    PhKeyD hi;
    if (rng_.NextBool(options_.point_window_p)) {
      hi = lo;  // min == max: the point window
    } else {
      hi = RandomPoint();
      if (!rng_.NextBool(options_.degenerate_window_p)) {
        for (uint32_t d = 0; d < options_.dim; ++d) {
          if (lo[d] > hi[d]) {
            std::swap(lo[d], hi[d]);
          }
        }
      }
    }
    FillWindowOp(cmd, kind, std::move(lo), std::move(hi));
    if (kind == OpKind::kWindowPage) {
      cmd->page_size = 1 + rng_.NextBounded(options_.max_page);
    }
  } else if (take(options_.w_find_batch)) {
    FillPointOp(cmd, OpKind::kFindBatch, PhKeyD(options_.dim, 0.0), 0);
    const size_t count = 1 + rng_.NextBounded(options_.max_batch);
    cmd->batch.reserve(count);
    cmd->batch_d.reserve(count);
    for (size_t i = 0; i < count; ++i) {
      // PickPoint's reuse bias makes hits, misses and exact duplicates all
      // common; the batch stays in generation order (i.e. unsorted).
      const PhKeyD key = PickPoint();
      cmd->batch_d.push_back(key);
      cmd->batch.push_back(EncodePoint(key));
    }
  } else if (take(options_.w_knn)) {
    FillPointOp(cmd, OpKind::kKnn, PickPoint(), 0);
    cmd->knn_n = rng_.NextBounded(options_.max_knn + 1);
  } else if (take(options_.w_clear)) {
    FillPointOp(cmd, OpKind::kClear, PhKeyD(options_.dim, 0.0), 0);
  } else if (take(options_.w_saveload)) {
    FillPointOp(cmd, OpKind::kSaveLoad, PhKeyD(options_.dim, 0.0), 0);
  } else {
    FillPointOp(cmd, OpKind::kBulkLoad, PhKeyD(options_.dim, 0.0), 0);
    const size_t count = 1 + rng_.NextBounded(options_.max_bulk);
    cmd->bulk.reserve(count);
    cmd->bulk_d.reserve(count);
    for (size_t i = 0; i < count; ++i) {
      const PhKeyD key = PickPoint();
      Remember(key);
      cmd->bulk_d.push_back(key);
      cmd->bulk.push_back(PhEntry{EncodePoint(key), rng_.NextU64()});
    }
  }
  return true;
}

BytesCommandSource::BytesCommandSource(const CommandOptions& options,
                                       std::span<const uint8_t> bytes)
    : options_(options), bytes_(bytes) {
  assert(options_.dim >= 1 && options_.dim <= kMaxDims);
  assert(options_.grid_bits >= 1 && options_.grid_bits <= 32);
}

uint8_t BytesCommandSource::NextByte() {
  return pos_ < bytes_.size() ? bytes_[pos_++] : 0;
}

uint64_t BytesCommandSource::NextU32() {
  uint64_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<uint64_t>(NextByte()) << (8 * i);
  }
  return v;
}

PhKeyD BytesCommandSource::DecodePoint() {
  // One reuse byte: odd values re-target a recent key (same bias the
  // random source applies through reuse_p).
  const uint8_t reuse = NextByte();
  if ((reuse & 1) != 0 && !recent_.empty()) {
    return recent_[reuse % recent_.size()];
  }
  PhKeyD key(options_.dim);
  for (double& v : key) {
    v = GridValue(NextU32(), options_.grid_bits);
  }
  if (recent_.size() < kRecentCap) {
    recent_.push_back(key);
  }
  return key;
}

bool BytesCommandSource::Next(Command* cmd) {
  if (pos_ >= bytes_.size()) {
    return false;
  }
  switch (static_cast<OpKind>(NextByte() % kNumOpKinds)) {
    case OpKind::kInsert:
      FillPointOp(cmd, OpKind::kInsert, DecodePoint(), NextU32());
      break;
    case OpKind::kInsertOrAssign:
      FillPointOp(cmd, OpKind::kInsertOrAssign, DecodePoint(), NextU32());
      break;
    case OpKind::kErase:
      FillPointOp(cmd, OpKind::kErase, DecodePoint(), 0);
      break;
    case OpKind::kFind:
      FillPointOp(cmd, OpKind::kFind, DecodePoint(), 0);
      break;
    case OpKind::kWindow:
    case OpKind::kCountWindow: {
      const OpKind kind =
          (NextByte() & 1) != 0 ? OpKind::kCountWindow : OpKind::kWindow;
      PhKeyD lo = DecodePoint();
      PhKeyD hi = DecodePoint();
      // No per-axis sorting: the fuzzer freely produces degenerate and
      // point windows; every variant must agree on them too.
      FillWindowOp(cmd, kind, std::move(lo), std::move(hi));
      break;
    }
    case OpKind::kKnn:
      FillPointOp(cmd, OpKind::kKnn, DecodePoint(), 0);
      cmd->knn_n = NextByte() % (options_.max_knn + 1);
      break;
    case OpKind::kClear:
      FillPointOp(cmd, OpKind::kClear, PhKeyD(options_.dim, 0.0), 0);
      break;
    case OpKind::kSaveLoad:
      FillPointOp(cmd, OpKind::kSaveLoad, PhKeyD(options_.dim, 0.0), 0);
      break;
    case OpKind::kBulkLoad: {
      FillPointOp(cmd, OpKind::kBulkLoad, PhKeyD(options_.dim, 0.0), 0);
      const size_t count =
          1 + NextByte() % std::max<size_t>(options_.max_bulk, 1);
      for (size_t i = 0; i < count && pos_ < bytes_.size(); ++i) {
        const PhKeyD key = DecodePoint();
        cmd->bulk_d.push_back(key);
        cmd->bulk.push_back(PhEntry{EncodePoint(key), NextU32()});
      }
      if (cmd->bulk.empty()) {
        return false;  // bytes ran out mid-command
      }
      break;
    }
    case OpKind::kFindBatch: {
      FillPointOp(cmd, OpKind::kFindBatch, PhKeyD(options_.dim, 0.0), 0);
      const size_t count =
          1 + NextByte() % std::max<size_t>(options_.max_batch, 1);
      for (size_t i = 0; i < count && pos_ < bytes_.size(); ++i) {
        const PhKeyD key = DecodePoint();
        cmd->batch_d.push_back(key);
        cmd->batch.push_back(EncodePoint(key));
      }
      if (cmd->batch.empty()) {
        return false;  // bytes ran out mid-command
      }
      break;
    }
    case OpKind::kWindowPage: {
      PhKeyD lo = DecodePoint();
      PhKeyD hi = DecodePoint();
      // Unsorted like the other fuzz windows: degenerate and point pages
      // must drain identically everywhere too.
      FillWindowOp(cmd, OpKind::kWindowPage, std::move(lo), std::move(hi));
      cmd->page_size = 1 + NextByte() % std::max<size_t>(options_.max_page, 1);
      break;
    }
    case OpKind::kUpdate: {
      // DecodePoint's reuse byte already produces hits, misses, occupied
      // targets and exact old == new pairs; the flag byte picks keep vs
      // overwrite payload.
      PhKeyD old_key = DecodePoint();
      PhKeyD new_key = DecodePoint();
      const bool keep = (NextByte() & 1) != 0;
      FillUpdateOp(cmd, std::move(old_key), std::move(new_key), keep,
                   NextU32());
      break;
    }
  }
  return true;
}

}  // namespace testlib
}  // namespace phtree
