#include "testlib/differential.h"

#include <algorithm>
#include <atomic>
#include <limits>
#include <memory>
#include <mutex>
#include <new>
#include <optional>
#include <span>
#include <sstream>
#include <thread>

#include "common/fault.h"
#include "common/rng.h"
#include "common/simd.h"
#include "critbit/critbit1.h"
#include "kdtree/kdtree1.h"
#include "kdtree/kdtree2.h"
#include "phtree/arena.h"
#include "phtree/cursor.h"
#include "phtree/phtree.h"
#include "phtree/phtree_sync.h"
#include "phtree/serialize.h"
#include "phtree/sharded.h"
#include "phtree/validate.h"
#include "testlib/reference_model.h"

namespace phtree {
namespace testlib {
namespace {

using Entries = std::vector<std::pair<PhKey, uint64_t>>;

void SortByZ(Entries* entries) {
  std::sort(entries->begin(), entries->end(),
            [](const auto& a, const auto& b) {
              return ZOrderLess(a.first, b.first);
            });
}

/// One tree variant under differential test. Results are reported in the
/// encoded (uint64) key space regardless of the variant's native keys.
class VariantAdapter {
 public:
  virtual ~VariantAdapter() = default;

  virtual const char* name() const = 0;
  virtual size_t Size() const = 0;
  virtual bool Insert(const Command& cmd) = 0;
  /// Returns true iff the key was newly inserted.
  virtual bool InsertOrAssign(const Command& cmd) = 0;
  virtual bool Erase(const Command& cmd) = 0;
  /// Relocation per the Update contract. The default emulates it through
  /// the variant's own point ops — the composite every native Update must
  /// be observably equivalent to (and what the double-keyed baselines
  /// run). cmd.key/key_d is the old key, cmd.key2/key2_d the new one.
  virtual UpdateOutcome Update(const Command& cmd) {
    Command old_op;
    old_op.kind = OpKind::kFind;
    old_op.key = cmd.key;
    old_op.key_d = cmd.key_d;
    const std::optional<uint64_t> old_value = Find(old_op);
    if (!old_value.has_value()) {
      return UpdateOutcome::kOldMissing;
    }
    Command new_op;
    new_op.kind = OpKind::kFind;
    new_op.key = cmd.key2;
    new_op.key_d = cmd.key2_d;
    if (cmd.key != cmd.key2 && Find(new_op).has_value()) {
      return UpdateOutcome::kNewOccupied;
    }
    old_op.kind = OpKind::kErase;
    Erase(old_op);
    new_op.kind = OpKind::kInsert;
    new_op.value = cmd.update_keep_value ? *old_value : cmd.value;
    Insert(new_op);
    return UpdateOutcome::kMoved;
  }
  virtual std::optional<uint64_t> Find(const Command& cmd) const = 0;
  /// Batched point lookup: element i is Find(batch[i]). The default is the
  /// looped-Find contract every native FindBatch must be observably
  /// equivalent to (and what the double-keyed baselines run).
  virtual std::vector<std::optional<uint64_t>> FindBatch(
      const Command& cmd) const {
    std::vector<std::optional<uint64_t>> out;
    out.reserve(cmd.batch.size());
    Command one;
    one.kind = OpKind::kFind;
    for (size_t i = 0; i < cmd.batch.size(); ++i) {
      one.key = cmd.batch[i];
      one.key_d = cmd.batch_d[i];
      out.push_back(Find(one));
    }
    return out;
  }
  /// Eager window query. `ordered` reports whether the sequence is the
  /// global z-order (PH family) or an arbitrary traversal order (KD/CB).
  virtual Entries Window(const Command& cmd, bool* ordered) const = 0;
  virtual size_t CountWindow(const Command& cmd) const = 0;
  /// One page of the cursor-backed paginated window scan. nullopt =
  /// variant has no pagination (the double-keyed baselines).
  virtual std::optional<WindowPage> PageQuery(
      const Command& cmd, std::span<const uint64_t> resume_after) const {
    (void)cmd;
    (void)resume_after;
    return std::nullopt;
  }
  /// nullopt = variant has no kNN.
  virtual std::optional<std::vector<KnnResult>> Knn(
      const Command& cmd) const = 0;
  virtual void Clear() = 0;
  /// Snapshot round-trip. nullopt = unsupported (skipped); "" = success;
  /// anything else = the error. `tmp_dir` may be empty (see DiffOptions).
  virtual std::optional<std::string> SaveLoad(const std::string& tmp_dir) = 0;
  /// Returns the number of newly inserted entries.
  virtual size_t BulkLoad(const Command& cmd) = 0;
  /// Full dump, z-sorted.
  virtual Entries Content() const = 0;
  /// Deep structural validation; "" = OK, unsupported variants return "".
  virtual std::string Validate() const { return std::string(); }
};

// ---- PH family ----------------------------------------------------------

class PlainAdapter : public VariantAdapter {
 public:
  explicit PlainAdapter(uint32_t dim, const char* name = "PhTree")
      : tree_(dim), name_(name) {}

  const char* name() const override { return name_; }
  size_t Size() const override { return tree_.size(); }
  bool Insert(const Command& cmd) override {
    return tree_.Insert(cmd.key, cmd.value);
  }
  bool InsertOrAssign(const Command& cmd) override {
    return tree_.InsertOrAssign(cmd.key, cmd.value);
  }
  bool Erase(const Command& cmd) override { return tree_.Erase(cmd.key); }
  UpdateOutcome Update(const Command& cmd) override {
    return tree_.Update(cmd.key, cmd.key2,
                        cmd.update_keep_value
                            ? std::nullopt
                            : std::optional<uint64_t>(cmd.value));
  }
  std::optional<uint64_t> Find(const Command& cmd) const override {
    return tree_.Find(cmd.key);
  }
  std::vector<std::optional<uint64_t>> FindBatch(
      const Command& cmd) const override {
    return tree_.FindBatch(cmd.batch);
  }
  Entries Window(const Command& cmd, bool* ordered) const override {
    *ordered = true;
    return tree_.QueryWindow(cmd.key, cmd.key2);
  }
  size_t CountWindow(const Command& cmd) const override {
    return tree_.CountWindow(cmd.key, cmd.key2);
  }
  std::optional<WindowPage> PageQuery(
      const Command& cmd,
      std::span<const uint64_t> resume_after) const override {
    return tree_.QueryWindowPage(cmd.key, cmd.key2, cmd.page_size,
                                 resume_after);
  }
  std::optional<std::vector<KnnResult>> Knn(
      const Command& cmd) const override {
    return phtree::KnnSearch(tree_, cmd.key, cmd.knn_n,
                             KnnMetric::kL2Double);
  }
  void Clear() override { tree_.Clear(); }
  std::optional<std::string> SaveLoad(const std::string&) override {
    // In-memory round-trip through the v2 stream, paranoid load options.
    const std::vector<uint8_t> bytes = SerializePhTree(tree_);
    LoadOptions load;
    load.validate_structure = true;
    Expected<PhTree, SnapshotError> rebuilt =
        DeserializePhTreeOr(bytes, load);
    if (!rebuilt) {
      return rebuilt.error().ToString();
    }
    tree_ = std::move(*rebuilt);
    return std::string();
  }
  size_t BulkLoad(const Command& cmd) override {
    return tree_.BulkLoad(cmd.bulk);
  }
  Entries Content() const override {
    Entries out;
    out.reserve(tree_.size());
    tree_.ForEach(
        [&out](const PhKey& k, uint64_t v) { out.emplace_back(k, v); });
    return out;  // ForEach is z-ordered already
  }
  std::string Validate() const override {
    return ValidatePhTreeDeep(tree_);
  }

 protected:
  PhTree tree_;

 private:
  const char* name_;
};

/// The plain tree again, but with every operation pinned to the scalar
/// kernel twins (simd::ScopedForceScalar). Divergence between this arm and
/// the SIMD-dispatched PlainAdapter — both checked against the oracle —
/// would prove a vector kernel wrong on a real op stream, including the
/// batched lookups, window scans and rank paths the kernels accelerate.
class ScalarKernelAdapter : public PlainAdapter {
 public:
  explicit ScalarKernelAdapter(uint32_t dim)
      : PlainAdapter(dim, "PhTree/scalar") {}

  bool Insert(const Command& cmd) override {
    simd::ScopedForceScalar force(true);
    return PlainAdapter::Insert(cmd);
  }
  bool InsertOrAssign(const Command& cmd) override {
    simd::ScopedForceScalar force(true);
    return PlainAdapter::InsertOrAssign(cmd);
  }
  bool Erase(const Command& cmd) override {
    simd::ScopedForceScalar force(true);
    return PlainAdapter::Erase(cmd);
  }
  UpdateOutcome Update(const Command& cmd) override {
    simd::ScopedForceScalar force(true);
    return PlainAdapter::Update(cmd);
  }
  std::optional<uint64_t> Find(const Command& cmd) const override {
    simd::ScopedForceScalar force(true);
    return PlainAdapter::Find(cmd);
  }
  std::vector<std::optional<uint64_t>> FindBatch(
      const Command& cmd) const override {
    simd::ScopedForceScalar force(true);
    return PlainAdapter::FindBatch(cmd);
  }
  Entries Window(const Command& cmd, bool* ordered) const override {
    simd::ScopedForceScalar force(true);
    return PlainAdapter::Window(cmd, ordered);
  }
  size_t CountWindow(const Command& cmd) const override {
    simd::ScopedForceScalar force(true);
    return PlainAdapter::CountWindow(cmd);
  }
  std::optional<WindowPage> PageQuery(
      const Command& cmd,
      std::span<const uint64_t> resume_after) const override {
    simd::ScopedForceScalar force(true);
    return PlainAdapter::PageQuery(cmd, resume_after);
  }
  std::optional<std::vector<KnnResult>> Knn(
      const Command& cmd) const override {
    simd::ScopedForceScalar force(true);
    return PlainAdapter::Knn(cmd);
  }
  size_t BulkLoad(const Command& cmd) override {
    simd::ScopedForceScalar force(true);
    return PlainAdapter::BulkLoad(cmd);
  }
  Entries Content() const override {
    simd::ScopedForceScalar force(true);
    return PlainAdapter::Content();
  }
  std::string Validate() const override {
    simd::ScopedForceScalar force(true);
    return PlainAdapter::Validate();
  }
};

/// The plain tree again, in MVCC mode (EnableMvcc with a private
/// EpochManager): every mutation writes its edited nodes into new blocks,
/// publishes them with one atomic handle store and retires the originals
/// instead of freeing them, so the whole command stream diffs retirement
/// against the oracle. Registered unconditionally, *including* fault mode:
/// an injected bad_alloc inside an edit must roll back to the pre-op tree
/// (created nodes deleted, nothing published, nothing retired), and the
/// retry + comparison that follows vets exactly that.
class CowAdapter : public PlainAdapter {
 public:
  explicit CowAdapter(uint32_t dim) : PlainAdapter(dim, "PhTree/cow") {
    tree_.EnableMvcc(&epochs_);
  }

  std::optional<std::string> SaveLoad(const std::string& tmp_dir) override {
    const std::optional<std::string> status = PlainAdapter::SaveLoad(tmp_dir);
    // The round-trip move-assigned a freshly deserialized (plain) tree;
    // re-enable MVCC so the rest of the stream stays on the COW path.
    if (status.has_value() && status->empty()) {
      tree_.EnableMvcc(&epochs_);
    }
    return status;
  }

 private:
  EpochManager epochs_;
};

class ShardedAdapter : public VariantAdapter {
 public:
  ShardedAdapter(uint32_t dim, uint32_t shards, ShardRouting routing)
      : tree_(dim, shards, routing) {
    const std::string tag = std::string(1, routing == ShardRouting::kZPrefix
                                               ? 'z'
                                               : 'h') +
                            std::to_string(shards);
    name_ = "PhTreeSharded/" + tag;
    file_tag_ = "sharded_" + tag;
  }

  const char* name() const override { return name_.c_str(); }
  size_t Size() const override { return tree_.size(); }
  bool Insert(const Command& cmd) override {
    return tree_.Insert(cmd.key, cmd.value);
  }
  bool InsertOrAssign(const Command& cmd) override {
    return tree_.InsertOrAssign(cmd.key, cmd.value);
  }
  bool Erase(const Command& cmd) override { return tree_.Erase(cmd.key); }
  UpdateOutcome Update(const Command& cmd) override {
    // Exercises both the same-shard delegation and the two-lock
    // cross-shard move, depending on where the two keys route.
    return tree_.Update(cmd.key, cmd.key2,
                        cmd.update_keep_value
                            ? std::nullopt
                            : std::optional<uint64_t>(cmd.value));
  }
  std::optional<uint64_t> Find(const Command& cmd) const override {
    return tree_.Find(cmd.key);
  }
  std::vector<std::optional<uint64_t>> FindBatch(
      const Command& cmd) const override {
    return tree_.FindBatch(cmd.batch);
  }
  Entries Window(const Command& cmd, bool* ordered) const override {
    // Eager form is globally z-ordered for both routing modes (z-prefix
    // concatenates in shard order; hash z-merges).
    *ordered = true;
    return tree_.QueryWindow(cmd.key, cmd.key2);
  }
  size_t CountWindow(const Command& cmd) const override {
    return tree_.CountWindow(cmd.key, cmd.key2);
  }
  std::optional<WindowPage> PageQuery(
      const Command& cmd,
      std::span<const uint64_t> resume_after) const override {
    return tree_.QueryWindowPage(cmd.key, cmd.key2, cmd.page_size,
                                 resume_after);
  }
  std::optional<std::vector<KnnResult>> Knn(
      const Command& cmd) const override {
    return tree_.KnnSearch(cmd.key, cmd.knn_n, KnnMetric::kL2Double);
  }
  void Clear() override { tree_.Clear(); }
  std::optional<std::string> SaveLoad(const std::string& tmp_dir) override {
    if (tmp_dir.empty()) {
      return std::nullopt;
    }
    const std::string path = tmp_dir + "/diff_" + file_tag_ + ".snapshot";
    if (Status s = tree_.Save(path); !s.ok()) {
      return s.ToString();
    }
    LoadOptions load;
    load.validate_structure = true;
    if (Status s = tree_.Load(path, load); !s.ok()) {
      return s.ToString();
    }
    return std::string();
  }
  size_t BulkLoad(const Command& cmd) override {
    return tree_.BulkLoad(cmd.bulk);
  }
  Entries Content() const override {
    Entries out;
    out.reserve(tree_.size());
    tree_.ForEach(
        [&out](const PhKey& k, uint64_t v) { out.emplace_back(k, v); });
    SortByZ(&out);  // hash routing enumerates per-shard, not globally
    return out;
  }
  std::string Validate() const override {
    for (uint32_t s = 0; s < tree_.num_shards(); ++s) {
      const PhTree& shard = tree_.UnsafeShard(s);
      if (std::string err = ValidatePhTreeDeep(shard); !err.empty()) {
        return std::string(name_) + " shard " + std::to_string(s) + ": " +
               err;
      }
      // Routing ownership: every key stored in shard s must route to s.
      std::string misrouted;
      shard.ForEach([&](const PhKey& key, uint64_t) {
        if (misrouted.empty() && tree_.ShardOf(key) != s) {
          misrouted = std::string(name_) + " shard " + std::to_string(s) +
                      ": stored key routes to shard " +
                      std::to_string(tree_.ShardOf(key));
        }
      });
      if (!misrouted.empty()) {
        return misrouted;
      }
    }
    return std::string();
  }

 private:
  std::string name_;
  std::string file_tag_;  // name_ without the '/', safe in snapshot paths
  PhTreeSharded tree_;
};

// ---- Double-keyed baselines --------------------------------------------

/// Shared implementation for KD1/KD2/CB1: native double keys, results
/// re-encoded; no kNN, no persistence; Clear() recreates the tree.
template <typename Tree>
class BaselineAdapter : public VariantAdapter {
 public:
  BaselineAdapter(uint32_t dim, const char* name)
      : dim_(dim), name_(name), tree_(std::make_unique<Tree>(dim)) {}

  const char* name() const override { return name_; }
  size_t Size() const override { return tree_->size(); }
  bool Insert(const Command& cmd) override {
    return tree_->Insert(cmd.key_d, cmd.value);
  }
  bool InsertOrAssign(const Command& cmd) override {
    // Emulated upsert: the observable contract (true iff newly inserted)
    // matches PhTree::InsertOrAssign.
    if (tree_->Contains(cmd.key_d)) {
      tree_->Erase(cmd.key_d);
      tree_->Insert(cmd.key_d, cmd.value);
      return false;
    }
    return tree_->Insert(cmd.key_d, cmd.value);
  }
  bool Erase(const Command& cmd) override { return tree_->Erase(cmd.key_d); }
  std::optional<uint64_t> Find(const Command& cmd) const override {
    return tree_->Find(cmd.key_d);
  }
  Entries Window(const Command& cmd, bool* ordered) const override {
    *ordered = false;
    return CollectWindow(cmd.key_d, cmd.key2_d);
  }
  size_t CountWindow(const Command& cmd) const override {
    return tree_->CountWindow(cmd.key_d, cmd.key2_d);
  }
  std::optional<std::vector<KnnResult>> Knn(const Command&) const override {
    return std::nullopt;
  }
  void Clear() override { tree_ = std::make_unique<Tree>(dim_); }
  std::optional<std::string> SaveLoad(const std::string&) override {
    return std::nullopt;
  }
  size_t BulkLoad(const Command& cmd) override {
    size_t inserted = 0;
    for (size_t i = 0; i < cmd.bulk_d.size(); ++i) {
      inserted += tree_->Insert(cmd.bulk_d[i], cmd.bulk[i].value) ? 1 : 0;
    }
    return inserted;
  }
  Entries Content() const override {
    const PhKeyD lo(dim_, std::numeric_limits<double>::lowest());
    const PhKeyD hi(dim_, std::numeric_limits<double>::max());
    Entries out = CollectWindow(lo, hi);
    SortByZ(&out);
    return out;
  }

 private:
  Entries CollectWindow(const PhKeyD& lo, const PhKeyD& hi) const {
    Entries out;
    tree_->QueryWindow(lo, hi,
                       [&out](std::span<const double> key, uint64_t value) {
                         out.emplace_back(EncodeKeyD(key), value);
                       });
    return out;
  }

  uint32_t dim_;
  const char* name_;
  std::unique_ptr<Tree> tree_;
};

// ---- Result formatting / comparison ------------------------------------

std::string KeyToString(const PhKey& key) {
  std::ostringstream os;
  os << "(";
  for (size_t d = 0; d < key.size(); ++d) {
    os << (d == 0 ? "" : ",") << key[d];
  }
  os << ")";
  return os.str();
}

struct Diverged {
  std::ostringstream os;
  bool set = false;
};

class Runner {
 public:
  Runner(const DiffOptions& opts, CommandSource& source)
      : opts_(opts),
        source_(source),
        model_(opts.commands.dim),
        fault_mode_(opts.fault_every_n > 0) {
    const uint32_t dim = opts.commands.dim;
    adapters_.push_back(std::make_unique<PlainAdapter>(dim));
    // Forced-scalar kernel arm: same tree, SIMD dispatch pinned off. Any
    // vector/scalar behavioural difference shows up as a divergence here.
    adapters_.push_back(std::make_unique<ScalarKernelAdapter>(dim));
    // COW arm: every mutation through the MVCC publish/retire path. Stays
    // on in fault mode — injected failures under retirement must roll back
    // like any other, and this arm proves it on real streams.
    adapters_.push_back(std::make_unique<CowAdapter>(dim));
    if (opts.include_concurrent) {
      // One shard is PhTreeSync: routing-free, pool-free, whole-tree
      // Save/Load.
      adapters_.push_back(
          std::make_unique<ShardedAdapter>(dim, 1, ShardRouting::kZPrefix));
      for (const uint32_t shards : opts.shard_counts) {
        adapters_.push_back(std::make_unique<ShardedAdapter>(
            dim, shards, ShardRouting::kZPrefix));
        adapters_.push_back(std::make_unique<ShardedAdapter>(
            dim, shards, ShardRouting::kHash));
      }
    }
    if (opts.include_baselines) {
      adapters_.push_back(
          std::make_unique<BaselineAdapter<KdTree1>>(dim, "KD1"));
      adapters_.push_back(
          std::make_unique<BaselineAdapter<KdTree2>>(dim, "KD2"));
      adapters_.push_back(
          std::make_unique<BaselineAdapter<CritBit1>>(dim, "CB1"));
    }
  }

  DiffReport Run() {
    DiffReport report;
    report.variants = adapters_.size();
    // Install + arm the injector for the whole run; uninstall on every
    // exit path (the guard also disarms, so a later runner starts clean).
    struct InjectorGuard {
      InjectorGuard(FaultInjector* inj, const DiffOptions& opts) {
        if (opts.fault_every_n > 0) {
          inj->ArmRandom(opts.fault_seed, opts.fault_every_n);
          SetFaultInjector(inj);
          installed = inj;
        }
      }
      ~InjectorGuard() {
        if (installed != nullptr) {
          installed->Disarm();
          SetFaultInjector(nullptr);
        }
      }
      FaultInjector* installed = nullptr;
    } guard(&injector_, opts_);
    Command cmd;
    while (report.ops_run < opts_.ops && source_.Next(&cmd)) {
      Apply(cmd, &report);
      ++report.ops_run;
      report.max_size = std::max(report.max_size, model_.size());
      if (!report.divergence.empty()) {
        return report;
      }
      if (opts_.validate_every != 0 &&
          report.ops_run % opts_.validate_every == 0) {
        Audit(report.ops_run, &report);
        if (!report.divergence.empty()) {
          return report;
        }
      }
    }
    Audit(report.ops_run, &report);
    report.final_size = model_.size();
    return report;
  }

 private:
  /// Fault mode: a mutation that throws bad_alloc has (by the OpStatus
  /// contract) rolled back completely, so retrying it with injection
  /// suspended is equivalent to a clean first run — and the oracle
  /// comparison that follows vets the rollback. No-op outside fault mode.
  template <typename Fn>
  auto FaultRetry(Fn&& fn, DiffReport* report) -> decltype(fn()) {
    if (!fault_mode_) {
      return fn();
    }
    try {
      return fn();
    } catch (const std::bad_alloc&) {
      ++report->injected_failures;
      FaultInjectorSuspend suspend;
      return fn();
    }
  }

  /// Prefix every divergence with the op index / kind / variant.
  std::string Where(size_t op_index, const Command& cmd,
                    const VariantAdapter& v) const {
    std::ostringstream os;
    os << "op " << op_index << " " << OpKindName(cmd.kind) << " key "
       << KeyToString(cmd.key) << " variant " << v.name() << ": ";
    return os.str();
  }

  void Apply(const Command& cmd, DiffReport* report) {
    const size_t op_index = report->ops_run;
    switch (cmd.kind) {
      case OpKind::kInsert: {
        const bool expect = model_.Insert(cmd.key, cmd.value);
        for (auto& v : adapters_) {
          ++report->replayed;
          const bool got = FaultRetry([&] { return v->Insert(cmd); }, report);
          if (got != expect) {
            report->divergence = Where(op_index, cmd, *v) + "Insert " +
                                 (expect ? "true" : "false") + " != " +
                                 (got ? "true" : "false");
            return;
          }
        }
        break;
      }
      case OpKind::kInsertOrAssign: {
        const bool expect = model_.InsertOrAssign(cmd.key, cmd.value);
        for (auto& v : adapters_) {
          ++report->replayed;
          const bool got =
              FaultRetry([&] { return v->InsertOrAssign(cmd); }, report);
          if (got != expect) {
            report->divergence = Where(op_index, cmd, *v) +
                                 "InsertOrAssign newly-inserted mismatch";
            return;
          }
        }
        break;
      }
      case OpKind::kErase: {
        const bool expect = model_.Erase(cmd.key);
        for (auto& v : adapters_) {
          ++report->replayed;
          if (FaultRetry([&] { return v->Erase(cmd); }, report) != expect) {
            report->divergence =
                Where(op_index, cmd, *v) + "Erase hit/miss mismatch";
            return;
          }
        }
        break;
      }
      case OpKind::kUpdate: {
        std::optional<uint64_t> value;
        if (!cmd.update_keep_value) {
          value = cmd.value;
        }
        const UpdateOutcome expect = model_.Update(cmd.key, cmd.key2, value);
        for (auto& v : adapters_) {
          ++report->replayed;
          const UpdateOutcome got =
              FaultRetry([&] { return v->Update(cmd); }, report);
          if (got != expect) {
            report->divergence = Where(op_index, cmd, *v) + "Update to " +
                                 KeyToString(cmd.key2) + " outcome " +
                                 UpdateOutcomeName(got) + " != oracle " +
                                 UpdateOutcomeName(expect);
            return;
          }
        }
        break;
      }
      case OpKind::kFind: {
        const std::optional<uint64_t> expect = model_.Find(cmd.key);
        for (auto& v : adapters_) {
          ++report->replayed;
          const std::optional<uint64_t> got = v->Find(cmd);
          if (got != expect) {
            report->divergence =
                Where(op_index, cmd, *v) + "Find result mismatch";
            return;
          }
        }
        break;
      }
      case OpKind::kWindow: {
        const Entries expect = model_.QueryWindow(cmd.key, cmd.key2);
        for (auto& v : adapters_) {
          ++report->replayed;
          bool ordered = false;
          Entries got = v->Window(cmd, &ordered);
          if (!ordered) {
            SortByZ(&got);
          }
          if (got != expect) {
            std::ostringstream os;
            os << Where(op_index, cmd, *v) << "window ["
               << KeyToString(cmd.key) << ", " << KeyToString(cmd.key2)
               << "] returned " << got.size() << " entries, oracle "
               << expect.size()
               << (got.size() == expect.size() ? " (same count, different "
                                                 "entries or order)"
                                               : "");
            report->divergence = os.str();
            return;
          }
        }
        break;
      }
      case OpKind::kCountWindow: {
        const size_t expect = model_.CountWindow(cmd.key, cmd.key2);
        for (auto& v : adapters_) {
          ++report->replayed;
          const size_t got = v->CountWindow(cmd);
          if (got != expect) {
            std::ostringstream os;
            os << Where(op_index, cmd, *v) << "CountWindow " << got
               << " != " << expect;
            report->divergence = os.str();
            return;
          }
        }
        break;
      }
      case OpKind::kKnn: {
        const std::vector<KnnResult> expect =
            model_.KnnSearch(cmd.key, cmd.knn_n, KnnMetric::kL2Double);
        for (auto& v : adapters_) {
          const std::optional<std::vector<KnnResult>> got = v->Knn(cmd);
          if (!got.has_value()) {
            continue;  // variant has no kNN
          }
          ++report->replayed;
          std::string err;
          if (got->size() != expect.size()) {
            err = "result count mismatch";
          } else {
            for (size_t i = 0; i < expect.size(); ++i) {
              if ((*got)[i].key != expect[i].key ||
                  (*got)[i].value != expect[i].value ||
                  (*got)[i].dist2 != expect[i].dist2) {
                err = "result " + std::to_string(i) + " mismatch (key " +
                      KeyToString((*got)[i].key) + " vs oracle " +
                      KeyToString(expect[i].key) + ")";
                break;
              }
            }
          }
          if (!err.empty()) {
            report->divergence = Where(op_index, cmd, *v) + "kNN n=" +
                                 std::to_string(cmd.knn_n) + ": " + err;
            return;
          }
        }
        break;
      }
      case OpKind::kClear: {
        model_.Clear();
        for (auto& v : adapters_) {
          ++report->replayed;
          v->Clear();
        }
        break;
      }
      case OpKind::kSaveLoad: {
        // Snapshot round-trips rebuild whole trees through the arena and
        // run real I/O; their failure paths have dedicated crash-point
        // tests, so random injection is suspended here instead of turning
        // a legitimate load error into a false divergence.
        FaultInjectorSuspend suspend;
        ++report->save_loads;
        for (auto& v : adapters_) {
          const std::optional<std::string> status =
              v->SaveLoad(opts_.tmp_dir);
          if (!status.has_value()) {
            continue;  // variant has no persistence
          }
          ++report->replayed;
          if (!status->empty()) {
            report->divergence = Where(op_index, cmd, *v) +
                                 "snapshot round-trip failed: " + *status;
            return;
          }
          if (std::string err = CompareContent(*v); !err.empty()) {
            report->divergence = Where(op_index, cmd, *v) +
                                 "content changed by round-trip: " + err;
            return;
          }
        }
        break;
      }
      case OpKind::kWindowPage: {
        // Full paginated drain per variant, page-by-page against the
        // oracle: entries, the exact `more` flag and the resume token must
        // all agree on every page. The oracle is read-only here, so each
        // variant drains independently from the window start.
        for (auto& v : adapters_) {
          PhKey token_buf;
          std::span<const uint64_t> token;
          const size_t max_pages =
              model_.size() / std::max<size_t>(cmd.page_size, 1) + 2;
          for (size_t page_no = 0;; ++page_no) {
            const std::optional<WindowPage> got = v->PageQuery(cmd, token);
            if (!got.has_value()) {
              break;  // variant has no pagination
            }
            ++report->replayed;
            const WindowPage expect = model_.QueryWindowPage(
                cmd.key, cmd.key2, cmd.page_size, token);
            std::string err;
            if (got->entries != expect.entries) {
              err = std::to_string(got->entries.size()) +
                    " entries, oracle " +
                    std::to_string(expect.entries.size()) +
                    (got->entries.size() == expect.entries.size()
                         ? " (same count, different entries or order)"
                         : "");
            } else if (got->more != expect.more) {
              err = std::string("more flag ") +
                    (got->more ? "true" : "false") + " != oracle " +
                    (expect.more ? "true" : "false");
            } else if (got->token != expect.token) {
              err = "resume token " + KeyToString(got->token) +
                    " != oracle " + KeyToString(expect.token);
            }
            if (!err.empty()) {
              report->divergence = Where(op_index, cmd, *v) +
                                   "QueryWindowPage page " +
                                   std::to_string(page_no) + " (size " +
                                   std::to_string(cmd.page_size) + "): " +
                                   err;
              return;
            }
            if (!expect.more) {
              break;
            }
            if (page_no >= max_pages) {
              report->divergence = Where(op_index, cmd, *v) +
                                   "QueryWindowPage drain exceeded " +
                                   std::to_string(max_pages) + " pages";
              return;
            }
            token_buf = expect.token;
            token = token_buf;
          }
        }
        break;
      }
      case OpKind::kFindBatch: {
        std::vector<std::optional<uint64_t>> expect;
        expect.reserve(cmd.batch.size());
        for (const PhKey& k : cmd.batch) {
          expect.push_back(model_.Find(k));
        }
        for (auto& v : adapters_) {
          ++report->replayed;
          const std::vector<std::optional<uint64_t>> got = v->FindBatch(cmd);
          if (got != expect) {
            std::ostringstream os;
            os << Where(op_index, cmd, *v) << "FindBatch of "
               << cmd.batch.size() << " keys: ";
            if (got.size() != expect.size()) {
              os << "result count " << got.size() << " != "
                 << expect.size();
            } else {
              for (size_t i = 0; i < expect.size(); ++i) {
                if (got[i] != expect[i]) {
                  os << "element " << i << " (key "
                     << KeyToString(cmd.batch[i]) << ") mismatch";
                  break;
                }
              }
            }
            report->divergence = os.str();
            return;
          }
        }
        break;
      }
      case OpKind::kBulkLoad: {
        if (fault_mode_) {
          // Decomposed into elementary inserts: a bad_alloc mid-batch
          // would otherwise lose the adapter's newly-inserted count, and
          // retrying a whole batch re-counts entries the failed attempt
          // already placed. Observable behavior is identical — every
          // remaining adapter's BulkLoad is exactly this loop.
          Command entry_cmd;
          entry_cmd.kind = OpKind::kInsert;
          for (size_t i = 0; i < cmd.bulk.size(); ++i) {
            entry_cmd.key = cmd.bulk[i].key;
            entry_cmd.key_d = cmd.bulk_d[i];
            entry_cmd.value = cmd.bulk[i].value;
            const bool expect = model_.Insert(entry_cmd.key, entry_cmd.value);
            for (auto& v : adapters_) {
              ++report->replayed;
              const bool got =
                  FaultRetry([&] { return v->Insert(entry_cmd); }, report);
              if (got != expect) {
                report->divergence =
                    Where(op_index, entry_cmd, *v) +
                    "BulkLoad entry " + std::to_string(i) +
                    " newly-inserted mismatch";
                return;
              }
            }
          }
          break;
        }
        report->bulk_loads_into_empty += model_.size() == 0 ? 1 : 0;
        size_t expect = 0;
        for (const PhEntry& e : cmd.bulk) {
          expect += model_.Insert(e.key, e.value) ? 1 : 0;
        }
        for (auto& v : adapters_) {
          ++report->replayed;
          const size_t got = v->BulkLoad(cmd);
          if (got != expect) {
            std::ostringstream os;
            os << Where(op_index, cmd, *v) << "BulkLoad of "
               << cmd.bulk.size() << " entries inserted " << got
               << ", oracle " << expect;
            report->divergence = os.str();
            return;
          }
        }
        break;
      }
    }
    // Size must agree after every operation.
    for (auto& v : adapters_) {
      if (v->Size() != model_.size()) {
        std::ostringstream os;
        os << Where(op_index, cmd, *v) << "size " << v->Size()
           << " != oracle " << model_.size();
        report->divergence = os.str();
        return;
      }
    }
  }

  /// "" or a description of the first content mismatch for one variant.
  std::string CompareContent(const VariantAdapter& v) const {
    Entries expect;
    expect.reserve(model_.size());
    model_.ForEach([&expect](const PhKey& k, uint64_t val) {
      expect.emplace_back(k, val);
    });
    const Entries got = v.Content();
    if (got == expect) {
      return std::string();
    }
    std::ostringstream os;
    os << "variant holds " << got.size() << " entries, oracle "
       << expect.size();
    const size_t n = std::min(got.size(), expect.size());
    for (size_t i = 0; i < n; ++i) {
      if (got[i] != expect[i]) {
        os << "; first mismatch at z-rank " << i << ": "
           << KeyToString(got[i].first) << " vs "
           << KeyToString(expect[i].first);
        break;
      }
    }
    return os.str();
  }

  /// Full-content comparison + deep validation across every variant.
  void Audit(size_t op_index, DiffReport* report) {
    FaultInjectorSuspend suspend;  // audits read, they must not "fail"
    for (auto& v : adapters_) {
      if (std::string err = CompareContent(*v); !err.empty()) {
        report->divergence = "audit after op " + std::to_string(op_index) +
                             " variant " + v->name() + ": " + err;
        return;
      }
      if (std::string err = v->Validate(); !err.empty()) {
        report->divergence = "audit after op " + std::to_string(op_index) +
                             " variant " + v->name() +
                             ": validator: " + err;
        return;
      }
    }
  }

  const DiffOptions& opts_;
  CommandSource& source_;
  ReferenceModel model_;
  bool fault_mode_;
  FaultInjector injector_;
  std::vector<std::unique_ptr<VariantAdapter>> adapters_;
};

// ---- Concurrent mode ----------------------------------------------------
//
// One writer (the calling thread) replays the command stream against a
// single PhTreeSync with exact oracle comparison after every op — valid
// because nothing else mutates — while N reader threads run the lock-free
// read path (epoch guard + acquire loads, no lock) against the same tree
// the whole time. Mid-churn a reader cannot know the exact result set, so
// it checks the invariants that survive interleaving: window hits inside
// the box and strictly z-ascending, kNN distances non-decreasing, pages
// bounded by their size. Exactness comes from the quiesced audits: every
// validate_every ops the writer snapshots the oracle, bumps an audit
// ticket (release) and parks until each reader has compared the frozen
// tree's size and full content against the snapshot and acked (acquire/
// release handshake; no locks on the read side even here).
class ConcurrentRunner {
 public:
  ConcurrentRunner(const DiffOptions& opts, CommandSource& source)
      : opts_(opts),
        source_(source),
        model_(opts.commands.dim),
        tree_(opts.commands.dim),
        acks_(opts.reader_threads) {}

  DiffReport Run() {
    DiffReport report;
    report.variants = 1;
    std::vector<std::thread> readers;
    readers.reserve(opts_.reader_threads);
    for (size_t t = 0; t < opts_.reader_threads; ++t) {
      readers.emplace_back([this, t] { ReaderLoop(t); });
    }
    Command cmd;
    while (report.ops_run < opts_.ops && source_.Next(&cmd)) {
      Apply(cmd, &report);
      ++report.ops_run;
      report.max_size = std::max(report.max_size, model_.size());
      if (report.divergence.empty() &&
          failed_.load(std::memory_order_acquire)) {
        CopyReaderFailure(&report);
      }
      if (!report.divergence.empty()) {
        break;
      }
      if (opts_.validate_every != 0 &&
          report.ops_run % opts_.validate_every == 0) {
        QuiescedAudit(&report);
        if (!report.divergence.empty()) {
          break;
        }
      }
    }
    if (report.divergence.empty()) {
      QuiescedAudit(&report);
    }
    stop_.store(true, std::memory_order_release);
    for (auto& th : readers) {
      th.join();
    }
    if (report.divergence.empty() && failed_.load(std::memory_order_acquire)) {
      CopyReaderFailure(&report);
    }
    report.replayed += reader_checks_.load(std::memory_order_relaxed);
    report.final_size = model_.size();
    return report;
  }

 private:
  std::string Where(size_t op_index, const Command& cmd) const {
    std::ostringstream os;
    os << "op " << op_index << " " << OpKindName(cmd.kind) << " key "
       << KeyToString(cmd.key) << " variant PhTreeSync/mvcc: ";
    return os.str();
  }

  void CopyReaderFailure(DiffReport* report) {
    std::lock_guard<std::mutex> lock(failure_mutex_);
    report->divergence = reader_failure_;
  }

  Entries TreeContent() const {
    Entries out;
    out.reserve(tree_.size());
    tree_.UnsafeShard(0).ForEach(
        [&out](const PhKey& k, uint64_t v) { out.emplace_back(k, v); });
    return out;
  }

  Entries ModelContent() const {
    Entries out;
    out.reserve(model_.size());
    model_.ForEach(
        [&out](const PhKey& k, uint64_t v) { out.emplace_back(k, v); });
    return out;
  }

  // Writer-side application with exact comparison. All reads here run on
  // the writer thread, so the oracle answer is the only correct one even
  // while readers hammer the tree.
  void Apply(const Command& cmd, DiffReport* report) {
    const size_t op_index = report->ops_run;
    ++report->replayed;
    switch (cmd.kind) {
      case OpKind::kInsert: {
        const bool expect = model_.Insert(cmd.key, cmd.value);
        if (tree_.Insert(cmd.key, cmd.value) != expect) {
          report->divergence =
              Where(op_index, cmd) + "Insert newly-inserted mismatch";
        }
        break;
      }
      case OpKind::kInsertOrAssign: {
        const bool expect = model_.InsertOrAssign(cmd.key, cmd.value);
        if (tree_.InsertOrAssign(cmd.key, cmd.value) != expect) {
          report->divergence =
              Where(op_index, cmd) + "InsertOrAssign newly-inserted mismatch";
        }
        break;
      }
      case OpKind::kErase: {
        const bool expect = model_.Erase(cmd.key);
        if (tree_.Erase(cmd.key) != expect) {
          report->divergence =
              Where(op_index, cmd) + "Erase hit/miss mismatch";
        }
        break;
      }
      case OpKind::kUpdate: {
        std::optional<uint64_t> value;
        if (!cmd.update_keep_value) {
          value = cmd.value;
        }
        const UpdateOutcome expect = model_.Update(cmd.key, cmd.key2, value);
        const UpdateOutcome got = tree_.Update(cmd.key, cmd.key2, value);
        if (got != expect) {
          report->divergence = Where(op_index, cmd) + "Update to " +
                               KeyToString(cmd.key2) + " outcome " +
                               UpdateOutcomeName(got) + " != oracle " +
                               UpdateOutcomeName(expect);
        }
        break;
      }
      case OpKind::kFind: {
        if (tree_.Find(cmd.key) != model_.Find(cmd.key)) {
          report->divergence = Where(op_index, cmd) + "Find result mismatch";
        }
        break;
      }
      case OpKind::kFindBatch: {
        std::vector<std::optional<uint64_t>> expect;
        expect.reserve(cmd.batch.size());
        for (const PhKey& k : cmd.batch) {
          expect.push_back(model_.Find(k));
        }
        if (tree_.FindBatch(cmd.batch) != expect) {
          report->divergence = Where(op_index, cmd) + "FindBatch of " +
                               std::to_string(cmd.batch.size()) +
                               " keys mismatch";
        }
        break;
      }
      case OpKind::kWindow: {
        const Entries expect = model_.QueryWindow(cmd.key, cmd.key2);
        const Entries got = tree_.QueryWindow(cmd.key, cmd.key2);
        if (got != expect) {
          report->divergence =
              Where(op_index, cmd) + "window [" + KeyToString(cmd.key) +
              ", " + KeyToString(cmd.key2) + "] returned " +
              std::to_string(got.size()) + " entries, oracle " +
              std::to_string(expect.size());
        }
        break;
      }
      case OpKind::kCountWindow: {
        const size_t expect = model_.CountWindow(cmd.key, cmd.key2);
        const size_t got = tree_.CountWindow(cmd.key, cmd.key2);
        if (got != expect) {
          report->divergence = Where(op_index, cmd) + "CountWindow " +
                               std::to_string(got) + " != " +
                               std::to_string(expect);
        }
        break;
      }
      case OpKind::kKnn: {
        const std::vector<KnnResult> expect =
            model_.KnnSearch(cmd.key, cmd.knn_n, KnnMetric::kL2Double);
        const std::vector<KnnResult> got =
            tree_.KnnSearch(cmd.key, cmd.knn_n, KnnMetric::kL2Double);
        bool same = got.size() == expect.size();
        for (size_t i = 0; same && i < expect.size(); ++i) {
          same = got[i].key == expect[i].key &&
                 got[i].value == expect[i].value &&
                 got[i].dist2 == expect[i].dist2;
        }
        if (!same) {
          report->divergence = Where(op_index, cmd) + "kNN n=" +
                               std::to_string(cmd.knn_n) + " mismatch";
        }
        break;
      }
      case OpKind::kWindowPage: {
        PhKey token_buf;
        std::span<const uint64_t> token;
        const size_t max_pages =
            model_.size() / std::max<size_t>(cmd.page_size, 1) + 2;
        for (size_t page_no = 0;; ++page_no) {
          const WindowPage got =
              tree_.QueryWindowPage(cmd.key, cmd.key2, cmd.page_size, token);
          const WindowPage expect =
              model_.QueryWindowPage(cmd.key, cmd.key2, cmd.page_size, token);
          if (got.entries != expect.entries || got.more != expect.more ||
              got.token != expect.token) {
            report->divergence = Where(op_index, cmd) +
                                 "QueryWindowPage page " +
                                 std::to_string(page_no) + " (size " +
                                 std::to_string(cmd.page_size) + ") mismatch";
            return;
          }
          if (!expect.more) {
            break;
          }
          if (page_no >= max_pages) {
            report->divergence = Where(op_index, cmd) +
                                 "QueryWindowPage drain exceeded " +
                                 std::to_string(max_pages) + " pages";
            return;
          }
          token_buf = expect.token;
          token = token_buf;
        }
        break;
      }
      case OpKind::kClear: {
        // The whole tree retires behind one root store while the readers
        // keep walking the old one.
        model_.Clear();
        tree_.Clear();
        break;
      }
      case OpKind::kSaveLoad: {
        if (opts_.tmp_dir.empty()) {
          break;
        }
        ++report->save_loads;
        const std::string path = opts_.tmp_dir + "/diff_concurrent.snapshot";
        if (Status s = tree_.Save(path); !s.ok()) {
          report->divergence =
              Where(op_index, cmd) + "snapshot save failed: " + s.ToString();
          return;
        }
        LoadOptions load;
        load.validate_structure = true;
        // Load swaps the whole published tree under the live readers:
        // they see old or new, both with identical content, and the old
        // one outlives every guard that could still reference it.
        if (Status s = tree_.Load(path, load); !s.ok()) {
          report->divergence =
              Where(op_index, cmd) + "snapshot load failed: " + s.ToString();
          return;
        }
        if (TreeContent() != ModelContent()) {
          report->divergence =
              Where(op_index, cmd) + "content changed by round-trip";
        }
        break;
      }
      case OpKind::kBulkLoad: {
        // Into an empty tree the batch is built off to the side and
        // published with one root store under the live readers.
        report->bulk_loads_into_empty += model_.size() == 0 ? 1 : 0;
        size_t expect = 0;
        for (const PhEntry& e : cmd.bulk) {
          expect += model_.Insert(e.key, e.value) ? 1 : 0;
        }
        const size_t got = tree_.BulkLoad(cmd.bulk);
        if (got != expect) {
          report->divergence =
              Where(op_index, cmd) + "BulkLoad of " +
              std::to_string(cmd.bulk.size()) + " entries inserted " +
              std::to_string(got) + ", oracle " + std::to_string(expect);
        }
        break;
      }
    }
    if (report->divergence.empty() && tree_.size() != model_.size()) {
      report->divergence = Where(op_index, cmd) + "size " +
                           std::to_string(tree_.size()) + " != oracle " +
                           std::to_string(model_.size());
    }
  }

  /// Park the writer until every reader has audited the frozen tree once.
  void QuiescedAudit(DiffReport* report) {
    // The tree is quiescent from here to the last ack: deep-validate it
    // on the writer (the only thread allowed to read arena accounting),
    // then publish the oracle snapshot and raise the ticket.
    if (std::string err = ValidatePhTreeDeep(tree_.UnsafeShard(0));
        !err.empty()) {
      report->divergence = "audit after op " +
                           std::to_string(report->ops_run) +
                           " variant PhTreeSync/mvcc: validator: " + err;
      return;
    }
    audit_content_ = ModelContent();
    const uint64_t ticket =
        audit_ticket_.load(std::memory_order_relaxed) + 1;
    audit_ticket_.store(ticket, std::memory_order_release);
    for (size_t t = 0; t < opts_.reader_threads; ++t) {
      while (acks_[t].load(std::memory_order_acquire) < ticket) {
        std::this_thread::yield();
      }
    }
    if (failed_.load(std::memory_order_acquire)) {
      CopyReaderFailure(report);
    }
  }

  void ReaderFail(size_t reader, const std::string& what) {
    std::lock_guard<std::mutex> lock(failure_mutex_);
    if (reader_failure_.empty()) {
      reader_failure_ =
          "reader " + std::to_string(reader) + " at epoch " +
          std::to_string(tree_.epoch_manager().epoch()) + ": " + what;
    }
    failed_.store(true, std::memory_order_release);
  }

  void ReaderLoop(size_t index) {
    Rng rng(opts_.seed * 0x9e3779b97f4a7c15ULL + 97 + index);
    Entries sample;  // private copy of the last audit snapshot
    uint64_t acked = 0;
    size_t checks = 0;
    while (!stop_.load(std::memory_order_acquire)) {
      const uint64_t ticket = audit_ticket_.load(std::memory_order_acquire);
      if (ticket > acked) {
        ExactAudit(index, &sample);
        acked = ticket;
        acks_[index].store(ticket, std::memory_order_release);
        ++checks;
        continue;
      }
      if (failed_.load(std::memory_order_relaxed)) {
        std::this_thread::yield();  // keep acking audits, stop probing
        continue;
      }
      InvariantProbe(index, sample, &rng);
      ++checks;
    }
    reader_checks_.fetch_add(checks, std::memory_order_relaxed);
  }

  /// The writer is parked until we ack: size and full content of the
  /// frozen tree must match the published oracle snapshot exactly.
  void ExactAudit(size_t index, Entries* sample) {
    *sample = audit_content_;  // happens-before via the ticket release
    if (tree_.size() != sample->size()) {
      ReaderFail(index, "quiesced size " + std::to_string(tree_.size()) +
                            " != oracle " + std::to_string(sample->size()));
      return;
    }
    const uint32_t dim = opts_.commands.dim;
    PhKey lo(dim);
    PhKey hi(dim);
    for (auto& v : hi) {
      v = ~uint64_t{0};
    }
    // Full-domain window through the lock-free read path: z-ordered, so
    // directly comparable against the (z-ordered) oracle dump.
    const Entries got = tree_.QueryWindow(lo, hi);
    if (got != *sample) {
      ReaderFail(index, "quiesced content diverged: tree holds " +
                            std::to_string(got.size()) + " entries, oracle " +
                            std::to_string(sample->size()));
      return;
    }
    // A stride of point probes through Find as well (different kernel).
    const size_t step = sample->size() / 16 + 1;
    for (size_t i = 0; i < sample->size(); i += step) {
      const auto& [key, value] = (*sample)[i];
      if (tree_.Find(key) != std::optional<uint64_t>(value)) {
        ReaderFail(index,
                   "quiesced Find of " + KeyToString(key) + " diverged");
        return;
      }
    }
  }

  /// Mid-churn probe: results race with the writer, so only interleaving-
  /// proof invariants are checked. Doubles as the memory-safety load for
  /// the TSan/ASan legs.
  void InvariantProbe(size_t index, const Entries& sample, Rng* rng) {
    const uint32_t dim = opts_.commands.dim;
    PhKey lo(dim);
    PhKey hi(dim);
    if (sample.empty()) {
      for (uint32_t d = 0; d < dim; ++d) {
        const uint64_t a = rng->NextU64();
        const uint64_t b = rng->NextU64();
        lo[d] = std::min(a, b);
        hi[d] = std::max(a, b);
      }
    } else {
      // Windows spanned by two real keys hit populated space.
      const PhKey& a = sample[rng->NextBounded(sample.size())].first;
      const PhKey& b = sample[rng->NextBounded(sample.size())].first;
      for (uint32_t d = 0; d < dim; ++d) {
        lo[d] = std::min(a[d], b[d]);
        hi[d] = std::max(a[d], b[d]);
      }
    }
    const Entries got = tree_.QueryWindow(lo, hi);
    for (size_t i = 0; i < got.size(); ++i) {
      for (uint32_t d = 0; d < dim; ++d) {
        if (got[i].first[d] < lo[d] || got[i].first[d] > hi[d]) {
          ReaderFail(index, "window hit " + KeyToString(got[i].first) +
                                " outside [" + KeyToString(lo) + ", " +
                                KeyToString(hi) + "]");
          return;
        }
      }
      if (i > 0 && !ZOrderLess(got[i - 1].first, got[i].first)) {
        ReaderFail(index, "window results not strictly z-ordered at rank " +
                              std::to_string(i));
        return;
      }
    }
    const size_t page_size = 1 + rng->NextBounded(16);
    const WindowPage page =
        tree_.QueryWindowPage(lo, hi, page_size, {});
    if (page.entries.size() > page_size) {
      ReaderFail(index, "page of size " + std::to_string(page_size) +
                            " returned " +
                            std::to_string(page.entries.size()) + " entries");
      return;
    }
    for (const auto& [key, value] : page.entries) {
      for (uint32_t d = 0; d < dim; ++d) {
        if (key[d] < lo[d] || key[d] > hi[d]) {
          ReaderFail(index,
                     "page hit " + KeyToString(key) + " outside the box");
          return;
        }
      }
    }
    const size_t n = 1 + rng->NextBounded(8);
    const std::vector<KnnResult> knn =
        tree_.KnnSearch(lo, n, KnnMetric::kL2Double);
    if (knn.size() > n) {
      ReaderFail(index, "kNN n=" + std::to_string(n) + " returned " +
                            std::to_string(knn.size()) + " results");
      return;
    }
    for (size_t i = 1; i < knn.size(); ++i) {
      if (knn[i].dist2 < knn[i - 1].dist2) {
        ReaderFail(index, "kNN distances not ascending at rank " +
                              std::to_string(i));
        return;
      }
    }
    // Point lookups: mid-churn the value is unknowable; this is purely
    // the lock-free Find safety probe.
    if (!sample.empty()) {
      (void)tree_.Find(sample[rng->NextBounded(sample.size())].first);
    }
    (void)tree_.CountWindow(lo, hi);
  }

  const DiffOptions& opts_;
  CommandSource& source_;
  ReferenceModel model_;
  PhTreeSync tree_;
  Entries audit_content_;  ///< written by the writer before each ticket
  std::atomic<uint64_t> audit_ticket_{0};
  std::vector<std::atomic<uint64_t>> acks_;
  std::atomic<bool> stop_{false};
  std::atomic<bool> failed_{false};
  std::atomic<size_t> reader_checks_{0};
  std::mutex failure_mutex_;
  std::string reader_failure_;  ///< guarded by failure_mutex_
};

}  // namespace

DiffReport RunDifferential(const DiffOptions& opts, CommandSource& source) {
  if (opts.reader_threads > 0) {
    ConcurrentRunner runner(opts, source);
    return runner.Run();
  }
  Runner runner(opts, source);
  return runner.Run();
}

DiffReport RunDifferential(const DiffOptions& opts) {
  RandomCommandSource source(opts.commands, opts.seed);
  return RunDifferential(opts, source);
}

}  // namespace testlib
}  // namespace phtree
