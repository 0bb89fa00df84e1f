#include "testlib/fault_sweep.h"

#include <new>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/fault.h"
#include "phtree/phtree.h"
#include "phtree/serialize.h"
#include "phtree/validate.h"
#include "testlib/reference_model.h"

namespace phtree {
namespace testlib {
namespace {

using Entries = std::vector<std::pair<PhKey, uint64_t>>;

Entries ModelContent(const ReferenceModel& model) {
  Entries out;
  out.reserve(model.size());
  model.ForEach(
      [&out](const PhKey& k, uint64_t v) { out.emplace_back(k, v); });
  return out;
}

Entries TreeContent(const PhTree& tree) {
  Entries out;
  out.reserve(tree.size());
  tree.ForEach(
      [&out](const PhKey& k, uint64_t v) { out.emplace_back(k, v); });
  return out;
}

class Sweeper {
 public:
  explicit Sweeper(const FaultSweepOptions& opts)
      : opts_(opts), tree_(opts.commands.dim), model_(opts.commands.dim) {
    if (opts.mvcc) {
      tree_.EnableMvcc(&epochs_);
    }
  }

  FaultSweepReport Run() {
    SetFaultInjector(&injector_);
    RandomCommandSource source(opts_.commands, opts_.seed);
    Command cmd;
    size_t drawn = 0;
    while (drawn < opts_.ops && report_.failure.empty() &&
           source.Next(&cmd)) {
      ++drawn;
      ApplyCommand(cmd);
    }
    if (report_.failure.empty() && DeepCheck(drawn, "final")) {
      SweepBuilder(drawn);
    }
    SetFaultInjector(nullptr);
    return report_;
  }

 private:
  void Fail(size_t op_index, const char* what, uint64_t site_index,
            const std::string& detail) {
    std::ostringstream os;
    os << "op " << op_index << " " << what << " site " << site_index << ": "
       << detail;
    report_.failure = os.str();
  }

  /// Cheap per-injection rollback invariants: size and the op key's lookup
  /// must match the (not yet advanced) oracle. `key2` (Update's
  /// destination) is probed too when the op has one.
  bool QuickRollbackCheck(size_t op_index, const char* what,
                          uint64_t site_index, const PhKey& key,
                          const PhKey* key2 = nullptr) {
    FaultInjectorSuspend suspend;
    if (tree_.size() != model_.size()) {
      Fail(op_index, what, site_index,
           "size " + std::to_string(tree_.size()) + " != oracle " +
               std::to_string(model_.size()) + " after injected failure");
      return false;
    }
    if (tree_.Find(key) != model_.Find(key)) {
      Fail(op_index, what, site_index,
           "lookup of the op key diverged after injected failure");
      return false;
    }
    if (key2 != nullptr && tree_.Find(*key2) != model_.Find(*key2)) {
      Fail(op_index, what, site_index,
           "lookup of the destination key diverged after injected failure");
      return false;
    }
    return true;
  }

  /// Full content comparison + deep structural validation.
  bool DeepCheck(size_t op_index, const char* what) {
    FaultInjectorSuspend suspend;
    ++report_.deep_checks;
    if (TreeContent(tree_) != ModelContent(model_)) {
      Fail(op_index, what, 0, "content diverged from oracle");
      return false;
    }
    if (std::string err = ValidatePhTreeDeep(tree_); !err.empty()) {
      Fail(op_index, what, 0, "deep validation: " + err);
      return false;
    }
    return true;
  }

  /// Sweeps one fallible mutation: arms site index 0, 1, 2, ... until the
  /// op completes without the fault firing. `expect` is the status the
  /// clean run must produce; `commit` advances the oracle.
  template <typename TryOp, typename Commit>
  void Sweep(size_t op_index, const char* what, const PhKey& key,
             OpStatus expect, TryOp&& try_op, Commit&& commit,
             const PhKey* key2 = nullptr) {
    for (uint64_t site = 0;; ++site) {
      if (site > opts_.max_sites_per_op) {
        Fail(op_index, what, site,
             "sweep did not exhaust the op's allocation sites");
        return;
      }
      injector_.ArmGlobalIndex(site);
      const OpStatus st = try_op();
      const bool fired = injector_.fired();
      injector_.Disarm();
      if (!fired) {
        // The op ran clean — this is the real application.
        if (st != expect) {
          Fail(op_index, what, site,
               "clean run returned status " +
                   std::to_string(static_cast<int>(st)) + ", oracle says " +
                   std::to_string(static_cast<int>(expect)));
          return;
        }
        commit();
        if (tree_.size() != model_.size()) {
          Fail(op_index, what, site, "size diverged after commit");
        }
        return;
      }
      if (st == OpStatus::kNoMem) {
        // Injected failure: the tree must have rolled back completely.
        ++report_.injected_failures;
        if (!QuickRollbackCheck(op_index, what, site, key, key2)) {
          return;
        }
        if (opts_.deep_every != 0 &&
            report_.injected_failures % opts_.deep_every == 0 &&
            !DeepCheck(op_index, what)) {
          return;
        }
        continue;  // probe the next site index
      }
      // The fault fired but the op still succeeded: an absorbed failure
      // (e.g. a shrink kept its oversized block). The op is now applied.
      ++report_.absorbed_faults;
      if (st != expect) {
        Fail(op_index, what, site,
             "absorbed-fault run returned status " +
                 std::to_string(static_cast<int>(st)) + ", oracle says " +
                 std::to_string(static_cast<int>(expect)));
        return;
      }
      commit();
      if (!DeepCheck(op_index, what)) {
        return;
      }
      return;
    }
  }

  /// The builder leg, on the trace's live entries (before every Clear and
  /// at the end of the trace): every allocation of
  /// an empty-tree BulkLoad (an MVCC tree under opts_.mvcc) and of a
  /// snapshot load is failed in turn. Each failure must throw
  /// std::bad_alloc and leave nothing built behind; the clean run must
  /// rebuild the oracle's content.
  void SweepBuilder(size_t op_index) {
    const Entries live = ModelContent(model_);
    std::vector<PhEntry> entries;
    entries.reserve(live.size());
    for (const auto& [key, value] : live) {
      entries.push_back(PhEntry{key, value});
    }
    std::vector<uint8_t> snapshot;
    {
      FaultInjectorSuspend suspend;
      snapshot = SerializePhTree(tree_);
    }
    SweepBuild(op_index, "BulkLoad into an empty tree", live,
               [&](PhTree* tree) {
                 if (tree->BulkLoad(entries) != entries.size()) {
                   return std::string("BulkLoad stored a wrong count");
                 }
                 return std::string();
               });
    SweepBuild(op_index, "DeserializePhTreeOr", live, [&](PhTree* tree) {
      Expected<PhTree, SnapshotError> loaded = DeserializePhTreeOr(snapshot);
      if (!loaded) {
        return "load failed: " + loaded.error().ToString();
      }
      *tree = std::move(*loaded);
      return std::string();
    });
  }

  /// Runs `build(tree)` on a fresh empty tree with allocation-site index
  /// 0, 1, 2, ... failing until a run completes without the fault firing.
  template <typename Build>
  void SweepBuild(size_t op_index, const char* what, const Entries& live,
                  Build&& build) {
    // A tree of n entries has at most n nodes.
    for (uint64_t site = 0; report_.failure.empty(); ++site) {
      if (site > live.size() + 1) {
        Fail(op_index, what, site,
             "sweep did not exhaust the build's allocation sites");
        return;
      }
      EpochManager epochs;
      PhTree tree(opts_.commands.dim);
      if (opts_.mvcc) {
        tree.EnableMvcc(&epochs);
      }
      injector_.ArmGlobalIndex(site);
      std::string error;
      bool threw = false;
      try {
        error = build(&tree);
      } catch (const std::bad_alloc&) {
        threw = true;
      }
      const bool fired = injector_.fired();
      injector_.Disarm();
      FaultInjectorSuspend suspend;
      if (!fired) {
        if (threw || !error.empty()) {
          Fail(op_index, what, site, "clean run failed: " + error);
        } else if (TreeContent(tree) != live) {
          Fail(op_index, what, site, "clean build diverged from oracle");
        } else if (std::string err = ValidatePhTreeDeep(tree); !err.empty()) {
          Fail(op_index, what, site, "deep validation: " + err);
        }
        return;
      }
      ++report_.builder_failures;
      if (!threw) {
        Fail(op_index, what, site,
             "injected failure did not throw std::bad_alloc");
      } else if (!tree.empty() || tree.root() != nullptr ||
                 (tree.arena() != nullptr &&
                  tree.arena()->LiveBytes() != 0)) {
        Fail(op_index, what, site, "a failed build left nodes behind");
      } else if (std::string err = ValidatePhTreeDeep(tree); !err.empty()) {
        Fail(op_index, what, site, "deep validation: " + err);
      }
    }
  }

  void ApplyCommand(const Command& cmd) {
    const size_t op_index = report_.ops_run;
    switch (cmd.kind) {
      case OpKind::kInsert: {
        const OpStatus expect = model_.Contains(cmd.key) ? OpStatus::kNoop
                                                         : OpStatus::kApplied;
        Sweep(
            op_index, "Insert", cmd.key, expect,
            [&] { return tree_.TryInsert(cmd.key, cmd.value); },
            [&] { model_.Insert(cmd.key, cmd.value); });
        ++report_.ops_run;
        break;
      }
      case OpKind::kInsertOrAssign: {
        const OpStatus expect = model_.Contains(cmd.key) ? OpStatus::kNoop
                                                         : OpStatus::kApplied;
        Sweep(
            op_index, "InsertOrAssign", cmd.key, expect,
            [&] { return tree_.TryInsertOrAssign(cmd.key, cmd.value); },
            [&] { model_.InsertOrAssign(cmd.key, cmd.value); });
        ++report_.ops_run;
        break;
      }
      case OpKind::kErase: {
        const OpStatus expect = model_.Contains(cmd.key) ? OpStatus::kApplied
                                                         : OpStatus::kNoop;
        Sweep(
            op_index, "Erase", cmd.key, expect,
            [&] { return tree_.TryErase(cmd.key); },
            [&] { model_.Erase(cmd.key); });
        ++report_.ops_run;
        break;
      }
      case OpKind::kUpdate: {
        // The sweep speaks OpStatus; fold the Update outcome onto it
        // (kMoved = applied, the two precondition misses = noop).
        const bool old_present = model_.Contains(cmd.key);
        const bool target_free =
            cmd.key == cmd.key2 || !model_.Contains(cmd.key2);
        const OpStatus expect = old_present && target_free
                                    ? OpStatus::kApplied
                                    : OpStatus::kNoop;
        const std::optional<uint64_t> value =
            cmd.update_keep_value ? std::nullopt
                                  : std::optional<uint64_t>(cmd.value);
        Sweep(
            op_index, "Update", cmd.key, expect,
            [&] {
              switch (tree_.TryUpdate(cmd.key, cmd.key2, value)) {
                case UpdateOutcome::kMoved:
                  return OpStatus::kApplied;
                case UpdateOutcome::kNoMem:
                  return OpStatus::kNoMem;
                case UpdateOutcome::kOldMissing:
                case UpdateOutcome::kNewOccupied:
                  return OpStatus::kNoop;
              }
              return OpStatus::kNoop;
            },
            [&] { model_.Update(cmd.key, cmd.key2, value); }, &cmd.key2);
        ++report_.ops_run;
        break;
      }
      case OpKind::kClear: {
        // Clear is infallible (O(slabs) arena reset, no allocation): apply
        // directly, no sweep. The tree is at a local peak here, so the
        // builder leg runs on what it is about to drop.
        SweepBuilder(op_index);
        tree_.Clear();
        model_.Clear();
        ++report_.ops_run;
        break;
      }
      case OpKind::kBulkLoad: {
        for (const PhEntry& e : cmd.bulk) {
          if (!report_.failure.empty()) {
            return;
          }
          const OpStatus expect = model_.Contains(e.key)
                                      ? OpStatus::kNoop
                                      : OpStatus::kApplied;
          Sweep(
              op_index, "BulkLoad", e.key, expect,
              [&] { return tree_.TryInsert(e.key, e.value); },
              [&] { model_.Insert(e.key, e.value); });
        }
        ++report_.ops_run;
        break;
      }
      default:
        break;  // query kinds: no allocation sites, nothing to sweep
    }
  }

  FaultSweepOptions opts_;
  EpochManager epochs_;  // only attached when opts_.mvcc
  PhTree tree_;
  ReferenceModel model_;
  FaultInjector injector_;
  FaultSweepReport report_;
};

}  // namespace

FaultSweepReport RunFaultSweep(const FaultSweepOptions& opts) {
  Sweeper sweeper(opts);
  return sweeper.Run();
}

}  // namespace testlib
}  // namespace phtree
