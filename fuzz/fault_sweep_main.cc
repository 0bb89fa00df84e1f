// Exhaustive allocation-fault sweep driver (testlib/fault_sweep): every
// mutating command of a seeded trace is re-run with the injector armed to
// fail allocation-site hit 0, 1, 2, ... until the op runs clean; every
// injected failure must roll back to an oracle-identical tree. This is
// the acceptance harness for the commit-or-rollback contract; CI runs it
// as the `fault_sweep_acceptance` ctest, and with --mvcc (the tree under
// the copy-on-write publish policy) as `fault_sweep_acceptance_mvcc`. A
// final builder leg fails every allocation of an empty-tree BulkLoad and
// of a snapshot load of the trace's live entries; each must roll back to
// an empty tree.
//
// Usage: fault_sweep [--ops N] [--seed S] [--dim K] [--grid-bits B]
//                    [--deep-every N] [--mvcc]
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "testlib/fault_sweep.h"

namespace {

uint64_t ParseU64(const char* flag, const char* value) {
  char* end = nullptr;
  const uint64_t v = std::strtoull(value, &end, 0);
  if (end == value || *end != '\0') {
    std::fprintf(stderr, "bad value for %s: %s\n", flag, value);
    std::exit(2);
  }
  return v;
}

}  // namespace

int main(int argc, char** argv) {
  using phtree::testlib::FaultSweepOptions;
  using phtree::testlib::FaultSweepReport;

  FaultSweepOptions opts;
  opts.ops = 50000;
  opts.seed = 20260809;
  opts.commands.dim = 2;
  opts.commands.grid_bits = 8;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--ops") {
      opts.ops = ParseU64("--ops", value());
    } else if (arg == "--seed") {
      opts.seed = ParseU64("--seed", value());
    } else if (arg == "--dim") {
      opts.commands.dim = static_cast<uint32_t>(ParseU64("--dim", value()));
    } else if (arg == "--grid-bits") {
      opts.commands.grid_bits =
          static_cast<uint32_t>(ParseU64("--grid-bits", value()));
    } else if (arg == "--deep-every") {
      opts.deep_every = ParseU64("--deep-every", value());
    } else if (arg == "--mvcc") {
      opts.mvcc = true;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      return 2;
    }
  }

  const FaultSweepReport report = RunFaultSweep(opts);
  std::printf(
      "fault_sweep: seed=%llu dim=%u grid_bits=%u mvcc=%d ops=%zu "
      "injected_failures=%zu absorbed_faults=%zu deep_checks=%zu "
      "builder_failures=%zu\n",
      static_cast<unsigned long long>(opts.seed), opts.commands.dim,
      opts.commands.grid_bits, opts.mvcc ? 1 : 0, report.ops_run,
      report.injected_failures, report.absorbed_faults, report.deep_checks,
      report.builder_failures);
  if (!report.ok()) {
    std::fprintf(stderr, "ROLLBACK VIOLATION: %s\n", report.failure.c_str());
    return 1;
  }
  std::printf("every injected failure rolled back cleanly\n");
  return 0;
}
