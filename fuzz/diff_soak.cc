// Differential soak: the long-running form of the model-based runner.
// Replays a seeded random workload simultaneously against every tree
// variant and exits non-zero on the first oracle divergence or invariant
// violation. The default configuration replays well over one million
// operation applications (ops x variants); CI runs it as the
// `differential_soak` ctest (not tier-1 — the tier-1 suite has its own
// bounded differential tests).
//
// Usage: diff_soak [--ops N] [--seed S] [--dim K] [--grid-bits B]
//                  [--validate-every N] [--no-baselines] [--no-concurrent]
//                  [--tmp DIR] [--fault_seed S] [--fault_every_n N]
//                  [--readers N]
//
// --fault_every_n N > 0 turns on random allocation-fault injection (see
// DiffOptions::fault_every_n): roughly one in N allocation-site hits
// throws, every bad_alloc is counted and the op retried, and the oracle
// comparison doubles as a rollback check, on every variant (the sharded
// ones included).
//
// After the variant-matrix soak, a concurrent phase (skipped under
// --no-concurrent, fault mode, or --readers 0) reruns the stream in
// DiffOptions::reader_threads mode — one exact-oracle writer on a
// PhTreeSync plus N lock-free reader threads — and keeps drawing fresh
// seeds until writer applications + reader probes exceed one million.
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>

#include "testlib/differential.h"

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
  using phtree::testlib::DiffOptions;
  using phtree::testlib::DiffReport;

  DiffOptions opts;
  opts.ops = 140000;  // >= 1.2M replayed applications over 11 variants
  opts.seed = 20260807;
  opts.commands.dim = 2;
  opts.commands.grid_bits = 8;
  opts.validate_every = 20000;
  std::string tmp_dir = "diff_soak.tmp";
  uint64_t readers = 4;  // concurrent-phase reader threads; 0 disables

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
    } else if (arg == "--validate-every") {
      opts.validate_every = ParseU64("--validate-every", value());
    } else if (arg == "--fault_seed" || arg == "--fault-seed") {
      opts.fault_seed = ParseU64("--fault_seed", value());
    } else if (arg == "--fault_every_n" || arg == "--fault-every-n") {
      opts.fault_every_n = ParseU64("--fault_every_n", value());
    } else if (arg == "--readers") {
      readers = ParseU64("--readers", value());
    } else if (arg == "--no-baselines") {
      opts.include_baselines = false;
    } else if (arg == "--no-concurrent") {
      opts.include_concurrent = false;
    } else if (arg == "--tmp") {
      tmp_dir = value();
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      return 2;
    }
  }

  std::error_code ec;
  std::filesystem::create_directories(tmp_dir, ec);
  if (!ec) {
    opts.tmp_dir = tmp_dir;
  } else {
    std::fprintf(stderr,
                 "cannot create %s (%s); file-based snapshot round-trips "
                 "will be skipped\n",
                 tmp_dir.c_str(), ec.message().c_str());
  }

  const DiffReport report = RunDifferential(opts);

  std::printf(
      "diff_soak: seed=%llu dim=%u grid_bits=%u ops=%zu replayed=%zu "
      "variants=%zu max_size=%zu final_size=%zu injected_failures=%zu "
      "bulk_loads_into_empty=%zu save_loads=%zu\n",
      static_cast<unsigned long long>(opts.seed), opts.commands.dim,
      opts.commands.grid_bits, report.ops_run, report.replayed,
      report.variants, report.max_size, report.final_size,
      report.injected_failures, report.bulk_loads_into_empty,
      report.save_loads);
  if (!report.ok()) {
    std::filesystem::remove_all(tmp_dir, ec);
    std::fprintf(stderr, "DIVERGENCE: %s\n", report.divergence.c_str());
    return 1;
  }

  // Concurrent phase: same workload shape, reader_threads mode. Reader
  // probe counts vary with machine speed, so keep drawing seeds until the
  // million-application bar is met (writer ops + reader probes/audits).
  if (opts.include_concurrent && opts.fault_every_n == 0 && readers > 0) {
    constexpr size_t kTargetApplications = 1000000;
    size_t applications = 0;
    uint64_t seed = opts.seed + 1;
    for (int round = 0; applications < kTargetApplications && round < 64;
         ++round, ++seed) {
      DiffOptions copts = opts;
      copts.reader_threads = static_cast<size_t>(readers);
      copts.seed = seed;
      const DiffReport creport = RunDifferential(copts);
      applications += creport.replayed;
      std::printf(
          "diff_soak concurrent: seed=%llu readers=%llu ops=%zu "
          "replayed=%zu (cumulative %zu) bulk_loads_into_empty=%zu "
          "save_loads=%zu\n",
          static_cast<unsigned long long>(seed),
          static_cast<unsigned long long>(readers), creport.ops_run,
          creport.replayed, applications, creport.bulk_loads_into_empty,
          creport.save_loads);
      if (!creport.ok()) {
        std::filesystem::remove_all(tmp_dir, ec);
        std::fprintf(stderr, "DIVERGENCE (concurrent): %s\n",
                     creport.divergence.c_str());
        return 1;
      }
    }
  }

  std::filesystem::remove_all(tmp_dir, ec);
  std::printf("zero divergence\n");
  return 0;
}
