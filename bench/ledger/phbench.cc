// phbench: the repository benchmark program.
//
//   phbench --workload NAME --seed N [--seconds S] [--trace 0|1]
//           [--trace-file PATH] [--out PATH] [--scale X] [--sha SHA]
//
// --trace 0 measures the end-to-end metrics: the index is built at least
// three times (setup_s is the median build), then the workload's clients
// run for --seconds. Times are at the reference clock (see Steady in
// phbench.h); the unscaled figures are printed as `# workload wall {...}`. --trace 1 is the per-layer run: one build, a quarter of
// --seconds untraced and a quarter with spans recorded (their ratio is the
// tracing overhead), then the per-layer probes and the layer ladder on the
// workload's data; the spans go to --trace-file as Chrome trace JSON.
//
// Every answer is checked after the timed phase. phbench prints each
// metric as `workload metric value unit`, then, as its last line, one JSON
// object {"correct", "attempted", "failed", "metrics"}. --out writes the
// same result with the per-op-kind distributions, span totals and run
// metadata. Refuses to run from anything but a Release build.
#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <thread>

#include "common/simd.h"
#include "phbench.h"
#include "phtree/cursor.h"
#include "trace.h"

#ifndef PHBENCH_BUILD_TYPE
#define PHBENCH_BUILD_TYPE "unknown"
#endif

namespace phbench {

const char* OpName(OpKind kind) {
  switch (kind) {
    case OpKind::kFind: return "op.find";
    case OpKind::kFindBatch: return "op.find_batch";
    case OpKind::kWindow: return "op.window";
    case OpKind::kWindowPaged: return "op.window_paged";
    case OpKind::kKnn: return "op.knn";
    case OpKind::kUpdate: return "op.update";
    case OpKind::kInsert: return "op.insert";
    case OpKind::kErase: return "op.erase";
    case OpKind::kExpire: return "op.expire";
    case OpKind::kCheckpoint: return "op.checkpoint";
  }
  return "op.unknown";
}

Slice& ClientStats::SliceAt(Clock::time_point t) {
  const size_t i =
      t <= origin_ ? 0 : static_cast<size_t>((t - origin_) / kSlice);
  if (i >= slices_.size()) {
    slices_.resize(i + 1);
  }
  return slices_[i];
}

void ClientStats::Merge(const ClientStats& other) {
  all_.Merge(other.all_);
  for (size_t k = 0; k < kOpKinds; ++k) {
    by_kind_[k].Merge(other.by_kind_[k]);
  }
  failed_ += other.failed_;
  windows_ += other.windows_;
  window_results_ += other.window_results_;
}

ClientStats PhaseStats::Merged() const {
  ClientStats merged;
  for (const ClientStats& c : clients) {
    merged.Merge(c);
  }
  return merged;
}

WindowDigest DrainWindow(const phtree::PhTree& tree,
                         std::span<const uint64_t> lo,
                         std::span<const uint64_t> hi) {
  WindowDigest w;
  phtree::WindowPage page = tree.QueryWindowPage(lo, hi, kPageEntries);
  for (;;) {
    for (const auto& entry : page.entries) {
      ++w.count;
      w.value_sum += entry.second;
    }
    if (!page.more) {
      return w;
    }
    page = tree.QueryWindowPage(lo, hi, kPageEntries, page.token);
  }
}

SteadyStats Steady(const PhaseStats& ps) {
  std::vector<uint64_t> canaries;
  size_t n = 0;
  for (const ClientStats& c : ps.clients) {
    n = std::max(n, c.slices().size());
    for (const Slice& s : c.slices()) {
      canaries.insert(canaries.end(), s.canary_ns.begin(), s.canary_ns.end());
    }
  }
  SteadyStats out;
  out.canary_ns = canaries.empty() ? kReferenceCanaryNs : Median(canaries);
  // Only slices that lie wholly inside the phase; a phase shorter than one
  // slice uses what it has.
  const auto complete = static_cast<size_t>(
      ps.wall_s / std::chrono::duration<double>(kSlice).count());
  const size_t use = std::min(n, complete > 0 ? complete : n);
  std::vector<double> rate;
  std::vector<double> p50;
  std::vector<double> p99;
  for (size_t i = 0; i < use; ++i) {
    LatencyHistogram merged;
    double r = 0;
    for (const ClientStats& c : ps.clients) {
      if (i >= c.slices().size() || c.slices()[i].latency.sum() == 0) {
        continue;
      }
      const Slice& s = c.slices()[i];
      const double canary =
          s.canary_ns.empty() ? out.canary_ns : Median(s.canary_ns);
      const double factor = kReferenceCanaryNs / canary;
      merged.MergeScaled(s.latency, factor);
      r += static_cast<double>(s.latency.count()) * 1e9 /
           (s.latency.sum() * factor);
    }
    if (merged.count() != 0) {
      rate.push_back(r);
      p50.push_back(merged.Percentile(0.5) / 1000);
      p99.push_back(merged.Percentile(0.99) / 1000);
    }
  }
  out.ops_per_s = Median(rate);
  out.p50_us = Median(p50);
  out.p99_us = Median(p99);
  out.slices = rate.size();
  return out;
}

void Checker::Fail(const std::string& what) {
  ++failures_;
  if (messages_.size() < 20) {
    messages_.push_back(what);
  }
}

namespace {

struct Args {
  RunOptions run;
  std::string out_path;
  std::string trace_path;
  std::string sha = "unknown";
};

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "phbench: %s\nusage: phbench --workload NAME --seed N "
               "[--seconds S] [--trace 0|1] [--trace-file PATH] [--out PATH] "
               "[--scale X] [--sha SHA]\nworkloads:",
               why);
  for (const std::string& w : WorkloadNames()) {
    std::fprintf(stderr, " %s", w.c_str());
  }
  std::fprintf(stderr, "\n");
  std::exit(2);
}

double ParsePositive(const std::string& flag, const char* text) {
  char* end = nullptr;
  const double v = std::strtod(text, &end);
  if (end == text || *end != '\0' || !(v > 0)) {
    Usage(("bad value for " + flag).c_str());
  }
  return v;
}

Args ParseArgs(int argc, char** argv) {
  Args a;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      Usage(("missing value for " + flag).c_str());
    }
    const std::string value = argv[++i];
    if (flag == "--workload") {
      a.run.workload = value;
    } else if (flag == "--seed") {
      char* end = nullptr;
      a.run.seed = std::strtoull(value.c_str(), &end, 10);
      if (value.empty() || value[0] == '-' || *end != '\0') {
        Usage("--seed takes a non-negative integer");
      }
      have_seed = true;
    } else if (flag == "--seconds") {
      a.run.seconds = ParsePositive(flag, value.c_str());
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") {
        Usage("--trace takes 0 or 1");
      }
      a.run.trace = value == "1";
    } else if (flag == "--scale") {
      a.run.scale = ParsePositive(flag, value.c_str());
    } else if (flag == "--out") {
      a.out_path = value;
    } else if (flag == "--trace-file") {
      a.trace_path = value;
    } else if (flag == "--sha") {
      a.sha = value;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_seed) {
    Usage("--seed is required");
  }
  return a;
}

struct ResourceUsage {
  double cpu_s;
  uint64_t vol_ctx_switches;
  uint64_t minor_faults;
};

ResourceUsage ReadUsage() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) / 1e6;
  };
  return {secs(ru.ru_utime) + secs(ru.ru_stime),
          static_cast<uint64_t>(ru.ru_nvcsw),
          static_cast<uint64_t>(ru.ru_minflt)};
}

PhaseStats TimedPhase(Workload* wl, double seconds) {
  PhaseStats ps;
  const ResourceUsage before = ReadUsage();
  const auto t0 = Clock::now();
  ps.clients.assign(static_cast<size_t>(wl->clients()), ClientStats(t0));
  wl->Run(seconds, &ps);
  ps.wall_s = static_cast<double>(ElapsedNs(t0, Clock::now())) / 1e9;
  const ResourceUsage after = ReadUsage();
  ps.cpu_s = after.cpu_s - before.cpu_s;
  ps.vol_ctx_switches = after.vol_ctx_switches - before.vol_ctx_switches;
  ps.minor_faults = after.minor_faults - before.minor_faults;
  return ps;
}

std::string Num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
    }
    out += static_cast<unsigned char>(c) < 0x20 ? ' ' : c;
  }
  return out + "\"";
}

std::string MetricsJson(const std::vector<Metric>& metrics) {
  std::string s = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    s += (i == 0 ? "" : ", ") + Quote(metrics[i].name) + ": {\"value\": " +
         Num(metrics[i].value) + ", \"unit\": " + Quote(metrics[i].unit) + "}";
  }
  return s + "}";
}

std::string KindsJson(const ClientStats& merged) {
  std::string s = "{";
  bool first = true;
  for (size_t k = 0; k < kOpKinds; ++k) {
    const LatencyHistogram& h = merged.kind(static_cast<OpKind>(k));
    if (h.count() == 0) {
      continue;
    }
    s += std::string(first ? "" : ", ") + Quote(OpName(static_cast<OpKind>(k))) +
         ": {\"count\": " + std::to_string(h.count()) +
         ", \"p50_us\": " + Num(h.Percentile(0.5) / 1000) +
         ", \"p99_us\": " + Num(h.Percentile(0.99) / 1000) +
         ", \"p999_us\": " + Num(h.Percentile(0.999) / 1000) +
         ", \"max_us\": " + Num(static_cast<double>(h.max()) / 1000) +
         ", \"mean_us\": " + Num(h.mean() / 1000) + "}";
    first = false;
  }
  return s + "}";
}

std::string SpansJson(const std::vector<trace::SpanTotals>& spans) {
  std::string s = "[";
  for (size_t i = 0; i < spans.size(); ++i) {
    s += std::string(i == 0 ? "" : ", ") + "{\"name\": " + Quote(spans[i].name) +
         ", \"count\": " + std::to_string(spans[i].count) +
         ", \"total_us\": " + Num(spans[i].total_us) +
         ", \"self_us\": " + Num(spans[i].self_us) + "}";
  }
  return s + "]";
}

void PrintLine(const std::string& workload, const Metric& m) {
  std::printf("%s %s %s %s\n", workload.c_str(), m.name.c_str(),
              Num(m.value).c_str(), m.unit.c_str());
}

int Main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  const RunOptions& o = args.run;
  if (std::strcmp(PHBENCH_BUILD_TYPE, "Release") != 0) {
    std::fprintf(stderr,
                 "phbench: refusing to measure a '%s' build; configure with "
                 "-DCMAKE_BUILD_TYPE=Release\n",
                 PHBENCH_BUILD_TYPE);
    return 2;
  }
  std::unique_ptr<Workload> wl = MakeWorkload(o);
  if (wl == nullptr) {
    Usage(("unknown workload '" + o.workload + "'").c_str());
  }
  const double timer_ns = TimerOverheadNs();
  std::printf("# phbench workload=%s seed=%llu seconds=%s trace=%d scale=%s\n",
              o.workload.c_str(), static_cast<unsigned long long>(o.seed),
              Num(o.seconds).c_str(), o.trace ? 1 : 0, Num(o.scale).c_str());
  std::fflush(stdout);

  auto t0 = Clock::now();
  wl->Generate();
  const double gen_s = static_cast<double>(ElapsedNs(t0, Clock::now())) / 1e9;

  // setup_s is the median build at the reference clock: each build's time
  // is scaled by kReferenceCanaryNs over the median canary timed just
  // before and after it. At least three builds, then more while they have
  // taken under 3 s (at most 50): a build of a few milliseconds is too
  // short to time once.
  std::vector<double> setups;
  std::vector<double> setups_wall;
  double setup_total = 0;
  const size_t min_builds = o.trace ? 1 : 3;
  while (setups.size() < min_builds ||
         (!o.trace && setup_total < 3.0 && setups.size() < 50)) {
    std::vector<uint64_t> canary = {CanaryNs(), CanaryNs(), CanaryNs()};
    t0 = Clock::now();
    wl->Setup();
    const double build_s =
        static_cast<double>(ElapsedNs(t0, Clock::now())) / 1e9;
    canary.insert(canary.end(), {CanaryNs(), CanaryNs(), CanaryNs()});
    setup_total += build_s;
    setups_wall.push_back(build_s);
    setups.push_back(build_s * kReferenceCanaryNs / Median(canary));
  }
  const double setup_s = Median(setups);

  std::vector<Metric> metrics;
  PhaseStats phase;
  Checker check;
  if (!o.trace) {
    phase = TimedPhase(wl.get(), o.seconds);
    const SteadyStats steady = Steady(phase);
    metrics = {
        {"setup_s", setup_s, "s"},
        {"ops_per_s", steady.ops_per_s, "1/s"},
        {"op_p50_us", steady.p50_us, "us"},
        {"op_p99_us", steady.p99_us, "us"},
        {"bytes_per_entry", wl->BytesPerEntry(), "B"},
    };
  } else {
    const PhaseStats plain = TimedPhase(wl.get(), o.seconds / 4);
    trace::SetEnabled(true);
    phase = TimedPhase(wl.get(), o.seconds / 4);
    const ClientStats merged = phase.Merged();
    const double ops = static_cast<double>(std::max<uint64_t>(merged.ops(), 1));
    metrics.push_back(
        {"cursor.results_per_window",
         static_cast<double>(merged.window_results()) /
             static_cast<double>(std::max<uint64_t>(merged.windows(), 1)),
         "count"});
    const ProbeInput in = wl->MakeProbeInput();
    RunProbes(in, &metrics, &check);
    trace::SetEnabled(false);
    metrics.push_back({"proc.cpu_util",
                       phase.cpu_s / (phase.wall_s * wl->clients()), "ratio"});
    metrics.push_back({"proc.vol_ctx_switches_per_kop",
                       static_cast<double>(phase.vol_ctx_switches) * 1000 / ops,
                       "1/kop"});
    metrics.push_back({"proc.minor_faults_per_kop",
                       static_cast<double>(phase.minor_faults) * 1000 / ops,
                       "1/kop"});
    metrics.push_back({"bench.timer_ns", timer_ns, "ns"});
    metrics.push_back({"bench.canary_ns", Steady(phase).canary_ns, "ns"});
    metrics.push_back({"bench.gen_s", gen_s, "s"});
    metrics.push_back({"bench.trace_overhead_frac",
                       merged.all().mean() / plain.Merged().all().mean() - 1,
                       "ratio"});
  }
  wl->Verify(&check);

  // Whole-phase figures, unscaled: what the clients saw on this host.
  const ClientStats merged = phase.Merged();
  const SteadyStats steady = Steady(phase);
  double wall_rate = 0;
  for (const ClientStats& c : phase.clients) {
    wall_rate += c.all().sum() > 0
                     ? static_cast<double>(c.ops()) * 1e9 / c.all().sum()
                     : 0;
  }
  const std::string wall =
      "{\"ops_per_s\": " + Num(wall_rate) +
      ", \"op_p50_us\": " + Num(merged.all().Percentile(0.5) / 1000) +
      ", \"op_p99_us\": " + Num(merged.all().Percentile(0.99) / 1000) +
      ", \"op_p999_us\": " + Num(merged.all().Percentile(0.999) / 1000) +
      ", \"ops\": " + std::to_string(merged.ops()) +
      ", \"slices\": " + std::to_string(steady.slices) +
      ", \"canary_ns\": " + Num(steady.canary_ns) +
      ", \"setup_s\": " + Num(Median(setups_wall)) +
      ", \"builds\": " + std::to_string(setups.size()) + "}";

  for (const Metric& m : metrics) {
    PrintLine(o.workload, m);
  }
  std::printf("# %s wall %s\n", o.workload.c_str(), wall.c_str());
  for (size_t k = 0; k < kOpKinds; ++k) {
    const LatencyHistogram& h = merged.kind(static_cast<OpKind>(k));
    if (h.count() != 0) {
      const std::string name = OpName(static_cast<OpKind>(k));
      std::printf("# %s %s count=%llu p50_us=%s p99_us=%s p999_us=%s max_us=%s\n",
                  o.workload.c_str(), name.c_str(),
                  static_cast<unsigned long long>(h.count()),
                  Num(h.Percentile(0.5) / 1000).c_str(),
                  Num(h.Percentile(0.99) / 1000).c_str(),
                  Num(h.Percentile(0.999) / 1000).c_str(),
                  Num(static_cast<double>(h.max()) / 1000).c_str());
    }
  }
  const std::vector<trace::SpanTotals> spans = trace::Totals();
  for (const trace::SpanTotals& s : spans) {
    std::printf("# %s span %s count=%llu total_us=%s self_us=%s\n",
                o.workload.c_str(), s.name.c_str(),
                static_cast<unsigned long long>(s.count),
                Num(s.total_us).c_str(), Num(s.self_us).c_str());
  }
  for (const std::string& msg : check.messages()) {
    std::printf("# WRONG: %s\n", msg.c_str());
  }
  if (o.trace && !args.trace_path.empty() &&
      !trace::WriteChromeTrace(args.trace_path)) {
    check.Fail("cannot write trace file " + args.trace_path);
  }

  const std::string result =
      std::string("{\"correct\": ") + (check.ok() ? "true" : "false") +
      ", \"attempted\": " + std::to_string(merged.ops()) +
      ", \"failed\": " + std::to_string(merged.failed()) +
      ", \"metrics\": " + MetricsJson(metrics) + "}";
  if (!args.out_path.empty()) {
    std::string errors;
    for (const std::string& msg : check.messages()) {
      errors += (errors.empty() ? "" : ", ") + Quote(msg);
    }
    const std::string full =
        "{\"workload\": " + Quote(o.workload) +
        ", \"seed\": " + std::to_string(o.seed) +
        ", \"seconds\": " + Num(o.seconds) +
        ", \"trace\": " + (o.trace ? "1" : "0") +
        ", \"scale\": " + Num(o.scale) +
        ",\n \"metadata\": {\"sha\": " + Quote(args.sha) +
        ", \"build_type\": " + Quote(PHBENCH_BUILD_TYPE) +
        ", \"cores\": " + std::to_string(std::thread::hardware_concurrency()) +
        ", \"simd\": " + Quote(phtree::simd::ActiveKernelName()) +
        ", \"wal_fs\": \"memory\", \"timer_ns\": " + Num(timer_ns) +
        "},\n \"correct\": " + (check.ok() ? "true" : "false") +
        ", \"attempted\": " + std::to_string(merged.ops()) +
        ", \"failed\": " + std::to_string(merged.failed()) +
        ", \"errors\": [" + errors + "],\n \"metrics\": " +
        MetricsJson(metrics) + ",\n \"wall\": " + wall +
        ",\n \"ops\": " + KindsJson(merged) +
        ",\n \"spans\": " + SpansJson(spans) + "}\n";
    FILE* f = std::fopen(args.out_path.c_str(), "w");
    if (f == nullptr || std::fputs(full.c_str(), f) < 0 ||
        std::fclose(f) != 0) {
      std::fprintf(stderr, "phbench: cannot write %s\n", args.out_path.c_str());
      return 1;
    }
  }
  std::printf("%s\n", result.c_str());
  return 0;
}

}  // namespace
}  // namespace phbench

int main(int argc, char** argv) {
  try {
    return phbench::Main(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "phbench: %s\n", e.what());
    return 1;
  }
}
