// In-memory span recorder for the traced phbench run.
//
// phbench wraps each public library call it makes in a Span (the op,
// and inside a write op the tree call and the WAL append that make it up).
// Each thread records into its own buffer: a ring of the most recent
// kRingEvents spans for the trace file, plus exact per-name totals of
// count, duration and self time (duration minus the time covered by child
// spans) over every span. Nothing is shared between threads while spans
// are recorded; Totals() and WriteChromeTrace() read the buffers after the
// recording threads have been joined. Recording is off unless SetEnabled.
#ifndef PHBENCH_TRACE_H_
#define PHBENCH_TRACE_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace phbench::trace {

inline constexpr size_t kRingEvents = size_t{1} << 16;

namespace internal {
extern std::atomic<bool> g_enabled;
void Begin(const char* name, uint64_t op_id);
void End();
}  // namespace internal

inline bool Enabled() {
  return internal::g_enabled.load(std::memory_order_relaxed);
}
void SetEnabled(bool on);

/// RAII span. `name` must be a string literal (names are keyed by
/// address while recording). Costs one relaxed load when tracing is off.
class Span {
 public:
  Span(const char* name, uint64_t op_id) : active_(Enabled()) {
    if (active_) {
      internal::Begin(name, op_id);
    }
  }
  ~Span() {
    if (active_) {
      internal::End();
    }
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  bool active_;
};

struct SpanTotals {
  std::string name;
  uint64_t count = 0;
  double total_us = 0;
  double self_us = 0;
};

/// Per-name totals merged over all threads, sorted by name.
std::vector<SpanTotals> Totals();

/// Writes the retained spans as Chrome trace-event JSON (opens in
/// Perfetto or chrome://tracing). Returns false if the file cannot be
/// written.
bool WriteChromeTrace(const std::string& path);

}  // namespace phbench::trace

#endif  // PHBENCH_TRACE_H_
