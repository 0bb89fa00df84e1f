#include "trace.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>

namespace phbench::trace {
namespace internal {
std::atomic<bool> g_enabled{false};
}  // namespace internal

namespace {

using Clock = std::chrono::steady_clock;

const Clock::time_point g_origin = Clock::now();

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           g_origin)
          .count());
}

struct Event {
  const char* name;
  uint64_t start_ns;
  uint64_t dur_ns;
  uint64_t op;
  uint64_t id;
  uint64_t parent;  // 0 = top level
};

struct Open {
  const char* name;
  uint64_t start_ns;
  uint64_t child_ns;
  uint64_t op;
  uint64_t id;
};

struct NameTotals {
  const char* name;
  uint64_t count;
  uint64_t total_ns;
  uint64_t self_ns;
};

struct ThreadBuffer {
  int tid = 0;
  std::vector<Event> ring;
  uint64_t written = 0;
  uint64_t next_id = 1;
  std::vector<Open> stack;
  std::vector<NameTotals> totals;
};

std::mutex g_registry_mutex;
std::vector<std::unique_ptr<ThreadBuffer>> g_registry;  // guarded

ThreadBuffer& Local() {
  thread_local ThreadBuffer* buffer = nullptr;
  if (buffer == nullptr) {
    auto owned = std::make_unique<ThreadBuffer>();
    owned->ring.resize(kRingEvents);
    std::lock_guard lock(g_registry_mutex);
    owned->tid = static_cast<int>(g_registry.size()) + 1;
    buffer = owned.get();
    g_registry.push_back(std::move(owned));
  }
  return *buffer;
}

}  // namespace

namespace internal {

void Begin(const char* name, uint64_t op_id) {
  ThreadBuffer& b = Local();
  b.stack.push_back(Open{name, NowNs(), 0, op_id, b.next_id++});
}

void End() {
  const uint64_t end = NowNs();
  ThreadBuffer& b = Local();
  const Open open = b.stack.back();
  b.stack.pop_back();
  const uint64_t dur = end - open.start_ns;
  const uint64_t self = dur > open.child_ns ? dur - open.child_ns : 0;
  uint64_t parent = 0;
  if (!b.stack.empty()) {
    b.stack.back().child_ns += dur;
    parent = b.stack.back().id;
  }
  auto it = std::find_if(b.totals.begin(), b.totals.end(),
                         [&](const NameTotals& t) { return t.name == open.name; });
  if (it == b.totals.end()) {
    b.totals.push_back(NameTotals{open.name, 0, 0, 0});
    it = b.totals.end() - 1;
  }
  ++it->count;
  it->total_ns += dur;
  it->self_ns += self;
  b.ring[b.written % kRingEvents] =
      Event{open.name, open.start_ns, dur, open.op, open.id, parent};
  ++b.written;
}

}  // namespace internal

void SetEnabled(bool on) {
  internal::g_enabled.store(on, std::memory_order_relaxed);
}

std::vector<SpanTotals> Totals() {
  std::map<std::string, SpanTotals> merged;
  std::lock_guard lock(g_registry_mutex);
  for (const auto& b : g_registry) {
    for (const NameTotals& t : b->totals) {
      SpanTotals& m = merged[t.name];
      m.name = t.name;
      m.count += t.count;
      m.total_us += static_cast<double>(t.total_ns) / 1000.0;
      m.self_us += static_cast<double>(t.self_ns) / 1000.0;
    }
  }
  std::vector<SpanTotals> out;
  for (auto& [name, t] : merged) {
    out.push_back(std::move(t));
  }
  return out;
}

bool WriteChromeTrace(const std::string& path) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  std::fprintf(f, "{\"displayTimeUnit\": \"ns\", \"traceEvents\": [\n");
  bool first = true;
  std::lock_guard lock(g_registry_mutex);
  for (const auto& b : g_registry) {
    std::fprintf(f,
                 "%s{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, "
                 "\"tid\": %d, \"args\": {\"name\": \"phbench-%d\"}}",
                 first ? "" : ",\n", b->tid, b->tid);
    first = false;
    const uint64_t kept = std::min<uint64_t>(b->written, kRingEvents);
    for (uint64_t i = b->written - kept; i < b->written; ++i) {
      const Event& e = b->ring[i % kRingEvents];
      std::fprintf(f,
                   ",\n{\"name\": \"%s\", \"cat\": \"phbench\", \"ph\": \"X\", "
                   "\"ts\": %.3f, \"dur\": %.3f, \"pid\": 1, \"tid\": %d, "
                   "\"args\": {\"op\": %llu, \"id\": %llu, \"parent\": %llu}}",
                   e.name, static_cast<double>(e.start_ns) / 1000.0,
                   static_cast<double>(e.dur_ns) / 1000.0, b->tid,
                   static_cast<unsigned long long>(e.op),
                   static_cast<unsigned long long>(e.id),
                   static_cast<unsigned long long>(e.parent));
    }
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

}  // namespace phbench::trace
