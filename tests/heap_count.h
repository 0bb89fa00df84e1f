// Counts the calling thread's heap allocations by replacing the global
// operator new (and the matching deletes) with malloc/free wrappers. Every
// non-aligned form is replaced, so that no pairing mixes a sanitizer's own
// operator new with free(). The replacement functions are defined here,
// not declared: include this header in exactly one translation unit of a
// test binary.
#ifndef PHTREE_TESTS_HEAP_COUNT_H_
#define PHTREE_TESTS_HEAP_COUNT_H_

#include <cstdint>
#include <cstdlib>
#include <new>

namespace phtree::testing_heap {

inline thread_local uint64_t t_allocs = 0;

/// operator new calls this thread has made so far.
inline uint64_t HeapAllocs() { return t_allocs; }

}  // namespace phtree::testing_heap

// GCC inlines these pairs at call sites and then sees free() applied to
// the result of operator new; here that pairing is the point.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  ++phtree::testing_heap::t_allocs;
  return std::malloc(n == 0 ? 1 : n);
}

void* operator new(std::size_t n) {
  if (void* p = operator new(n, std::nothrow)) {
    return p;
  }
  throw std::bad_alloc();
}

void* operator new[](std::size_t n) { return operator new(n); }

void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return operator new(n, std::nothrow);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

#endif  // PHTREE_TESTS_HEAP_COUNT_H_
