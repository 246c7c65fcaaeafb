// The counting operators live in their own translation unit so the
// compiler never inlines them into callers (it would then pair a visible
// malloc with a visible free across a new/delete and warn).
#include "tests/svc/alloc_counter.hpp"

#include <atomic>
#include <cstdlib>
#include <memory>  // std::bad_alloc

namespace {
std::atomic<std::uint64_t> g_allocs{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace netfail::testing_support {

std::uint64_t alloc_count() {
  return g_allocs.load(std::memory_order_relaxed);
}

}  // namespace netfail::testing_support
