#include "probe.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <new>

namespace perfbench {
namespace {

std::atomic<bool> g_counting{false};
std::atomic<std::uint64_t> g_allocs{0};
thread_local std::uint64_t t_allocs = 0;

void count_alloc() {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
    ++t_allocs;
  }
}

Ns clock_ns(clockid_t id) {
  timespec ts{};
  clock_gettime(id, &ts);
  return static_cast<Ns>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

}  // namespace
}  // namespace perfbench

// Replaceable global allocation functions: the counting hook for the
// allocs-per-event metrics. Frees are not counted.
void* operator new(std::size_t size) {
  perfbench::count_alloc();
  if (void* p = std::malloc(size != 0 ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  perfbench::count_alloc();
  const std::size_t a = static_cast<std::size_t>(align);
  const std::size_t rounded = (size + a - 1) / a * a;
  if (void* p = std::aligned_alloc(a, rounded != 0 ? rounded : a)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace perfbench {

Ns now_ns() { return clock_ns(CLOCK_MONOTONIC); }
Ns thread_cpu_ns() { return clock_ns(CLOCK_THREAD_CPUTIME_ID); }
Ns process_cpu_ns() { return clock_ns(CLOCK_PROCESS_CPUTIME_ID); }

void set_alloc_counting(bool on) {
  g_counting.store(on, std::memory_order_relaxed);
}
std::uint64_t allocs_total() {
  return g_allocs.load(std::memory_order_relaxed);
}
std::uint64_t allocs_this_thread() { return t_allocs; }

int Tracer::open(const char* name) {
  Span s;
  s.name = name;
  s.start = now_ns();
  s.parent = stack_.empty() ? -1 : stack_.back();
  s.run = run_;
  s.allocs = allocs_this_thread();
  spans_.push_back(s);
  const int id = static_cast<int>(spans_.size()) - 1;
  stack_.push_back(id);
  return id;
}

void Tracer::close(int id) {
  Span& s = spans_[static_cast<std::size_t>(id)];
  s.end = now_ns();
  s.dur = s.end - s.start;
  s.allocs = allocs_this_thread() - s.allocs;
  if (!stack_.empty() && stack_.back() == id) stack_.pop_back();
}

void Tracer::add_aggregate(const char* name, Ns start, Ns end, Ns summed,
                           std::uint64_t count, std::uint64_t allocs) {
  Span s;
  s.name = name;
  s.start = start;
  s.end = end;
  s.dur = summed;
  s.parent = stack_.empty() ? -1 : stack_.back();
  s.run = run_;
  s.count = count;
  s.allocs = allocs;
  spans_.push_back(s);
}

Ns Tracer::self_ns(int id) const {
  Ns self = spans_[static_cast<std::size_t>(id)].dur;
  // Children always follow their parent in recording order.
  for (std::size_t i = static_cast<std::size_t>(id) + 1; i < spans_.size();
       ++i) {
    if (spans_[i].parent == id) self -= spans_[i].dur;
  }
  return self;
}

bool Tracer::write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"id\":%zu,\"name\":\"%s\",\"start_ns\":%lld,\"end_ns\":%lld,"
                 "\"dur_ns\":%lld,\"self_ns\":%lld,\"parent\":%d,\"run\":%u,"
                 "\"count\":%llu,\"allocs\":%llu}\n",
                 i, s.name, static_cast<long long>(s.start),
                 static_cast<long long>(s.end), static_cast<long long>(s.dur),
                 static_cast<long long>(self_ns(static_cast<int>(i))),
                 s.parent, s.run, static_cast<unsigned long long>(s.count),
                 static_cast<unsigned long long>(s.allocs));
  }
  return std::fclose(f) == 0;
}

Tracer& tracer() {
  static Tracer t;
  return t;
}

HostSample read_host() {
  HostSample out;
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return out;
  unsigned long long v[8] = {};
  const int n = std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu",
                            &v[0], &v[1], &v[2], &v[3], &v[4], &v[5], &v[6],
                            &v[7]);
  std::fclose(f);
  if (n < 8) return out;
  // user nice system idle iowait irq softirq steal
  for (unsigned long long x : v) out.total += x;
  out.steal = v[7];
  out.busy = out.total - v[3] - v[4];
  return out;
}

double busy_pct(const HostSample& a, const HostSample& b) {
  const double total = static_cast<double>(b.total - a.total);
  return total > 0 ? 100.0 * static_cast<double>(b.busy - a.busy) / total : 0;
}

double steal_pct(const HostSample& a, const HostSample& b) {
  const double total = static_cast<double>(b.total - a.total);
  return total > 0 ? 100.0 * static_cast<double>(b.steal - a.steal) / total
                   : 0;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const std::size_t idx =
      rank < 1 ? 0 : static_cast<std::size_t>(rank) - 1;
  return v[std::min(idx, v.size() - 1)];
}

}  // namespace perfbench
