// Measurement primitives for perfbench: clocks, a heap
// allocation counter, an in-memory span tracer, host CPU accounting and
// summary statistics.
//
// Spans are recorded only by perfbench's own code, around its calls into
// the netfail libraries, and only on its main thread. A span has a
// name, start, end, parent span and run id. Spans that would be too many to
// keep one by one (one per StreamEngine::feed) are folded into an aggregate
// span carrying the summed duration and the event count. A layer's self
// time is its span's duration minus the durations of its child spans.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using Ns = std::int64_t;

Ns now_ns();          // steady clock
Ns thread_cpu_ns();   // CPU time of the calling thread
Ns process_cpu_ns();  // CPU time of every thread of the process

// ---- allocation counting ------------------------------------------------------
// perfbench replaces the global operator new. Counting is on only inside the
// traced passes and served windows of a traced run; everywhere else an
// allocation pays one relaxed load.
void set_alloc_counting(bool on);
std::uint64_t allocs_total();        // every thread, since counting began
std::uint64_t allocs_this_thread();  // the calling thread only

// ---- spans --------------------------------------------------------------------
struct Span {
  const char* name = "";
  Ns start = 0;
  Ns end = 0;
  Ns dur = 0;           // end - start, or the summed duration of an aggregate
  int parent = -1;      // index into spans(), -1 for a root
  std::uint32_t run = 0;
  std::uint64_t count = 1;  // events folded into an aggregate span
  std::uint64_t allocs = 0; // heap allocations on this thread inside the span
};

class Tracer {
 public:
  bool enabled() const { return enabled_; }
  void set_enabled(bool on) { enabled_ = on; }

  /// A new run id: each timed pass of the traced run gets its own.
  std::uint32_t begin_run() { return ++run_; }

  int open(const char* name);
  void close(int id);
  /// Record an aggregate child of the innermost open span.
  void add_aggregate(const char* name, Ns start, Ns end, Ns summed,
                     std::uint64_t count, std::uint64_t allocs);

  const std::vector<Span>& spans() const { return spans_; }
  /// Duration minus the durations of the direct children.
  Ns self_ns(int id) const;

  /// Write every span as JSON lines to `path`; false on I/O failure.
  bool write(const std::string& path) const;

 private:
  bool enabled_ = false;
  std::uint32_t run_ = 0;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// perfbench's tracer. Main thread only.
Tracer& tracer();

/// Opens a span on the tracer when tracing is on; no-op otherwise.
class Scope {
 public:
  explicit Scope(const char* name)
      : id_(tracer().enabled() ? tracer().open(name) : -1) {}
  ~Scope() {
    if (id_ >= 0) tracer().close(id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  int id() const { return id_; }

 private:
  int id_;
};

// ---- host accounting -------------------------------------------------------------
struct HostSample {
  std::uint64_t busy = 0;
  std::uint64_t steal = 0;
  std::uint64_t total = 0;
};
/// The aggregate cpu line of /proc/stat (zeros when unreadable).
HostSample read_host();
double busy_pct(const HostSample& a, const HostSample& b);
double steal_pct(const HostSample& a, const HostSample& b);

/// Peak resident set size of this process, MB.
double peak_rss_mb();

// ---- statistics --------------------------------------------------------------------
/// Mean of the two middle values for an even count.
double median(std::vector<double> v);
/// Nearest-rank percentile, q in (0, 1].
double percentile(std::vector<double> v, double q);

}  // namespace perfbench
