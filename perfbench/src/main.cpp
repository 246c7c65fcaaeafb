// perfbench: netfail's end-to-end and per-layer benchmark.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 [--scratch DIR]
//
// Every workload runs the same phases over its own capture, in one process,
// through the libraries' public functions:
//   - analyze passes (the `netfail analyze` computation, in memory) and
//     stream passes (StreamEngine with detection on, over EventMux),
//     interleaved;
//   - spread through them, five served windows (2-shard IngestGateway plus
//     HttpServer on loopback).
// Set-up (simulation, refresh materialization, replay prefix) is timed on
// its own, at both ends of the run. Warm-up passes are discarded; their
// outputs feed the correctness checks. With --trace 0 the result carries the
// end-to-end metrics; with --trace 1 a separate traced run carries the
// per-layer metrics and writes its spans to DIR.
//
// The last line of standard output is the result object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// The line before it holds the run's noise evidence (every pass time, host
// busy and steal shares, pool threads, nproc).

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <functional>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "batch.hpp"
#include "inputs.hpp"
#include "probe.hpp"
#include "served.hpp"
#include "src/common/par.hpp"

namespace perfbench {
namespace {

// Fixed benchmark settings, identical for every workload and commit.
// Set-up runs this many times at the start of a run and again at its end,
// so its median straddles the run's host conditions.
constexpr int kSetupRepeatsEachEnd = 2;
constexpr std::size_t kPoolThreads = 1;  // never inherited from NETFAIL_THREADS
constexpr double kOfferedRate = 20000;   // served phase, events per second
// Shares of --seconds: interleaved analyze and stream passes, then serving.
constexpr double kBatchShare = 0.67;
constexpr double kServeShare = 0.33;
// The served share is split into this many windows spread through the batch
// passes; each served metric is the median of its per-window values, so one
// or two windows hit by a burst of host contention do not move it. At
// --seconds 36 a window lasts ~2.4 s: >100 samples behind each p90.
constexpr int kServeWindows = 5;
constexpr std::size_t kMinCycles = 3;
// Batch throughput comes from the fastest tenth of the passes, not their
// median. Contention from other tenants of a shared host only ever slows a
// pass, and it comes in regimes of 10-30 s that can cover half of a run; the
// fast passes of each run stay comparable from run to run.
constexpr double kBatchQuantile = 0.1;

struct Args {
  Workload workload = Workload::kServedQuery;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string scratch = ".";
};

bool parse_args(int argc, char** argv, Args& a) {
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      if (!parse_workload(value, a.workload)) return false;
      have_workload = true;
    } else if (key == "--seed") {
      a.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return false;
    } else if (key == "--seconds") {
      a.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || a.seconds <= 0) return false;
    } else if (key == "--trace") {
      if (value != "0" && value != "1") return false;
      a.trace = value == "1";
    } else if (key == "--scratch") {
      a.scratch = value;
    } else {
      return false;
    }
  }
  return have_workload && argc % 2 == 1;
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

/// Mutable state of one run: checks, operation counts, metrics, evidence.
struct Run {
  std::vector<std::string> check_failures;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::string evidence;  // JSON members, comma-joined

  void check(bool ok, const std::string& what) {
    if (!ok) check_failures.push_back(what);
  }
  void metric(const std::string& name, double value, const char* unit) {
    metrics.push_back({name, value, unit});
  }
  void note(const std::string& key, const std::string& json_value) {
    if (!evidence.empty()) evidence += ",";
    evidence += "\"" + key + "\":" + json_value;
  }
};

std::string json_list(const std::vector<double>& v) {
  std::string out = "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%s%.6g", i == 0 ? "" : ",", v[i]);
    out += buf;
  }
  return out + "]";
}

std::string json_num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

bool same_transitions(const std::vector<netfail::isis::IsisTransition>& a,
                      const std::vector<netfail::isis::IsisTransition>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const auto& x = a[i];
    const auto& y = b[i];
    if (x.time != y.time || x.dir != y.dir || x.field != y.field ||
        !(x.link == y.link) || x.multilink != y.multilink ||
        !(x.host_a == y.host_a) || !(x.host_b == y.host_b) ||
        x.pair_count_after != y.pair_count_after) {
      return false;
    }
  }
  return true;
}

/// Wall seconds of `pass`, traced as a root span named `root` when
/// `traced`; returns the root span id through `root_id` (-1 untraced).
double timed_pass(const char* root, bool traced, int& root_id,
                  const std::function<void()>& pass) {
  tracer().set_enabled(traced);
  set_alloc_counting(traced);
  root_id = -1;
  const Ns t0 = now_ns();
  if (traced) {
    tracer().begin_run();
    Scope s(root);
    root_id = s.id();
    pass();
  } else {
    pass();
  }
  const double secs = static_cast<double>(now_ns() - t0) / 1e9;
  tracer().set_enabled(false);
  set_alloc_counting(false);
  return secs;
}

/// Per-pass layer numbers from a traced root span's direct children.
struct PassLayers {
  std::vector<Span> children;  // copies: the tracer's storage grows
  double attributed_pct = 0;   // share of the pass covered by child spans

  const Span* find(const char* name) const {
    for (const Span& s : children) {
      if (std::strcmp(s.name, name) == 0) return &s;
    }
    return nullptr;
  }
};

PassLayers layers_of(int root) {
  PassLayers out;
  const std::vector<Span>& spans = tracer().spans();
  for (std::size_t i = static_cast<std::size_t>(root) + 1; i < spans.size();
       ++i) {
    if (spans[i].parent == root) out.children.push_back(spans[i]);
  }
  const Span& r = spans[static_cast<std::size_t>(root)];
  out.attributed_pct =
      r.dur > 0 ? 100.0 * static_cast<double>(r.dur - tracer().self_ns(root)) /
                      static_cast<double>(r.dur)
                : 0;
  return out;
}

double min_of(const std::vector<double>& v) {
  return v.empty() ? 0 : *std::min_element(v.begin(), v.end());
}

// ---- phases ---------------------------------------------------------------------

/// Medians of one traced span's duration (or allocation count) over the
/// traced passes, divided by `scale`.
double layer_median(const std::vector<PassLayers>& layers, const char* name,
                    double scale, bool allocs) {
  std::vector<double> v;
  for (const PassLayers& p : layers) {
    if (const Span* s = p.find(name)) {
      v.push_back((allocs ? static_cast<double>(s->allocs)
                          : static_cast<double>(s->dur)) /
                  scale);
    }
  }
  return median(v);
}

/// Analyze and stream passes, interleaved so both sample the same stretch
/// of host conditions; `interlude` runs kServeWindows times at even steps
/// through the budget, which excludes it. Warm-up passes come first and
/// feed the checks.
void batch_phase(const Inputs& in, const Args& args, Run& run,
                 const std::function<void()>& interlude) {
  const std::vector<netfail::isis::LspRecord>& records = in.records();
  const double lsps = static_cast<double>(records.size());
  const double lines = static_cast<double>(in.capture.sim.collector.size());
  const double events = lsps + lines;

  AnalyzeOutput batch;
  analyze_pass(in, records, &batch);
  StreamOutput streamed;
  stream_pass(in, /*detect=*/true, /*keep_failures=*/true, streamed);
  run.attempted += 2;
  if (in.has_refreshes) {
    // Refreshes carry no change: the analysis must not see them.
    AnalyzeOutput base;
    analyze_pass(in, in.capture.sim.listener.records(), &base);
    run.check(batch.isis_stats.stale_lsps == 0, "refresh: stale LSPs");
    run.check(same_transitions(batch.is_reach, base.is_reach),
              "refresh: IS-reach transitions differ");
    run.check(same_transitions(batch.ip_reach, base.ip_reach),
              "refresh: IP-reach transitions differ");
    run.check(batch.tables == base.tables, "refresh: rendered tables differ");
  }
  run.check(failure_keys(streamed.isis_failures) ==
                failure_keys(batch.isis_failures),
            "stream IS-IS failures differ from batch");
  run.check(failure_keys(streamed.syslog_failures) ==
                failure_keys(batch.syslog_failures),
            "stream syslog failures differ from batch");

  // The traced run cycles through five passes: analyze traced, stream
  // traced, analyze untraced, stream untraced, stream untraced with
  // detection off. Untraced minus traced medians is the tracing overhead.
  enum Kind { kAnalyze, kStream, kStreamNoDetect };
  struct Slot {
    Kind kind;
    bool traced;
  };
  const std::vector<Slot> cycle =
      args.trace ? std::vector<Slot>{{kAnalyze, true},
                                     {kStream, true},
                                     {kAnalyze, false},
                                     {kStream, false},
                                     {kStreamNoDetect, false}}
                 : std::vector<Slot>{{kAnalyze, false}, {kStream, false}};
  std::vector<double> analyze_s, analyze_traced_s;
  std::vector<double> stream_s, stream_traced_s, no_detect_s;
  std::vector<PassLayers> analyze_layers, stream_layers;
  std::vector<double> stream_allocs_per_event;
  const Ns budget = static_cast<Ns>(args.seconds * kBatchShare * 1e9);
  Ns start = now_ns();
  int interludes = 0;
  for (std::size_t i = 0;
       now_ns() - start < budget || i < kMinCycles * cycle.size(); ++i) {
    if (interludes < kServeWindows &&
        now_ns() - start >= budget * (interludes + 1) / (kServeWindows + 1)) {
      const Ns m0 = now_ns();
      interlude();
      start += now_ns() - m0;
      ++interludes;
    }
    const Slot slot = cycle[i % cycle.size()];
    int root = -1;
    const std::uint64_t a0 = allocs_this_thread();
    if (slot.kind == kAnalyze) {
      const double secs = timed_pass("analyze.pass", slot.traced, root, [&] {
        analyze_pass(in, records, nullptr);
      });
      (slot.traced ? analyze_traced_s : analyze_s).push_back(secs);
      if (root >= 0) analyze_layers.push_back(layers_of(root));
    } else {
      StreamOutput out;
      const double secs = timed_pass("stream.pass", slot.traced, root, [&] {
        stream_pass(in, slot.kind == kStream, /*keep_failures=*/false, out);
      });
      if (slot.kind == kStream) {
        run.check(out.alerts == streamed.alerts,
                  "stream: alert count differs between passes");
      }
      (slot.kind == kStreamNoDetect ? no_detect_s
       : slot.traced                ? stream_traced_s
                                    : stream_s)
          .push_back(secs);
      if (root >= 0) {
        stream_layers.push_back(layers_of(root));
        stream_allocs_per_event.push_back(
            static_cast<double>(allocs_this_thread() - a0) / events);
      }
    }
    ++run.attempted;
  }
  for (; interludes < kServeWindows; ++interludes) interlude();
  run.note("analyze_pass_s", json_list(analyze_s));
  run.note("analyze_pass_s_median", json_num(median(analyze_s)));
  run.note("analyze_pass_s_p10",
           json_num(percentile(analyze_s, kBatchQuantile)));
  run.note("stream_pass_s", json_list(stream_s));
  run.note("stream_pass_s_median", json_num(median(stream_s)));
  run.note("stream_pass_s_p10",
           json_num(percentile(stream_s, kBatchQuantile)));
  if (!args.trace) {
    run.metric("analyze_events_per_s",
               events / percentile(analyze_s, kBatchQuantile), "events/s");
    run.metric("stream_events_per_s",
               events / percentile(stream_s, kBatchQuantile), "events/s");
    return;
  }
  run.note("analyze_traced_pass_s", json_list(analyze_traced_s));
  run.note("stream_traced_pass_s", json_list(stream_traced_s));
  run.note("stream_no_detect_pass_s", json_list(no_detect_s));

  const auto& al = analyze_layers;
  run.metric("isis.extract.ns_per_lsp",
             layer_median(al, "isis.extract", lsps, false), "ns");
  run.metric("isis.extract.allocs_per_lsp",
             layer_median(al, "isis.extract", lsps, true), "count");
  run.metric("isis.extract.change_ratio",
             static_cast<double>(batch.is_reach.size() + batch.ip_reach.size()) /
                 lsps,
             "ratio");
  run.metric("syslog.extract.ns_per_line",
             layer_median(al, "syslog.extract", lines, false), "ns");
  run.metric("syslog.extract.allocs_per_line",
             layer_median(al, "syslog.extract", lines, true), "count");
  run.metric("syslog.extract.parse_failures",
             static_cast<double>(batch.syslog_parse_failures), "count");
  for (const char* stage :
       {"analysis.reconstruct", "analysis.sanitize", "analysis.flaps",
        "analysis.match_reachability", "analysis.match_transitions",
        "analysis.match_failures", "analysis.stats", "analysis.tables"}) {
    run.metric(std::string(stage) + ".ms", layer_median(al, stage, 1e6, false),
               "ms");
  }
  run.metric("analysis.failures",
             static_cast<double>(batch.failures_after_sanitize), "count");

  const auto& sl = stream_layers;
  run.metric("isis.stream_feed.ns_per_lsp",
             layer_median(sl, "isis.stream_feed", lsps, false), "ns");
  run.metric("syslog.stream_feed.ns_per_line",
             layer_median(sl, "syslog.stream_feed", lines, false), "ns");
  run.metric("stream.mux.ns_per_event",
             layer_median(sl, "stream.mux", events, false), "ns");
  run.metric("stream.finish.ms", layer_median(sl, "stream.finish", 1e6, false),
             "ms");
  run.metric("stream.pending_peak", static_cast<double>(streamed.pending_peak),
             "count");
  run.metric("stream.allocs_per_event", median(stream_allocs_per_event),
             "count");
  run.metric("detect.overhead_ratio", median(stream_s) / median(no_detect_s),
             "ratio");
  run.metric("detect.alerts", static_cast<double>(streamed.alerts), "count");

  for (const auto& [name, layers] :
       {std::pair{"analyze", &analyze_layers},
        std::pair{"stream", &stream_layers}}) {
    std::vector<double> attributed;
    for (const PassLayers& p : *layers) attributed.push_back(p.attributed_pct);
    run.metric(std::string("trace.") + name + ".attributed_pct_min",
               min_of(attributed), "%");
  }
  run.metric("trace.analyze.overhead_pct",
             100.0 * (median(analyze_traced_s) - median(analyze_s)) /
                 median(analyze_s),
             "%");
  run.metric("trace.stream.overhead_pct",
             100.0 * (median(stream_traced_s) - median(stream_s)) /
                 median(stream_s),
             "%");
}

/// One served window: checks and operation counts go to `run`, the result
/// to `windows`.
void serve_window(const Inputs& in, const Args& args, Run& run,
                  std::vector<ServeResult>& windows) {
  ServeConfig config;
  config.rate = kOfferedRate;
  config.traced = args.trace;
  config.scratch_dir = args.scratch;
  tracer().set_enabled(args.trace);
  set_alloc_counting(args.trace);
  ServeResult r = run_served(in, config);
  tracer().set_enabled(false);
  set_alloc_counting(false);
  if (!r.error.empty()) {
    run.check(false, "served: " + r.error);
    return;
  }
  run.check(r.digest_match, "served: gateway digest differs from in-process");
  // A p90 needs at least ten samples beyond it.
  run.check(r.lag_ms.size() >= 100, "served: fewer than 100 lag samples");
  run.check(r.query_ms.size() >= 100, "served: fewer than 100 query samples");
  // Shortfalls are failed operations below; the gateway may never count more
  // than was sent.
  run.check(r.counters.syslog_datagrams <= r.replay.syslog_sent,
            "served: more datagrams received than sent");
  run.check(r.counters.lsp_frames <= r.replay.lsp_frames_sent,
            "served: more LSP frames received than sent");
  run.attempted += r.queries + r.replay.syslog_sent + r.replay.lsp_frames_sent;
  run.failed += r.non_200 + r.datagrams_dropped + r.frames_missing;
  windows.push_back(std::move(r));
}

void serve_report(const Args& args, const std::vector<ServeResult>& windows,
                  Run& run) {
  if (windows.size() != static_cast<std::size_t>(kServeWindows)) return;
  const auto across = [&](const std::function<double(const ServeResult&)>& f) {
    std::vector<double> v;
    for (const ServeResult& w : windows) v.push_back(f(w));
    return v;
  };
  double sent = 0, dropped = 0;
  for (const ServeResult& w : windows) {
    sent += static_cast<double>(w.replay.syslog_sent);
    dropped += static_cast<double>(w.datagrams_dropped);
  }
  const auto per_window = [&](const char* key,
                              const std::function<double(const ServeResult&)>& f) {
    run.note(key, json_list(across(f)));
  };
  run.note("serve_offered_rate", json_num(kOfferedRate));
  per_window("serve_events", [](const ServeResult& w) {
    return static_cast<double>(w.events_delivered);
  });
  per_window("serve_lag_samples", [](const ServeResult& w) {
    return static_cast<double>(w.lag_ms.size());
  });
  per_window("query_samples", [](const ServeResult& w) {
    return static_cast<double>(w.query_ms.size());
  });
  run.note("serve_drop_ratio", json_num(sent > 0 ? dropped / sent : 0));
  if (!args.trace) {
    const auto window_median =
        [&](const char* name, const char* unit,
            const std::function<double(const ServeResult&)>& f) {
          const std::vector<double> v = across(f);
          run.note(std::string(name) + "_windows", json_list(v));
          run.metric(name, median(v), unit);
        };
    window_median("serve_cpu_us_per_event", "us/event",
                  [](const ServeResult& w) { return w.cpu_us_per_event; });
    window_median("serve_lag_ms_p50", "ms", [](const ServeResult& w) {
      return percentile(w.lag_ms, 0.5);
    });
    window_median("serve_lag_ms_p90", "ms", [](const ServeResult& w) {
      return percentile(w.lag_ms, 0.9);
    });
    window_median("query_ms_p50", "ms", [](const ServeResult& w) {
      return percentile(w.query_ms, 0.5);
    });
    window_median("query_ms_p90", "ms", [](const ServeResult& w) {
      return percentile(w.query_ms, 0.9);
    });
    return;
  }
  // Per-layer numbers come from the last window.
  const ServeResult& r = windows.back();
  const auto& c = r.counters;
  run.metric("stream.shard_skew", r.shard_skew, "ratio");
  run.metric("stream.lsp_broadcast_factor", r.lsp_broadcast_factor, "ratio");
  run.metric("net.syslog_datagrams", static_cast<double>(c.syslog_datagrams),
             "count");
  run.metric("net.lsp_frames", static_cast<double>(c.lsp_frames), "count");
  run.metric("net.queue_drops", static_cast<double>(c.syslog_queue_drops),
             "count");
  run.metric("net.backpressure_pauses",
             static_cast<double>(c.backpressure_pauses), "count");
  run.metric("net.drop_ratio", sent > 0 ? dropped / sent : 0, "ratio");
  run.metric("net.allocs_per_event", r.net_allocs_per_event, "count");
  run.metric("net.stop.ms", r.stop_ms, "ms");
  run.metric("net.replay.late_ms_end", r.replay_late_ms_end, "ms");
  run.metric("svc.snapshot_engines.ms", median(r.snapshot_engines_ms), "ms");
  run.metric("svc.http.handle_links.ms", median(r.handle_links_ms), "ms");
  run.metric("svc.http.allocs_per_query", r.allocs_per_links_query, "count");
  run.metric("svc.http.allocs_per_healthz", r.allocs_per_healthz_query,
             "count");
  run.metric("svc.http.bytes_per_query", r.bytes_per_links_query, "bytes");
  run.metric("svc.snapshot.save_ms", r.snapshot_save_ms, "ms");
  run.metric("svc.snapshot.bytes", r.snapshot_bytes, "bytes");
}

void print_result(const Run& run) {
  std::printf("{\"perfbench\":{%s}}\n", run.evidence.c_str());
  for (const std::string& f : run.check_failures) {
    std::fprintf(stderr, "perfbench: check failed: %s\n", f.c_str());
  }
  std::string metrics;
  for (const Metric& m : run.metrics) {
    if (!metrics.empty()) metrics += ", ";
    metrics += "\"" + m.name + "\": {\"value\": " + json_num(m.value) +
               ", \"unit\": \"" + m.unit + "\"}";
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              run.check_failures.empty() ? "true" : "false",
              static_cast<unsigned long long>(run.attempted),
              static_cast<unsigned long long>(run.failed), metrics.c_str());
  std::fflush(stdout);
}

int run_main(const Args& args) {
  // An explicit pool size: the analysis fan-outs never inherit
  // NETFAIL_THREADS or the machine's core count.
  netfail::par::ThreadPool pool(kPoolThreads);
  netfail::par::PoolGuard guard(&pool);

  Run run;
  const HostSample host0 = read_host();
  const std::size_t serve_events =
      static_cast<std::size_t>(kOfferedRate * args.seconds * kServeShare /
                               kServeWindows);

  // Set-up: deterministic compute only, repeated; the median is reported.
  std::vector<double> setup;
  std::optional<Inputs> in;
  const auto set_up = [&] {
    for (int i = 0; i < kSetupRepeatsEachEnd; ++i) {
      in.reset();
      const Ns t0 = now_ns();
      in.emplace(build_inputs(args.workload, args.seed, serve_events));
      setup.push_back(static_cast<double>(now_ns() - t0) / 1e9);
    }
  };
  set_up();
  run.note("workload", "\"" + std::string(workload_name(args.workload)) + "\"");
  run.note("seed", std::to_string(args.seed));
  run.note("pool_threads", std::to_string(pool.threads()));
  run.note("nproc", std::to_string(std::thread::hardware_concurrency()));
  run.note("syslog_lines", std::to_string(in->capture.sim.collector.size()));
  run.note("lsps", std::to_string(in->records().size()));
  const RefreshReport refresh = in->refresh;
  if (in->has_refreshes) {
    run.note("refresh_written", std::to_string(refresh.written));
    run.note("refresh_analytic", std::to_string(refresh.analytic));
    run.note("refresh_real_lsps", std::to_string(refresh.real));
    // The materializer and the simulator's analytic count cover the same
    // span with the same period; they differ only at its edges.
    const double written = static_cast<double>(refresh.written);
    const double analytic = static_cast<double>(refresh.analytic);
    run.check(analytic > 0 && written > 0.99 * analytic &&
                  written < 1.01 * analytic,
              "refresh: written count is not within 1% of the analytic count");
  }

  std::vector<ServeResult> windows;
  batch_phase(*in, args, run,
              [&] { serve_window(*in, args, run, windows); });
  serve_report(args, windows, run);
  set_up();
  in.reset();
  run.note("setup_s", json_list(setup));

  const HostSample host1 = read_host();
  run.note("host_busy_pct", json_num(busy_pct(host0, host1)));
  run.note("host_steal_pct", json_num(steal_pct(host0, host1)));
  if (!args.trace) {
    run.metric("setup_s", median(setup), "s");
  } else {
    // Peak RSS is deterministic per seed but steps with the heap layout at
    // input-size thresholds (±15% across seeds), too wide for a bounded
    // end-to-end metric; it is reported here, from the traced run.
    run.metric("peak_rss_mb", peak_rss_mb(), "MB");
    run.metric("host.busy_pct", busy_pct(host0, host1), "%");
    run.metric("host.steal_pct", steal_pct(host0, host1), "%");
    const std::string path =
        (std::filesystem::path(args.scratch) /
         ("perfbench-trace-" + std::string(workload_name(args.workload)) +
          "-" + std::to_string(args.seed) + ".jsonl"))
            .string();
    run.check(tracer().write(path), "trace: cannot write " + path);
    run.note("trace_file", "\"" + path + "\"");
  }
  print_result(run);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload table1_refresh|flap_storm|"
                 "served_query --seed N --seconds S --trace 0|1 "
                 "[--scratch DIR]\n");
    return 2;
  }
  return perfbench::run_main(args);
}
