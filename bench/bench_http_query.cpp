// Live-query throughput of the svc::HttpServer: how many /links renders per
// second the serve verb can answer while holding the read-consistency
// contract (every request copies one QuerySnapshot per shard through
// snapshot_fn: per-link stats and alert counts, O(links)).
//
// Three passes:
//
//   http_handle_links   the render path alone — handle("GET", "/links")
//                       driven directly, no sockets. This is the pass that
//                       always lands in the JSON trajectory, so the gate
//                       works in sandboxes that forbid sockets.
//   http_query_healthz  full socket round trips (connect once, keep-alive
//                       GETs) for the cheap liveness route.
//   http_query_links    the same for the full per-link table — the
//                       expensive production query.
//
// Queries/sec is reported as events_per_sec (check.sh gates it at 10%).
// The snapshot source is a serial engine fed the whole seed-7 capture, so
// the rendered table has real failure/downtime/alert payloads.
#include <benchmark/benchmark.h>

#include <sys/socket.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "src/analysis/scenario_cache.hpp"
#include "src/common/assert.hpp"
#include "src/common/strfmt.hpp"
#include "src/net/socket.hpp"
#include "src/sim/network_sim.hpp"
#include "src/stream/engine.hpp"
#include "src/stream/event_mux.hpp"
#include "src/svc/http.hpp"

namespace {

using namespace netfail;

struct Fixture {
  std::shared_ptr<const analysis::PipelineCapture> cap;
  std::unique_ptr<stream::StreamEngine> engine;
};

const Fixture& fixture() {
  static const Fixture f = [] {
    Fixture out;
    out.cap = analysis::ScenarioCache::global().capture(sim::test_scenario(7));
    stream::EngineOptions options;
    options.tracker.reconstruct.period = out.cap->period;
    options.detect.enabled = true;
    out.engine =
        std::make_unique<stream::StreamEngine>(out.cap->census, options);
    stream::EventMux mux = stream::EventMux::over_vectors(
        out.cap->sim.collector.lines(), out.cap->sim.listener.records());
    while (std::optional<stream::StreamEvent> ev = mux.next()) {
      out.engine->feed(*ev);
    }
    return out;
  }();
  return f;
}

std::unique_ptr<svc::HttpServer> make_server() {
  const Fixture& f = fixture();
  svc::HttpOptions o;
  o.period_begin = f.cap->period.begin;
  return std::make_unique<svc::HttpServer>(
      f.cap->census,
      [] {
        std::vector<stream::QuerySnapshot> snaps;
        snaps.push_back(fixture().engine->query_snapshot());
        return snaps;
      },
      nullptr, o);
}

struct PassResult {
  std::uint64_t queries = 0;
  std::uint64_t bytes = 0;
  std::uint64_t allocs = 0;
  double wall_ms = 0;

  double queries_per_sec() const {
    return wall_ms > 0 ? static_cast<double>(queries) / (wall_ms / 1e3) : 0.0;
  }
  double allocs_per_query() const {
    return queries > 0
               ? static_cast<double>(allocs) / static_cast<double>(queries)
               : 0.0;
  }
};

/// Socket-free render pass: dispatch `target` through handle() n times.
PassResult handle_pass(const std::string& target, std::uint64_t n) {
  auto srv = make_server();
  PassResult out;
  const std::uint64_t alloc0 = bench::alloc_count();
  const auto t0 = std::chrono::steady_clock::now();
  for (std::uint64_t i = 0; i < n; ++i) {
    const auto r = srv->handle("GET", target);
    NETFAIL_ASSERT(r.status == 200, "handle failed");
    out.bytes += r.body.size();
  }
  const auto t1 = std::chrono::steady_clock::now();
  out.allocs = bench::alloc_count() - alloc0;
  out.queries = n;
  out.wall_ms =
      std::chrono::duration_cast<std::chrono::duration<double, std::milli>>(
          t1 - t0)
          .count();
  return out;
}

/// Read one HTTP/1.1 response (headers + Content-Length body) from `fd`.
bool read_response(int fd, std::string& buf, std::uint64_t* bytes) {
  std::size_t body_at = std::string::npos;
  std::size_t content_length = 0;
  for (;;) {
    if (body_at == std::string::npos) {
      const std::size_t head_end = buf.find("\r\n\r\n");
      if (head_end != std::string::npos) {
        const std::size_t cl = buf.find("Content-Length: ");
        if (cl == std::string::npos || cl > head_end) return false;
        content_length = static_cast<std::size_t>(
            std::strtoull(buf.c_str() + cl + 16, nullptr, 10));
        body_at = head_end + 4;
      }
    }
    if (body_at != std::string::npos && buf.size() >= body_at + content_length) {
      *bytes += body_at + content_length;
      buf.erase(0, body_at + content_length);
      return true;
    }
    char chunk[8192];
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n <= 0) return false;
    buf.append(chunk, static_cast<std::size_t>(n));
  }
}

/// Socket pass: one keep-alive connection, n sequential GETs.
PassResult socket_pass(const svc::HttpServer& srv, const std::string& target,
                       std::uint64_t n) {
  auto fd = net::tcp_connect("127.0.0.1", srv.port());
  NETFAIL_ASSERT(fd.ok(), "connect failed");
  const std::string req =
      "GET " + target + " HTTP/1.1\r\nHost: bench\r\n\r\n";
  PassResult out;
  std::string buf;
  const std::uint64_t alloc0 = bench::alloc_count();
  const auto t0 = std::chrono::steady_clock::now();
  for (std::uint64_t i = 0; i < n; ++i) {
    NETFAIL_ASSERT(::send(fd->get(), req.data(), req.size(), 0) ==
                       static_cast<ssize_t>(req.size()),
                   "send failed");
    NETFAIL_ASSERT(read_response(fd->get(), buf, &out.bytes),
                   "response read failed");
  }
  const auto t1 = std::chrono::steady_clock::now();
  out.allocs = bench::alloc_count() - alloc0;
  out.queries = n;
  out.wall_ms =
      std::chrono::duration_cast<std::chrono::duration<double, std::milli>>(
          t1 - t0)
          .count();
  return out;
}

// ---- google-benchmark wrappers (manual runs; check.sh filters these out) ----

void BM_HandleLinks(benchmark::State& state) {
  auto srv = make_server();
  std::uint64_t queries = 0;
  for (auto _ : state) {
    const auto r = srv->handle("GET", "/links");
    benchmark::DoNotOptimize(r.body.data());
    ++queries;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(queries));
}
BENCHMARK(BM_HandleLinks)->Unit(benchmark::kMicrosecond);

void BM_HandleHealthz(benchmark::State& state) {
  auto srv = make_server();
  std::uint64_t queries = 0;
  for (auto _ : state) {
    const auto r = srv->handle("GET", "/healthz");
    benchmark::DoNotOptimize(r.body.data());
    ++queries;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(queries));
}
BENCHMARK(BM_HandleHealthz)->Unit(benchmark::kMicrosecond);

}  // namespace

template <typename Fn>
PassResult best_of(int reps, Fn&& pass) {
  PassResult best = pass();
  for (int i = 1; i < reps; ++i) {
    PassResult r = pass();
    if (r.queries_per_sec() > best.queries_per_sec()) best = r;
  }
  return best;
}

int main(int argc, char** argv) {
  using netfail::bench::BenchJsonEntry;
  const int reps = netfail::bench::take_repeat_flag(&argc, argv);

  std::string table = "== netfail::svc HTTP query throughput ==\n";
  std::vector<BenchJsonEntry> entries;

  table += netfail::strformat("%-22s %10s %12s %12s %8s\n", "pass", "queries",
                              "queries/sec", "bytes/query", "allocs");
  const auto row = [&table, &entries](const char* name, const PassResult& r) {
    table += netfail::strformat(
        "%-22s %10llu %12.0f %12llu %8.1f\n", name,
        static_cast<unsigned long long>(r.queries), r.queries_per_sec(),
        static_cast<unsigned long long>(r.queries > 0 ? r.bytes / r.queries
                                                      : 0),
        r.allocs_per_query());
    BenchJsonEntry e;
    e.name = name;
    e.wall_ms = r.wall_ms;
    e.events_per_sec = r.queries_per_sec();
    e.threads = 2;  // caller + server loop thread
    entries.push_back(e);
  };

  // Warm-up builds the fixture (simulation + full feed) outside the clock;
  // each entry then reports the best of `reps` passes (scheduler-noise
  // rejection, same policy as the other self-timed benches).
  (void)handle_pass("/healthz", 1);
  row("http_handle_links",
      best_of(reps, [] { return handle_pass("/links", 2000); }));

  if (netfail::net::sockets_available()) {
    auto srv = make_server();
    const netfail::Status started = srv->start();
    NETFAIL_ASSERT(started.ok(), "http start failed");
    (void)socket_pass(*srv, "/healthz", 50);
    row("http_query_healthz",
        best_of(reps, [&] { return socket_pass(*srv, "/healthz", 5000); }));
    row("http_query_links",
        best_of(reps, [&] { return socket_pass(*srv, "/links", 2000); }));
    srv->stop();
  } else {
    table += "sockets unavailable in this sandbox — socket passes skipped\n";
  }

  return netfail::bench::table_bench_main(argc, argv, table, entries);
}
