#include "served.hpp"

#include <sys/socket.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <thread>

#include "probe.hpp"
#include "src/net/socket.hpp"
#include "src/stream/engine.hpp"
#include "src/stream/event_mux.hpp"
#include "src/stream/merge.hpp"
#include "src/svc/http.hpp"
#include "src/svc/snapshot.hpp"

namespace perfbench {

namespace net = netfail::net;
namespace stream = netfail::stream;
namespace svc = netfail::svc;
namespace analysis = netfail::analysis;

namespace {

constexpr std::uint32_t kShards = 2;
constexpr Ns kQueryIntervalNs = 10'000'000;  // /healthz and /links alternate

void sleep_until_ns(Ns deadline) {
  const Ns wait = deadline - now_ns();
  if (wait > 0) std::this_thread::sleep_for(std::chrono::nanoseconds(wait));
}

/// Route the engine's released objects into `run` (callbacks run on the
/// engine's own thread: a shard's consumer, or the caller for the reference).
void collect_into(stream::StreamEngine& e, stream::ShardRun& run) {
  e.isis_tracker().on_failure = [&run](const analysis::Failure& f) {
    run.isis_failures.push_back(f);
  };
  e.syslog_tracker().on_failure = [&run](const analysis::Failure& f) {
    run.syslog_failures.push_back(f);
  };
  e.isis_tracker().on_ambiguous = [&run](const analysis::AmbiguousSegment& a) {
    run.isis_ambiguous.push_back(a);
  };
  e.syslog_tracker().on_ambiguous =
      [&run](const analysis::AmbiguousSegment& a) {
        run.syslog_ambiguous.push_back(a);
      };
  e.isis_tracker().on_flap_episode = [&run](const analysis::FlapEpisode& ep) {
    run.isis_episodes.push_back(ep);
  };
  e.syslog_tracker().on_flap_episode =
      [&run](const analysis::FlapEpisode& ep) {
        run.syslog_episodes.push_back(ep);
      };
}

stream::EngineOptions engine_options(const Inputs& in) {
  stream::EngineOptions o;
  o.tracker.reconstruct.period = in.capture.period;
  return o;
}

/// The in-process reference: one StreamEngine over the same capture prefix,
/// with syslog arrivals stamped as the gateway stamps them.
std::string reference_digest(const Inputs& in) {
  stream::StreamEngine engine(in.capture.census, engine_options(in));
  stream::ShardRun run;
  collect_into(engine, run);
  stream::EventMux mux = stream::EventMux::over_vectors(
      in.serve.stamped_lines, in.serve.records);
  while (std::optional<stream::StreamEvent> ev = mux.next()) engine.feed(*ev);
  engine.finish();
  run.engine = &engine;
  const stream::ShardRun runs[] = {run};
  return stream::render_digest(stream::merge_shard_runs(runs),
                               in.capture.census);
}

/// A blocking keep-alive HTTP/1.1 client: one request, one full response.
class HttpClient {
 public:
  netfail::Status connect(std::uint16_t port) {
    auto fd = net::tcp_connect("127.0.0.1", port);
    if (!fd) return netfail::Status(fd.error());
    fd_ = std::move(*fd);
    return net::set_nodelay(fd_);
  }

  /// Status code, or -1 when the connection failed.
  int get(const char* path, std::string& body) {
    std::snprintf(request_, sizeof(request_),
                  "GET %s HTTP/1.1\r\nHost: perfbench\r\n\r\n", path);
    const std::size_t len = std::strlen(request_);
    for (std::size_t off = 0; off < len;) {
      const ssize_t n = ::send(fd_.get(), request_ + off, len - off, 0);
      if (n <= 0) return -1;
      off += static_cast<std::size_t>(n);
    }
    std::size_t head_end = std::string::npos;
    while ((head_end = in_.find("\r\n\r\n")) == std::string::npos) {
      if (!fill()) return -1;
    }
    const int status = std::atoi(in_.c_str() + in_.find(' ') + 1);
    std::size_t content_length = 0;
    const std::size_t cl = in_.find("Content-Length:");
    if (cl != std::string::npos && cl < head_end) {
      content_length = std::strtoul(in_.c_str() + cl + 15, nullptr, 10);
    }
    const std::size_t total = head_end + 4 + content_length;
    while (in_.size() < total) {
      if (!fill()) return -1;
    }
    body.assign(in_, head_end + 4, content_length);
    in_.erase(0, total);
    return status;
  }

 private:
  bool fill() {
    char buf[16384];
    const ssize_t n = ::recv(fd_.get(), buf, sizeof(buf), 0);
    if (n <= 0) return false;
    in_.append(buf, static_cast<std::size_t>(n));
    return true;
  }

  net::Fd fd_;
  std::string in_;
  char request_[128] = {};
};

/// Thread-local costs a generator thread reports back once it has ended.
struct ThreadCost {
  Ns cpu_ns = 0;
  std::uint64_t allocs = 0;
};

}  // namespace

ServeResult run_served(const Inputs& in, const ServeConfig& config) {
  ServeResult out;
  if (!net::sockets_available()) {
    out.error = "sockets unavailable";
    return out;
  }
  const ServeInputs& traffic = in.serve;
  const netfail::LinkCensus& census = in.capture.census;

  net::GatewayOptions go;
  go.capture_start = in.capture.period.begin;
  go.engine = engine_options(in);
  go.shards = kShards;
  std::vector<stream::ShardRun> runs(kShards);
  go.engine_setup = [&runs](std::uint32_t shard, stream::StreamEngine& e) {
    collect_into(e, runs[shard]);
  };
  net::IngestGateway gw(census, go);
  if (netfail::Status st = gw.start(); !st.ok()) {
    out.error = "gateway start: " + st.error().to_string();
    return out;
  }
  svc::HttpOptions ho;
  ho.period_begin = in.capture.period.begin;
  svc::HttpServer http(
      census, [&gw] { return gw.snapshot_engines(); },
      [] { return netfail::Status::ok_status(); }, ho);
  if (netfail::Status st = http.start(); !st.ok()) {
    gw.stop();
    out.error = "http start: " + st.error().to_string();
    return out;
  }
  HttpClient client;
  if (netfail::Status st = client.connect(http.port()); !st.ok()) {
    http.stop();
    gw.stop();
    out.error = "http connect: " + st.error().to_string();
    return out;
  }

  // ---- the measured window: replay + queries until the gateway drains ----
  const std::size_t events = traffic.stamp_prefix_max_ms.size();
  std::atomic<bool> sending{true};
  std::atomic<Ns> replay_t0{0};
  ThreadCost replay_cost, client_cost;
  netfail::Result<net::ReplayStats> replay_stats =
      netfail::make_error(netfail::ErrorCode::kInternal, "replay not run");
  Ns replay_end = 0;

  const Ns main_cpu0 = thread_cpu_ns();
  const std::uint64_t main_allocs0 = allocs_this_thread();
  const std::uint64_t allocs0 = allocs_total();
  const Ns proc_cpu0 = process_cpu_ns();

  std::thread replayer([&] {
    const Ns cpu0 = thread_cpu_ns();
    const std::uint64_t a0 = allocs_this_thread();
    net::ReplayOptions ro;
    ro.syslog_port = gw.syslog_port();
    ro.lsp_port = gw.lsp_port();
    ro.rate = config.rate;
    replay_t0.store(now_ns());
    replay_stats = net::replay_capture(traffic.lines, traffic.records, ro);
    replay_end = now_ns();
    sending.store(false);
    replay_cost = {thread_cpu_ns() - cpu0, allocs_this_thread() - a0};
  });
  std::thread querier([&] {
    const Ns cpu0 = thread_cpu_ns();
    const std::uint64_t a0 = allocs_this_thread();
    while (replay_t0.load() == 0) std::this_thread::yield();
    const Ns start = replay_t0.load();
    const double ns_per_event = 1e9 / config.rate;
    std::string body;
    for (std::uint64_t q = 0; sending.load(); ++q) {
      const Ns due = start + static_cast<Ns>(q) * kQueryIntervalNs;
      sleep_until_ns(due);
      if (!sending.load()) break;
      const bool healthz = q % 2 == 0;
      const int status = client.get(healthz ? "/healthz" : "/links", body);
      const Ns answered = now_ns();
      ++out.queries;
      if (status != 200) {
        ++out.non_200;
        if (status < 0) break;
        continue;
      }
      if (!healthz) {
        out.query_ms.push_back(static_cast<double>(answered - due) / 1e6);
        continue;
      }
      const std::size_t at = body.find("\"high_water_ms\":");
      if (at == std::string::npos) continue;
      const std::int64_t hw = std::strtoll(body.c_str() + at + 16, nullptr, 10);
      const auto& pm = traffic.stamp_prefix_max_ms;
      const auto it = std::upper_bound(pm.begin(), pm.end(), hw);
      if (it == pm.begin()) continue;  // nothing applied yet
      // The replay releases events in groups of 32, each group when its
      // first event is due; the newest covered event's group was due here.
      const std::size_t k = static_cast<std::size_t>(it - pm.begin()) - 1;
      const Ns event_due =
          start + static_cast<Ns>(static_cast<double>(k / 32 * 32) *
                                  ns_per_event);
      out.lag_ms.push_back(static_cast<double>(answered - event_due) / 1e6);
    }
    client_cost = {thread_cpu_ns() - cpu0, allocs_this_thread() - a0};
  });

  if (config.traced) {
    // The snapshot handshake on its own, beside the HTTP traffic.
    while (sending.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
      if (!sending.load()) break;
      const Ns t0 = now_ns();
      {
        Scope s("svc.snapshot_engines");
        (void)gw.snapshot_engines();
      }
      out.snapshot_engines_ms.push_back(static_cast<double>(now_ns() - t0) /
                                        1e6);
    }
  }
  replayer.join();
  querier.join();
  const std::uint64_t min_conns =
      replay_stats.ok() ? 1 + replay_stats->reconnects : 1;
  const bool drained =
      gw.wait_replay_complete(std::chrono::seconds(60), min_conns);

  const Ns proc_cpu = process_cpu_ns() - proc_cpu0;
  const Ns main_cpu = thread_cpu_ns() - main_cpu0;
  const std::uint64_t server_allocs =
      allocs_total() - allocs0 - replay_cost.allocs - client_cost.allocs -
      (allocs_this_thread() - main_allocs0);

  if (config.traced) {
    // Route handling without the socket, against the drained gateway. The
    // snapshot handshake allocates on the shard consumers, so allocations
    // are counted process-wide (every other thread is idle by now).
    constexpr int kDirectQueries = 20;
    for (const char* path : {"/healthz", "/links"}) {
      const bool links = std::strcmp(path, "/links") == 0;
      std::uint64_t allocs = 0;
      std::size_t bytes = 0;
      for (int i = 0; i < kDirectQueries; ++i) {
        const std::uint64_t a0 = allocs_total();
        const Ns t0 = now_ns();
        svc::HttpServer::Response r;
        {
          Scope s(links ? "svc.http.handle_links" : "svc.http.handle_healthz");
          r = http.handle("GET", path);
        }
        if (links) {
          out.handle_links_ms.push_back(static_cast<double>(now_ns() - t0) /
                                        1e6);
        }
        allocs += allocs_total() - a0;
        bytes += r.body.size();
      }
      (links ? out.allocs_per_links_query : out.allocs_per_healthz_query) =
          static_cast<double>(allocs) / kDirectQueries;
      if (links) {
        out.bytes_per_links_query = static_cast<double>(bytes) / kDirectQueries;
      }
    }
  }
  http.stop();
  {
    const Ns t0 = now_ns();
    Scope s("net.stop");
    gw.stop();
    out.stop_ms = static_cast<double>(now_ns() - t0) / 1e6;
  }

  if (!replay_stats.ok()) {
    out.error = "replay: " + replay_stats.error().to_string();
    return out;
  }
  if (!drained) {
    out.error = "gateway did not drain the replay within 60 s";
    return out;
  }
  out.replay = *replay_stats;
  out.counters = gw.counters();
  out.replay_late_ms_end =
      static_cast<double>((replay_end - replay_t0.load()) -
                          static_cast<Ns>(static_cast<double>(events) * 1e9 /
                                          config.rate)) /
      1e6;

  std::uint64_t syslog_applied = 0;
  std::uint64_t lsp_applied = 0;
  std::uint64_t max_shard = 0;
  for (std::uint32_t i = 0; i < kShards; ++i) {
    const stream::StreamEngine& e = gw.engine(i);
    syslog_applied += e.syslog_events();
    lsp_applied += e.lsp_events();
    max_shard = std::max<std::uint64_t>(max_shard, e.events_ingested());
    runs[i].engine = &gw.engine(i);
  }
  out.events_delivered = syslog_applied + out.counters.lsp_frames;
  out.datagrams_dropped = out.replay.syslog_sent > syslog_applied
                              ? out.replay.syslog_sent - syslog_applied
                              : 0;
  out.frames_missing = out.replay.lsp_frames_sent > out.counters.lsp_frames
                           ? out.replay.lsp_frames_sent - out.counters.lsp_frames
                           : 0;
  const double delivered = static_cast<double>(std::max<std::uint64_t>(
      out.events_delivered, 1));
  out.cpu_us_per_event =
      static_cast<double>(proc_cpu - main_cpu - replay_cost.cpu_ns -
                          client_cost.cpu_ns) /
      1e3 / delivered;
  out.net_allocs_per_event = static_cast<double>(server_allocs) / delivered;
  std::uint64_t shard_events = 0;
  for (std::uint32_t i = 0; i < kShards; ++i) {
    shard_events += gw.engine(i).events_ingested();
  }
  out.shard_skew = shard_events > 0
                       ? static_cast<double>(max_shard) * kShards /
                             static_cast<double>(shard_events)
                       : 0;
  out.lsp_broadcast_factor =
      out.counters.lsp_frames > 0
          ? static_cast<double>(lsp_applied) /
                static_cast<double>(out.counters.lsp_frames)
          : 0;

  const std::string digest =
      stream::render_digest(stream::merge_shard_runs(runs), census);
  out.digest_match = digest == reference_digest(in);

  if (config.traced) {
    std::vector<const stream::StreamEngine*> engines;
    for (std::uint32_t i = 0; i < kShards; ++i) {
      engines.push_back(&gw.engine(i));
    }
    const std::string path =
        (std::filesystem::path(config.scratch_dir) / "perfbench.nfsnap")
            .string();
    const Ns t0 = now_ns();
    netfail::Status saved = netfail::Status::ok_status();
    {
      Scope s("svc.snapshot.save");
      saved = svc::save_snapshot(path, engines, census);
    }
    out.snapshot_save_ms = static_cast<double>(now_ns() - t0) / 1e6;
    std::error_code ec;
    out.snapshot_bytes =
        saved.ok()
            ? static_cast<double>(std::filesystem::file_size(path, ec))
            : 0;
    std::filesystem::remove(path, ec);
    if (!saved.ok()) out.error = "snapshot save: " + saved.error().to_string();
  }
  return out;
}

}  // namespace perfbench
