// The per-query cost of the live HTTP API, pinned by allocation count: a
// query reads one QuerySnapshot per shard (O(links) plain values), so the
// number of heap allocations behind GET /healthz is a small constant that
// must not grow as the engines accumulate events, tracker state and
// alerts. A deep copy of the engines would allocate per tracked link, per
// drift cell and per alert.
//
// The count is process-wide (tests/svc/alloc_counter.hpp): it includes the
// shard consumers' side of the snapshot handshake.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <thread>
#include <vector>

#include "src/analysis/scenario_cache.hpp"
#include "src/net/gateway.hpp"
#include "src/net/replay.hpp"
#include "src/net/socket.hpp"
#include "src/sim/network_sim.hpp"
#include "src/svc/http.hpp"
#include "tests/svc/alloc_counter.hpp"

namespace netfail::svc {
namespace {

using Scenario = std::shared_ptr<const analysis::PipelineCapture>;

/// Upper bounds on allocations per query. /healthz: the snapshot vector,
/// one row vector per shard, the decoded path, the body's growth steps and
/// the response's content type. /links adds the per-link row index and
/// a body that grows to the whole table.
constexpr std::uint64_t kMaxHealthzAllocs = 16;
constexpr std::uint64_t kMaxLinksAllocs = 40;

std::uint64_t allocs_of(HttpServer& srv, const char* target) {
  const std::uint64_t before = testing_support::alloc_count();
  const HttpServer::Response r = srv.handle("GET", target);
  const std::uint64_t after = testing_support::alloc_count();
  EXPECT_EQ(r.status, 200) << target;
  return after - before;
}

struct Totals {
  std::uint64_t events = 0;
  std::uint64_t alerts = 0;
};

Totals totals(net::IngestGateway& gw) {
  const std::vector<stream::QuerySnapshot> snaps = gw.snapshot_engines();
  Totals t;
  t.events = snaps.front().lsp_events;
  for (const stream::QuerySnapshot& snap : snaps) {
    t.events += snap.syslog_events;
    for (const stream::QueryLinkRow& row : snap.links) {
      t.alerts += row.alerts.hard_down + row.alerts.flap_cusum +
                  row.alerts.template_drift;
    }
  }
  return t;
}

/// Replay `lines` + `records` and wait until the gateway has applied all
/// of them (the replay-complete signal alone can fire before a second
/// replay's datagrams are read: the first replay's end marker was seen).
void replay_and_drain(net::IngestGateway& gw,
                      const std::vector<syslog::ReceivedLine>& lines,
                      const std::vector<isis::LspRecord>& records,
                      std::uint64_t connections, std::uint64_t want_events) {
  net::ReplayOptions r;
  r.syslog_port = gw.syslog_port();
  r.lsp_port = gw.lsp_port();
  r.rate = 20000.0;
  const auto stats = net::replay_capture(lines, records, r);
  ASSERT_TRUE(stats.ok()) << stats.error().to_string();
  ASSERT_TRUE(gw.wait_replay_complete(std::chrono::seconds(60), connections));
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (totals(gw).events < want_events &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_EQ(totals(gw).events, want_events);
}

TEST(SvcQueryAlloc, PerQueryAllocationsAreConstantAsStateGrows) {
  if (!net::sockets_available()) GTEST_SKIP() << "sandbox forbids sockets";
  const Scenario s =
      analysis::ScenarioCache::global().capture(sim::test_scenario(1));

  // Two halves of the capture, split at the middle of the study period.
  const TimePoint mid =
      s->period.begin + (s->period.end - s->period.begin) / 2;
  std::vector<syslog::ReceivedLine> lines[2];
  std::vector<isis::LspRecord> records[2];
  for (const syslog::ReceivedLine& l : s->sim.collector.lines()) {
    lines[l.received_at < mid ? 0 : 1].push_back(l);
  }
  for (const isis::LspRecord& rec : s->sim.listener.records()) {
    records[rec.received_at < mid ? 0 : 1].push_back(rec);
  }
  ASSERT_FALSE(lines[0].empty() || lines[1].empty());
  ASSERT_FALSE(records[0].empty() || records[1].empty());

  net::GatewayOptions o;
  o.capture_start = s->period.begin;
  o.engine.tracker.reconstruct.period = s->period;
  o.engine.detect.enabled = true;
  o.shards = 2;
  net::IngestGateway gw(s->census, o);
  ASSERT_TRUE(gw.start().ok());
  HttpOptions ho;
  ho.period_begin = s->period.begin;
  HttpServer srv(s->census, [&gw] { return gw.snapshot_engines(); }, nullptr,
                 ho);

  const std::uint64_t half = lines[0].size() + records[0].size();
  replay_and_drain(gw, lines[0], records[0], 1, half);
  const Totals first = totals(gw);
  // Warm-up: the shard consumers size their reused snapshot storage.
  (void)srv.handle("GET", "/healthz");
  (void)srv.handle("GET", "/links");
  const std::uint64_t healthz_first = allocs_of(srv, "/healthz");
  const std::uint64_t links_first = allocs_of(srv, "/links");
  EXPECT_EQ(allocs_of(srv, "/healthz"), healthz_first);
  EXPECT_LE(healthz_first, kMaxHealthzAllocs);
  EXPECT_LE(links_first, kMaxLinksAllocs);

  replay_and_drain(gw, lines[1], records[1], 2,
                   half + lines[1].size() + records[1].size());
  const Totals second = totals(gw);
  EXPECT_GT(second.events, first.events);
  EXPECT_GT(second.alerts, first.alerts) << "the second half raised no alerts";
  const std::uint64_t healthz_second = allocs_of(srv, "/healthz");
  const std::uint64_t links_second = allocs_of(srv, "/links");
  EXPECT_EQ(healthz_second, healthz_first);
  EXPECT_LE(links_second, kMaxLinksAllocs);
  gw.stop();
  std::printf("allocations per query: /healthz %llu, /links %llu then %llu\n",
              static_cast<unsigned long long>(healthz_second),
              static_cast<unsigned long long>(links_first),
              static_cast<unsigned long long>(links_second));
}

}  // namespace
}  // namespace netfail::svc
