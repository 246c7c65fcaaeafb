// StreamEngine::fill_query_snapshot against the deep copy it replaces on
// the live query path: at every cut of a detection-on stream, for a serial
// engine and for each shard of a partitioned run, the query snapshot's
// rows must equal what the same instant's Checkpoint yields when its
// trackers and alert log are folded per owned link — and refilling one
// snapshot must reuse its row storage.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <optional>
#include <vector>

#include "src/analysis/scenario_cache.hpp"
#include "src/sim/network_sim.hpp"
#include "src/stream/engine.hpp"
#include "src/stream/event_mux.hpp"
#include "src/stream/sharded.hpp"

namespace netfail::stream {
namespace {

using Scenario = std::shared_ptr<const analysis::PipelineCapture>;

Scenario scenario() {
  static Scenario s =
      analysis::ScenarioCache::global().capture(sim::test_scenario(1));
  return s;
}

/// The rows a live query used to be rendered from: the checkpoint's
/// tracker stats and its whole alert log, folded per owned link.
std::vector<QueryLinkRow> rows_from_checkpoint(const Checkpoint& cp,
                                               const LinkCensus& census) {
  const StreamEngine& e = cp.state();
  std::vector<QueryLinkRow> rows;
  for (const CensusLink& link : census.links()) {
    if (e.owns_link(link.id)) rows.emplace_back().link = link.id;
  }
  const auto row = [&rows](LinkId link) -> QueryLinkRow& {
    const auto it = std::find_if(
        rows.begin(), rows.end(),
        [link](const QueryLinkRow& r) { return r.link == link; });
    EXPECT_NE(it, rows.end()) << "state on an unowned link " << link.value();
    return *it;
  };
  for (const LinkRunningStats& st : e.syslog_tracker().link_stats()) {
    row(st.link).syslog = st;
  }
  for (const LinkRunningStats& st : e.isis_tracker().link_stats()) {
    row(st.link).isis = st;
  }
  for (const detect::LinkAlert& alert : e.detector().sink().snapshot()) {
    if (alert.link.valid()) row(alert.link).alerts.add(alert.kind);
  }
  return rows;
}

TEST(QuerySnapshot, RowsEqualTheCheckpointAtEveryCut) {
  const Scenario s = scenario();
  std::vector<StreamEvent> events;
  EventMux mux = EventMux::over_vectors(s->sim.collector.lines(),
                                        s->sim.listener.records());
  while (std::optional<StreamEvent> ev = mux.next()) events.push_back(*ev);
  ASSERT_GT(events.size(), 1000u);

  for (const std::uint32_t shards : {1u, 3u}) {
    SCOPED_TRACE("shards " + std::to_string(shards));
    const ShardMap map(s->census, shards);
    std::size_t owned_rows = 0;
    std::uint64_t alerts = 0;
    for (std::uint32_t shard = 0; shard < shards; ++shard) {
      SCOPED_TRACE("shard " + std::to_string(shard));
      EngineOptions options;
      options.tracker.reconstruct.period = s->period;
      options.detect.enabled = true;
      if (shards > 1) {
        options.partition = &map;
        options.shard = shard;
      }
      StreamEngine engine(s->census, options);

      QuerySnapshot reused;
      engine.fill_query_snapshot(reused);
      const QueryLinkRow* storage = reused.links.data();
      const std::size_t cut_every = events.size() / 5;
      for (std::size_t i = 0; i < events.size(); ++i) {
        const StreamEvent& ev = events[i];
        if (ev.kind() == EventKind::kSyslogLine &&
            map.shard_of_line(ev.line().line) != shard) {
          continue;
        }
        engine.feed(ev);
        if (i % cut_every != cut_every - 1 && i + 1 != events.size()) {
          continue;
        }
        engine.fill_query_snapshot(reused);
        EXPECT_EQ(reused.links.data(), storage) << "refill reallocated";
        const Checkpoint cp = engine.checkpoint();
        EXPECT_EQ(reused.high_water, cp.high_water());
        EXPECT_EQ(reused.events_ingested(), cp.events_ingested());
        EXPECT_EQ(reused.syslog_events, engine.syslog_events());
        EXPECT_EQ(reused.lsp_events, engine.lsp_events());
        EXPECT_EQ(reused.links, rows_from_checkpoint(cp, s->census));
        EXPECT_EQ(engine.query_snapshot(), reused);
      }
      owned_rows += reused.links.size();
      alerts += engine.detector().alerts_emitted();
    }
    // The shards' rows partition the census.
    EXPECT_EQ(owned_rows, s->census.size());
    EXPECT_GT(alerts, 0u) << "detection produced no alerts to count";
  }
}

}  // namespace
}  // namespace netfail::stream
