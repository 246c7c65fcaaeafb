#include "inputs.hpp"

#include <algorithm>
#include <map>
#include <utility>

#include "src/isis/pdu.hpp"
#include "src/sim/scenario.hpp"

namespace perfbench {

using netfail::Duration;
using netfail::IntervalSet;
using netfail::TimePoint;
using netfail::TimeRange;
using netfail::isis::Lsp;
using netfail::isis::LspRecord;

namespace {

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

// Why each workload looks the way it does is recorded in perfbench/README.md.
netfail::sim::ScenarioParams scenario_for(Workload w, std::uint64_t seed) {
  netfail::sim::ScenarioParams p = netfail::sim::cenic_scenario();
  p.seed = seed;
  switch (w) {
    case Workload::kTable1Refresh:
      // One month of the CENIC study: Table 1's refresh rate, ~0.85M LSPs.
      p.period = TimeRange{TimePoint::from_civil(2010, 10, 20),
                           TimePoint::from_civil(2010, 11, 20)};
      break;
    case Workload::kFlapStorm:
      // Failure and blip arrivals raised tenfold over three months: dense
      // transitions, so syslog parsing and failure matching do the work.
      p.period = TimeRange{TimePoint::from_civil(2010, 10, 20),
                           TimePoint::from_civil(2011, 1, 20)};
      p.core_rate_median *= 10;
      p.cpe_rate_median *= 10;
      p.blip_rate_per_year *= 10;
      break;
    case Workload::kServedQuery:
      break;  // the calibrated 13-month CENIC capture, unmodified
  }
  return p;
}

/// Write the periodic refreshes out as records. Each LSP ID refreshes every
/// `interval` from a seed-derived phase, carrying the content of that ID's
/// last received LSP; refreshes before the ID's first LSP or inside a
/// listener gap are not written. Sequence numbers are renumbered per LSP ID
/// over the merged stream, so every refresh is newer than what it repeats.
std::vector<LspRecord> materialize_refreshes(
    const std::vector<LspRecord>& real, TimeRange period,
    const IntervalSet& gaps, Duration interval, std::uint64_t seed,
    RefreshReport& report) {
  struct Entry {
    TimePoint at;
    std::size_t real_index;  // the record whose content this entry carries
    bool refresh;
  };
  // Dense LSP-ID index per record; kNoId marks undecodable records, which
  // pass through untouched and carry no refreshes.
  constexpr std::size_t kNoId = ~std::size_t{0};
  std::vector<Lsp> decoded(real.size());
  std::vector<std::size_t> id_of(real.size(), kNoId);
  std::map<std::string, std::size_t> id_index;
  std::vector<std::vector<std::size_t>> by_id;  // id -> record indices
  for (std::size_t i = 0; i < real.size(); ++i) {
    auto lsp = Lsp::decode(real[i].bytes);
    if (!lsp) continue;
    const auto [it, fresh] =
        id_index.try_emplace(lsp->lsp_id_string(), by_id.size());
    if (fresh) by_id.emplace_back();
    id_of[i] = it->second;
    by_id[it->second].push_back(i);
    decoded[i] = std::move(*lsp);
  }

  std::vector<Entry> entries;
  for (std::size_t i = 0; i < real.size(); ++i) {
    entries.push_back({real[i].received_at, i, false});
  }
  const std::int64_t step = interval.total_millis();
  for (const auto& [name, id] : id_index) {
    const std::vector<std::size_t>& indices = by_id[id];
    const std::int64_t phase =
        static_cast<std::int64_t>(splitmix64(seed ^ fnv1a(name)) %
                                  static_cast<std::uint64_t>(step));
    std::size_t next = 0;  // first position in `indices` received at >= t
    for (TimePoint t = period.begin + Duration::millis(phase); t < period.end;
         t = t + interval) {
      while (next < indices.size() && real[indices[next]].received_at < t) {
        ++next;
      }
      if (next == 0 || gaps.contains(t)) continue;
      entries.push_back({t, indices[next - 1], true});
      ++report.written;
    }
  }
  // Real LSPs first at equal times, so a refresh never overtakes the LSP
  // whose content it repeats.
  std::stable_sort(entries.begin(), entries.end(),
                   [](const Entry& a, const Entry& b) {
                     if (a.at != b.at) return a.at < b.at;
                     return !a.refresh && b.refresh;
                   });

  std::vector<std::uint32_t> sequence(by_id.size(), 0);
  std::vector<LspRecord> out;
  out.reserve(entries.size());
  for (const Entry& e : entries) {
    const std::size_t id = id_of[e.real_index];
    if (id == kNoId) {
      out.push_back(real[e.real_index]);
      continue;
    }
    Lsp& lsp = decoded[e.real_index];
    lsp.sequence = ++sequence[id];
    out.push_back(LspRecord{e.at, lsp.encode()});
  }
  report.real = real.size();
  return out;
}

ServeInputs build_serve(const std::vector<netfail::syslog::ReceivedLine>& lines,
                        const std::vector<LspRecord>& records,
                        TimePoint capture_start, std::size_t max_events) {
  ServeInputs out;
  netfail::syslog::ArrivalCursor cursor(capture_start);
  std::int64_t newest = capture_start.unix_millis();
  std::size_t i = 0;
  std::size_t j = 0;
  while ((i < lines.size() || j < records.size()) &&
         out.stamp_prefix_max_ms.size() < max_events) {
    // The replay's merge rule: arrival order, ties syslog-first.
    const bool take_syslog =
        j >= records.size() ||
        (i < lines.size() && lines[i].received_at <= records[j].received_at);
    TimePoint stamp;
    if (take_syslog) {
      out.lines.push_back(lines[i]);
      stamp = cursor.arrival_of(lines[i].line);
      out.stamped_lines.push_back({stamp, lines[i].line});
      ++i;
    } else {
      out.records.push_back(records[j]);
      stamp = records[j].received_at;
      ++j;
    }
    newest = std::max(newest, stamp.unix_millis());
    out.stamp_prefix_max_ms.push_back(newest);
  }
  return out;
}

}  // namespace

bool parse_workload(const std::string& name, Workload& out) {
  for (const Workload w : {Workload::kTable1Refresh, Workload::kFlapStorm,
                           Workload::kServedQuery}) {
    if (name == workload_name(w)) {
      out = w;
      return true;
    }
  }
  return false;
}

const char* workload_name(Workload w) {
  switch (w) {
    case Workload::kTable1Refresh: return "table1_refresh";
    case Workload::kFlapStorm: return "flap_storm";
    case Workload::kServedQuery: return "served_query";
  }
  return "?";
}

Inputs build_inputs(Workload w, std::uint64_t seed,
                    std::size_t max_serve_events) {
  Inputs in;
  const netfail::sim::ScenarioParams params = scenario_for(w, seed);
  in.capture = netfail::analysis::run_capture(params);
  const netfail::isis::Listener& listener = in.capture.sim.listener;
  if (w == Workload::kTable1Refresh) {
    in.refreshed = materialize_refreshes(
        listener.records(), params.period, in.capture.sim.truth.listener_gaps(),
        params.lsp_refresh_interval, seed, in.refresh);
    in.refresh.analytic = listener.total_updates() - listener.records().size();
    in.has_refreshes = true;
  }
  in.serve = build_serve(in.capture.sim.collector.lines(), in.records(),
                         in.capture.period.begin, max_serve_events);
  return in;
}

}  // namespace perfbench
