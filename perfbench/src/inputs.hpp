// The benchmark's workloads and the inputs it generates for them.
//
// Everything here is set-up: deterministic compute from the workload seed
// (simulation, config mining, refresh materialization, replay prefix). The
// program under test sees only the generated inputs.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/analysis/pipeline.hpp"
#include "src/isis/listener.hpp"
#include "src/syslog/collector.hpp"

namespace perfbench {

enum class Workload { kTable1Refresh, kFlapStorm, kServedQuery };

bool parse_workload(const std::string& name, Workload& out);
const char* workload_name(Workload w);

/// Refresh materializer accounting (table1_refresh only).
struct RefreshReport {
  std::uint64_t real = 0;      // LSPs the simulation delivered
  std::uint64_t written = 0;   // refresh LSPs written as records
  std::uint64_t analytic = 0;  // refreshes the simulation counted for the span
};

/// The served phase's traffic: a prefix of the capture in replay order.
struct ServeInputs {
  /// What the replay sends, in its own merged order (ties syslog-first).
  std::vector<netfail::syslog::ReceivedLine> lines;
  std::vector<netfail::isis::LspRecord> records;
  /// The syslog lines as the gateway stamps them on arrival (one
  /// ArrivalCursor per UDP socket): the in-process reference's input.
  std::vector<netfail::syslog::ReceivedLine> stamped_lines;
  /// Per replayed event k: the largest arrival stamp among events 0..k, in
  /// milliseconds. Maps a served high-water mark to the newest event it
  /// covers.
  std::vector<std::int64_t> stamp_prefix_max_ms;
};

struct Inputs {
  netfail::analysis::PipelineCapture capture;
  /// The LSP stream the batch and stream passes read: the capture's own
  /// records, or the records with refreshes written out (table1_refresh).
  std::vector<netfail::isis::LspRecord> refreshed;
  bool has_refreshes = false;
  RefreshReport refresh;
  ServeInputs serve;

  const std::vector<netfail::isis::LspRecord>& records() const {
    return has_refreshes ? refreshed : capture.sim.listener.records();
  }
};

/// The served phase replays at most this many events: the fixed offered
/// rate times the phase's share of the run.
Inputs build_inputs(Workload w, std::uint64_t seed,
                    std::size_t max_serve_events);

}  // namespace perfbench
