#include "batch.hpp"

#include <algorithm>
#include <optional>

#include "probe.hpp"
#include "src/analysis/ambiguous.hpp"
#include "src/analysis/flaps.hpp"
#include "src/analysis/linkstats.hpp"
#include "src/analysis/match.hpp"
#include "src/analysis/reconstruct.hpp"
#include "src/analysis/sanitize.hpp"
#include "src/analysis/tables.hpp"
#include "src/stream/engine.hpp"
#include "src/stream/event_mux.hpp"

namespace perfbench {

namespace analysis = netfail::analysis;
namespace isis = netfail::isis;
namespace stream = netfail::stream;
namespace syslog = netfail::syslog;

void analyze_pass(const Inputs& in, const std::vector<isis::LspRecord>& records,
                  AnalyzeOutput* keep) {
  const analysis::PipelineCapture& cap = in.capture;
  const netfail::LinkCensus& census = cap.census;

  // The stages and calls of `netfail analyze`, over the in-memory bundle.
  std::optional<isis::IsisExtraction> isis_ex;
  {
    Scope s("isis.extract");
    isis_ex = isis::extract_transitions(records, census);
  }
  std::optional<syslog::SyslogExtraction> syslog_ex;
  {
    Scope s("syslog.extract");
    syslog_ex = syslog::extract_transitions(cap.sim.collector, census);
  }

  analysis::ReconstructOptions recon;
  recon.period = cap.period;
  std::optional<analysis::Reconstruction> isis_recon;
  std::optional<analysis::Reconstruction> syslog_recon;
  {
    Scope s("analysis.reconstruct");
    isis_recon = analysis::reconstruct_from_isis(isis_ex->is_reach, recon);
    syslog_recon =
        analysis::reconstruct_from_syslog(syslog_ex->transitions, recon);
  }
  if (keep != nullptr) {
    keep->is_reach = isis_ex->is_reach;
    keep->ip_reach = isis_ex->ip_reach;
    keep->isis_stats = isis_ex->stats;
    keep->syslog_parse_failures = syslog_ex->stats.parse_failures;
    keep->isis_failures = isis_recon->failures;
    keep->syslog_failures = syslog_recon->failures;
  }
  std::optional<analysis::SanitizationReport> long_report;
  {
    Scope s("analysis.sanitize");
    const netfail::IntervalSet& gaps = cap.sim.truth.listener_gaps();
    (void)analysis::remove_listener_gap_failures(isis_recon->failures, gaps);
    (void)analysis::remove_listener_gap_failures(syslog_recon->failures, gaps);
    long_report = analysis::verify_long_failures(syslog_recon->failures, census,
                                                 cap.sim.tickets);
  }
  std::optional<analysis::FlapAnalysis> isis_flaps;
  {
    Scope s("analysis.flaps");
    isis_flaps = analysis::detect_flaps(isis_recon->failures);
    (void)analysis::detect_flaps(syslog_recon->failures);
  }
  std::optional<analysis::ReachabilityMatchTable> t2;
  {
    Scope s("analysis.match_reachability");
    t2 = analysis::match_reachability(syslog_ex->transitions,
                                      isis_ex->is_reach, isis_ex->ip_reach, {});
  }
  std::optional<analysis::TransitionMatchCounts> t3;
  {
    Scope s("analysis.match_transitions");
    t3 = analysis::match_transitions(isis_ex->is_reach, syslog_ex->transitions,
                                     isis_flaps->flap_ranges, {});
  }
  analysis::Table4Data t4;
  {
    Scope s("analysis.match_failures");
    t4.match = analysis::match_failures(isis_recon->failures,
                                        syslog_recon->failures, {});
  }
  analysis::Table5Data t5;
  std::optional<analysis::KsData> ks;
  std::optional<analysis::AmbiguityClassification> t6;
  {
    Scope s("analysis.stats");
    t5.syslog = analysis::compute_link_statistics(syslog_recon->failures,
                                                  census, cap.period);
    t5.isis = analysis::compute_link_statistics(isis_recon->failures, census,
                                                cap.period);
    ks = analysis::compute_ks(t5);
    t6 = analysis::classify_ambiguous(syslog_recon->ambiguous,
                                      isis_recon->failures, isis_ex->is_reach,
                                      {});
  }
  std::string tables;
  {
    Scope s("analysis.tables");
    tables += analysis::render_table2(*t2);
    tables += analysis::render_table3(*t3);
    tables += analysis::render_table4(t4);
    tables += analysis::render_table5(t5);
    tables += analysis::render_ks(*ks);
    tables += analysis::render_table6(*t6);
  }
  if (keep != nullptr) {
    keep->failures_after_sanitize =
        isis_recon->failures.size() + syslog_recon->failures.size();
    keep->tables = std::move(tables);
  }
}

void stream_pass(const Inputs& in, bool detect, bool keep_failures,
                 StreamOutput& out) {
  const analysis::PipelineCapture& cap = in.capture;
  stream::EngineOptions options;
  options.tracker.reconstruct.period = cap.period;
  options.detect.enabled = detect;
  stream::StreamEngine engine(cap.census, options);
  if (keep_failures) {
    engine.isis_tracker().on_failure = [&out](const analysis::Failure& f) {
      out.isis_failures.push_back(f);
    };
    engine.syslog_tracker().on_failure = [&out](const analysis::Failure& f) {
      out.syslog_failures.push_back(f);
    };
  }
  stream::EventMux mux =
      stream::EventMux::over_vectors(cap.sim.collector.lines(), in.records());

  if (!tracer().enabled()) {
    while (std::optional<stream::StreamEvent> ev = mux.next()) engine.feed(*ev);
  } else {
    // Per-event timing, folded into one aggregate span per event kind.
    // Consecutive intervals share their boundary reads, so the pass's time
    // is covered without gaps.
    Ns mux_ns = 0, lsp_ns = 0, line_ns = 0;
    std::uint64_t lsps = 0, lines = 0;
    std::uint64_t mux_allocs = 0, lsp_allocs = 0, line_allocs = 0;
    std::uint64_t a0 = allocs_this_thread();
    const Ns first = now_ns();
    Ns t0 = first;
    while (true) {
      std::optional<stream::StreamEvent> ev = mux.next();
      const Ns t1 = now_ns();
      const std::uint64_t a1 = allocs_this_thread();
      mux_ns += t1 - t0;
      mux_allocs += a1 - a0;
      if (!ev) {
        t0 = t1;
        break;
      }
      engine.feed(*ev);
      const Ns t2 = now_ns();
      const std::uint64_t a2 = allocs_this_thread();
      if (ev->lsp_ptr != nullptr) {
        lsp_ns += t2 - t1;
        lsp_allocs += a2 - a1;
        ++lsps;
      } else {
        line_ns += t2 - t1;
        line_allocs += a2 - a1;
        ++lines;
      }
      t0 = t2;
      a0 = a2;
    }
    tracer().add_aggregate("stream.mux", first, t0, mux_ns, lsps + lines + 1,
                           mux_allocs);
    tracer().add_aggregate("isis.stream_feed", first, t0, lsp_ns, lsps,
                           lsp_allocs);
    tracer().add_aggregate("syslog.stream_feed", first, t0, line_ns, lines,
                           line_allocs);
  }
  {
    Scope s("stream.finish");
    engine.finish();
  }
  out.alerts = engine.detector().alerts_emitted();
  out.pending_peak = std::max(engine.isis_tracker().counters().pending_peak,
                              engine.syslog_tracker().counters().pending_peak);
}

std::vector<std::string> failure_keys(
    const std::vector<analysis::Failure>& failures) {
  std::vector<std::string> keys;
  keys.reserve(failures.size());
  for (const analysis::Failure& f : failures) {
    keys.push_back(std::to_string(f.link.value()) + ":" +
                   std::to_string(f.span.begin.unix_millis()) + "-" +
                   std::to_string(f.span.end.unix_millis()));
  }
  std::sort(keys.begin(), keys.end());
  return keys;
}

}  // namespace perfbench
