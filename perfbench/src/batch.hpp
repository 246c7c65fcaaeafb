// The two in-process passes over a workload's capture: the `netfail
// analyze` computation from an in-memory bundle, and the StreamEngine fed
// through EventMux::over_vectors. With tracing on, each public call gets a
// span; StreamEngine::feed gets per-event timing folded into aggregates.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "inputs.hpp"
#include "src/analysis/failure.hpp"
#include "src/isis/extract.hpp"
#include "src/syslog/extract.hpp"

namespace perfbench {

/// What a pass produced, kept from one untimed pass for the output checks.
struct AnalyzeOutput {
  std::vector<netfail::isis::IsisTransition> is_reach;
  std::vector<netfail::isis::IsisTransition> ip_reach;
  netfail::isis::ExtractionStats isis_stats;
  std::size_t syslog_parse_failures = 0;
  /// Reconstructed failures before sanitization (the stream engine's view).
  std::vector<netfail::analysis::Failure> isis_failures;
  std::vector<netfail::analysis::Failure> syslog_failures;
  std::size_t failures_after_sanitize = 0;
  std::string tables;  // tables 2-6 and the KS summary, as rendered
};

/// One analyze pass over `records` (the capture's collector supplies the
/// syslog side). `keep` may be null.
void analyze_pass(const Inputs& in,
                  const std::vector<netfail::isis::LspRecord>& records,
                  AnalyzeOutput* keep);

struct StreamOutput {
  /// Released failures, collected only when the pass is asked to keep them.
  std::vector<netfail::analysis::Failure> isis_failures;
  std::vector<netfail::analysis::Failure> syslog_failures;
  std::uint64_t alerts = 0;
  std::uint64_t pending_peak = 0;
};

/// One stream pass through finish().
void stream_pass(const Inputs& in, bool detect, bool keep_failures,
                 StreamOutput& out);

/// Failures as comparable (link, begin, end) keys, sorted.
std::vector<std::string> failure_keys(
    const std::vector<netfail::analysis::Failure>& failures);

}  // namespace perfbench
