#include "src/analysis/match.hpp"

#include <gtest/gtest.h>

#include <map>
#include <random>
#include <utility>
#include <vector>

namespace netfail::analysis {
namespace {

TimePoint at(std::int64_t s) { return TimePoint::from_unix_seconds(s); }
const LinkId kLink{0};

isis::IsisTransition isis_tr(std::int64_t s, LinkDirection dir,
                             LinkId link = kLink) {
  isis::IsisTransition tr;
  tr.time = at(s);
  tr.dir = dir;
  tr.link = link;
  return tr;
}

syslog::SyslogTransition sys_tr(std::int64_t s, LinkDirection dir,
                                const std::string& reporter,
                                syslog::MessageClass cls =
                                    syslog::MessageClass::kIsisAdjacency,
                                LinkId link = kLink) {
  syslog::SyslogTransition tr;
  tr.time = at(s);
  tr.dir = dir;
  tr.reporter = reporter;
  tr.cls = cls;
  tr.link = link;
  return tr;
}

Failure failure(std::int64_t b, std::int64_t e, Source src,
                LinkId link = kLink) {
  Failure f;
  f.link = link;
  f.span = TimeRange{at(b), at(e)};
  f.source = src;
  return f;
}

TEST(MatchTransitions, NoneOneBoth) {
  const std::vector<isis::IsisTransition> isis{
      isis_tr(100, LinkDirection::kDown),  // both ends report
      isis_tr(200, LinkDirection::kDown),  // one end reports
      isis_tr(300, LinkDirection::kDown),  // nobody reports
  };
  const std::vector<syslog::SyslogTransition> syslog{
      sys_tr(101, LinkDirection::kDown, "a"),
      sys_tr(102, LinkDirection::kDown, "b"),
      sys_tr(205, LinkDirection::kDown, "a"),
  };
  const TransitionMatchCounts c =
      match_transitions(isis, syslog, {}, MatchOptions{});
  EXPECT_EQ(c.down_both, 1u);
  EXPECT_EQ(c.down_one, 1u);
  EXPECT_EQ(c.down_none, 1u);
  EXPECT_EQ(c.down_total(), 3u);
}

TEST(MatchTransitions, WindowEnforced) {
  const std::vector<isis::IsisTransition> isis{
      isis_tr(100, LinkDirection::kDown)};
  const std::vector<syslog::SyslogTransition> syslog{
      sys_tr(111, LinkDirection::kDown, "a")};  // 11 s away: outside window
  const TransitionMatchCounts c =
      match_transitions(isis, syslog, {}, MatchOptions{});
  EXPECT_EQ(c.down_none, 1u);
}

TEST(MatchTransitions, DirectionMustAgree) {
  const std::vector<isis::IsisTransition> isis{
      isis_tr(100, LinkDirection::kDown)};
  const std::vector<syslog::SyslogTransition> syslog{
      sys_tr(100, LinkDirection::kUp, "a")};
  const TransitionMatchCounts c =
      match_transitions(isis, syslog, {}, MatchOptions{});
  EXPECT_EQ(c.down_none, 1u);
}

TEST(MatchTransitions, MessageConsumedOnce) {
  // Two IS-IS transitions 5 s apart but only one syslog message: it can
  // match only one of them.
  const std::vector<isis::IsisTransition> isis{
      isis_tr(100, LinkDirection::kDown), isis_tr(105, LinkDirection::kDown)};
  const std::vector<syslog::SyslogTransition> syslog{
      sys_tr(102, LinkDirection::kDown, "a")};
  const TransitionMatchCounts c =
      match_transitions(isis, syslog, {}, MatchOptions{});
  EXPECT_EQ(c.down_one, 1u);
  EXPECT_EQ(c.down_none, 1u);
}

TEST(MatchTransitions, SameReporterCountsOnce) {
  const std::vector<isis::IsisTransition> isis{
      isis_tr(100, LinkDirection::kUp)};
  const std::vector<syslog::SyslogTransition> syslog{
      sys_tr(99, LinkDirection::kUp, "a"), sys_tr(101, LinkDirection::kUp, "a")};
  const TransitionMatchCounts c =
      match_transitions(isis, syslog, {}, MatchOptions{});
  EXPECT_EQ(c.up_one, 1u);
  EXPECT_EQ(c.up_both, 0u);
}

TEST(MatchTransitions, FlapAttribution) {
  std::map<LinkId, IntervalSet> flaps;
  flaps[kLink].add(TimeRange{at(90), at(110)});
  const std::vector<isis::IsisTransition> isis{
      isis_tr(100, LinkDirection::kDown),  // in flap, unmatched
      isis_tr(500, LinkDirection::kDown),  // outside flap, unmatched
  };
  const TransitionMatchCounts c =
      match_transitions(isis, {}, flaps, MatchOptions{});
  EXPECT_EQ(c.down_none, 2u);
  EXPECT_EQ(c.down_none_in_flap, 1u);
}

TEST(MatchTransitions, PhysicalMessagesIgnored) {
  const std::vector<isis::IsisTransition> isis{
      isis_tr(100, LinkDirection::kDown)};
  const std::vector<syslog::SyslogTransition> syslog{
      sys_tr(100, LinkDirection::kDown, "a",
             syslog::MessageClass::kPhysicalMedia)};
  const TransitionMatchCounts c =
      match_transitions(isis, syslog, {}, MatchOptions{});
  EXPECT_EQ(c.down_none, 1u);
}

TEST(MatchReachability, PerClassPercentages) {
  std::vector<isis::IsisTransition> is_reach{
      isis_tr(100, LinkDirection::kDown)};
  std::vector<isis::IsisTransition> ip_reach{
      isis_tr(500, LinkDirection::kDown)};
  const std::vector<syslog::SyslogTransition> syslog{
      sys_tr(101, LinkDirection::kDown, "a"),  // matches IS only
      sys_tr(501, LinkDirection::kDown, "a",
             syslog::MessageClass::kPhysicalMedia),  // matches IP only
  };
  const ReachabilityMatchTable t =
      match_reachability(syslog, is_reach, ip_reach, MatchOptions{});
  EXPECT_DOUBLE_EQ(t.isis_down_vs_is, 100.0);
  EXPECT_DOUBLE_EQ(t.isis_down_vs_ip, 0.0);
  EXPECT_DOUBLE_EQ(t.media_down_vs_is, 0.0);
  EXPECT_DOUBLE_EQ(t.media_down_vs_ip, 100.0);
  EXPECT_EQ(t.isis_down_messages, 1u);
  EXPECT_EQ(t.media_down_messages, 1u);
}

TEST(MatchFailures, ExactAndWindowedMatch) {
  const std::vector<Failure> isis{failure(100, 200, Source::kIsis),
                                  failure(1000, 1100, Source::kIsis)};
  const std::vector<Failure> syslog{failure(105, 195, Source::kSyslog),
                                    failure(5000, 5100, Source::kSyslog)};
  const FailureMatchResult r = match_failures(isis, syslog, MatchOptions{});
  EXPECT_EQ(r.matched, 1u);
  EXPECT_EQ(r.isis_only.size(), 1u);
  EXPECT_EQ(r.syslog_only.size(), 1u);
  EXPECT_EQ(r.isis_count, 2u);
  EXPECT_EQ(r.syslog_count, 2u);
}

TEST(MatchFailures, EndMustAlsoMatch) {
  const std::vector<Failure> isis{failure(100, 200, Source::kIsis)};
  const std::vector<Failure> syslog{failure(100, 300, Source::kSyslog)};
  const FailureMatchResult r = match_failures(isis, syslog, MatchOptions{});
  EXPECT_EQ(r.matched, 0u);
  EXPECT_EQ(r.syslog_partial, 1u);  // overlaps but does not match
}

TEST(MatchFailures, DowntimeAccounting) {
  const std::vector<Failure> isis{failure(0, 100, Source::kIsis)};
  const std::vector<Failure> syslog{failure(50, 150, Source::kSyslog)};
  const FailureMatchResult r = match_failures(isis, syslog, MatchOptions{});
  EXPECT_EQ(r.isis_downtime, Duration::seconds(100));
  EXPECT_EQ(r.syslog_downtime, Duration::seconds(100));
  EXPECT_EQ(r.overlap_downtime, Duration::seconds(50));
  // The unmatched syslog failure's false downtime = part outside IS-IS.
  EXPECT_EQ(r.syslog_false_downtime, Duration::seconds(50));
}

TEST(MatchFailures, DifferentLinksNeverMatch) {
  const std::vector<Failure> isis{failure(100, 200, Source::kIsis, LinkId{0})};
  const std::vector<Failure> syslog{
      failure(100, 200, Source::kSyslog, LinkId{1})};
  const FailureMatchResult r = match_failures(isis, syslog, MatchOptions{});
  EXPECT_EQ(r.matched, 0u);
}

TEST(MatchFailures, GreedyOneToOne) {
  // Two identical syslog failures, one IS-IS failure: only one match.
  const std::vector<Failure> isis{failure(100, 200, Source::kIsis)};
  const std::vector<Failure> syslog{failure(100, 200, Source::kSyslog),
                                    failure(101, 201, Source::kSyslog)};
  const FailureMatchResult r = match_failures(isis, syslog, MatchOptions{});
  EXPECT_EQ(r.matched, 1u);
  EXPECT_EQ(r.syslog_only.size(), 1u);
}

// ---- match_failures vs the full-rescan oracle ---------------------------------

/// The greedy matching as first written: every syslog failure rescans its
/// link's IS-IS failures from the first one, skipping those already used.
/// Quadratic on dense links, but obviously right — the oracle for the
/// per-link cursor in match_failures.
struct OracleMatch {
  std::vector<std::pair<std::size_t, std::size_t>> pairs;
  std::vector<std::size_t> isis_only;
  std::vector<std::size_t> syslog_only;
};

OracleMatch rescan_oracle(const std::vector<Failure>& isis,
                          const std::vector<Failure>& syslog,
                          const MatchOptions& options) {
  std::map<LinkId, std::vector<std::size_t>> isis_by_link;
  for (std::size_t i = 0; i < isis.size(); ++i) {
    isis_by_link[isis[i].link].push_back(i);
  }
  std::vector<bool> isis_used(isis.size(), false);
  std::vector<bool> syslog_matched(syslog.size(), false);
  OracleMatch out;
  for (std::size_t s = 0; s < syslog.size(); ++s) {
    const Failure& sf = syslog[s];
    const auto it = isis_by_link.find(sf.link);
    if (it == isis_by_link.end()) continue;
    for (std::size_t i : it->second) {
      if (isis_used[i]) continue;
      const Failure& isf = isis[i];
      const Duration ds = isf.span.begin - sf.span.begin;
      const Duration de = isf.span.end - sf.span.end;
      const auto abs = [](Duration d) { return d.is_negative() ? -d : d; };
      if (abs(ds) <= options.window && abs(de) <= options.window) {
        isis_used[i] = true;
        syslog_matched[s] = true;
        out.pairs.emplace_back(i, s);
        break;
      }
      if (isf.span.begin > sf.span.begin + options.window) break;
    }
  }
  for (std::size_t i = 0; i < isis.size(); ++i) {
    if (!isis_used[i]) out.isis_only.push_back(i);
  }
  for (std::size_t s = 0; s < syslog.size(); ++s) {
    if (!syslog_matched[s]) out.syslog_only.push_back(s);
  }
  return out;
}

/// `n` begin-ordered failures on `link`, begins 0-`max_gap` s apart (dense
/// against the 10 s window), durations 0-`max_len` s (so they overlap).
std::vector<Failure> dense_failures(std::mt19937_64& rng, std::size_t n,
                                    Source src, LinkId link,
                                    std::int64_t max_gap,
                                    std::int64_t max_len) {
  std::uniform_int_distribution<std::int64_t> gap(0, max_gap);
  std::uniform_int_distribution<std::int64_t> len(0, max_len);
  std::vector<Failure> out;
  std::int64_t begin = 1000;
  for (std::size_t i = 0; i < n; ++i) {
    begin += gap(rng);
    out.push_back(failure(begin, begin + len(rng), src, link));
  }
  return out;
}

/// Returns the number of matched pairs, so callers can check the inputs
/// exercised matching at all.
std::size_t expect_same_as_oracle(const std::vector<Failure>& isis,
                                  const std::vector<Failure>& syslog) {
  const MatchOptions options;
  const FailureMatchResult got = match_failures(isis, syslog, options);
  const OracleMatch want = rescan_oracle(isis, syslog, options);
  EXPECT_EQ(got.pairs, want.pairs);
  EXPECT_EQ(got.isis_only, want.isis_only);
  EXPECT_EQ(got.syslog_only, want.syslog_only);
  EXPECT_EQ(got.matched, want.pairs.size());
  return got.matched;
}

TEST(MatchFailures, CursorScanEqualsRescanOracleOnDenseSingleLinks) {
  std::mt19937_64 rng(20131023);
  std::uniform_int_distribution<std::size_t> count(0, 400);
  std::uniform_int_distribution<std::int64_t> gap(1, 12);
  std::uniform_int_distribution<std::int64_t> len(0, 40);
  std::size_t matched = 0;
  for (int trial = 0; trial < 200; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    const std::int64_t max_gap = gap(rng);
    const std::int64_t max_len = len(rng);
    const std::vector<Failure> isis =
        dense_failures(rng, count(rng), Source::kIsis, kLink, max_gap, max_len);
    const std::vector<Failure> syslog = dense_failures(
        rng, count(rng), Source::kSyslog, kLink, max_gap, max_len);
    matched += expect_same_as_oracle(isis, syslog);
  }
  EXPECT_GT(matched, 1000u);
}

TEST(MatchFailures, CursorScanEqualsRescanOracleOnInterleavedLinks) {
  // Per-link chronological, globally interleaved: each link keeps its own
  // cursor.
  std::mt19937_64 rng(602);
  std::uniform_int_distribution<int> pick(0, 2);
  std::size_t matched = 0;
  for (int trial = 0; trial < 50; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    std::vector<Failure> isis, syslog;
    std::vector<std::vector<Failure>> per_link_isis, per_link_syslog;
    for (std::uint32_t l = 0; l < 3; ++l) {
      per_link_isis.push_back(
          dense_failures(rng, 120, Source::kIsis, LinkId{l}, 6, 20));
      per_link_syslog.push_back(
          dense_failures(rng, 120, Source::kSyslog, LinkId{l}, 6, 20));
    }
    std::vector<std::size_t> next_isis(3, 0), next_syslog(3, 0);
    for (std::size_t k = 0; k < 3 * 120; ++k) {
      int l = pick(rng);
      while (next_isis[l] == 120) l = (l + 1) % 3;
      isis.push_back(per_link_isis[l][next_isis[l]++]);
    }
    for (std::size_t k = 0; k < 3 * 120; ++k) {
      int l = pick(rng);
      while (next_syslog[l] == 120) l = (l + 1) % 3;
      syslog.push_back(per_link_syslog[l][next_syslog[l]++]);
    }
    matched += expect_same_as_oracle(isis, syslog);
  }
  EXPECT_GT(matched, 100u);
}

}  // namespace
}  // namespace netfail::analysis
