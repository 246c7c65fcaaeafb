#include "src/analysis/match.hpp"

#include <algorithm>
#include <limits>
#include <set>

#include "src/common/assert.hpp"

namespace netfail::analysis {
namespace {

/// Sorted event times per (link, direction); supports "any within window".
class TimeIndex {
 public:
  void add(LinkId link, LinkDirection dir, TimePoint t) {
    map_[key(link, dir)].push_back(t);
  }
  void finalize() {
    for (auto& [k, v] : map_) std::sort(v.begin(), v.end());
  }
  bool any_within(LinkId link, LinkDirection dir, TimePoint t,
                  Duration window) const {
    const auto it = map_.find(key(link, dir));
    if (it == map_.end()) return false;
    const std::vector<TimePoint>& v = it->second;
    const auto lo = std::lower_bound(v.begin(), v.end(), t - window);
    return lo != v.end() && *lo <= t + window;
  }

 private:
  static std::uint64_t key(LinkId link, LinkDirection dir) {
    return (std::uint64_t{link.value()} << 1) |
           (dir == LinkDirection::kUp ? 1u : 0u);
  }
  std::map<std::uint64_t, std::vector<TimePoint>> map_;
};

}  // namespace

TransitionMatchCounts match_transitions(
    const std::vector<isis::IsisTransition>& isis,
    const std::vector<syslog::SyslogTransition>& syslog,
    const std::map<LinkId, IntervalSet>& flaps, const MatchOptions& options) {
  // Bucket syslog adjacency messages per (link, dir), kept with reporter so
  // a message is consumed by at most one IS-IS transition.
  struct Msg {
    TimePoint time;
    Symbol reporter;
    bool used = false;
  };
  std::map<std::uint64_t, std::vector<Msg>> buckets;
  auto key = [](LinkId link, LinkDirection dir) {
    return (std::uint64_t{link.value()} << 1) |
           (dir == LinkDirection::kUp ? 1u : 0u);
  };
  for (const syslog::SyslogTransition& tr : syslog) {
    if (tr.cls != syslog::MessageClass::kIsisAdjacency || !tr.link.valid()) {
      continue;
    }
    buckets[key(tr.link, tr.dir)].push_back(Msg{tr.time, tr.reporter});
  }
  for (auto& [k, v] : buckets) {
    std::sort(v.begin(), v.end(),
              [](const Msg& a, const Msg& b) { return a.time < b.time; });
  }

  TransitionMatchCounts out;
  for (const isis::IsisTransition& tr : isis) {
    if (!tr.link.valid() || tr.multilink) continue;

    int reporters = 0;
    auto it = buckets.find(key(tr.link, tr.dir));
    if (it != buckets.end()) {
      std::vector<Msg>& v = it->second;
      const auto lo = std::lower_bound(
          v.begin(), v.end(), tr.time - options.window,
          [](const Msg& m, TimePoint t) { return m.time < t; });
      // The loop breaks at two reporters, so at most one distinct reporter
      // is ever "seen" when the dedup check runs — a single Symbol suffices.
      Symbol seen = Symbol::invalid();
      for (auto m = lo; m != v.end() && m->time <= tr.time + options.window;
           ++m) {
        if (m->used || m->reporter == seen) continue;
        m->used = true;
        seen = m->reporter;
        if (++reporters == 2) break;
      }
    }

    const bool down = tr.dir == LinkDirection::kDown;
    const bool in_flap = [&] {
      const auto f = flaps.find(tr.link);
      return f != flaps.end() && f->second.contains(tr.time);
    }();
    if (reporters == 0) {
      (down ? out.down_none : out.up_none)++;
      if (in_flap) (down ? out.down_none_in_flap : out.up_none_in_flap)++;
    } else if (reporters == 1) {
      (down ? out.down_one : out.up_one)++;
    } else {
      (down ? out.down_both : out.up_both)++;
    }
  }
  return out;
}

ReachabilityMatchTable match_reachability(
    const std::vector<syslog::SyslogTransition>& syslog,
    const std::vector<isis::IsisTransition>& is_reach,
    const std::vector<isis::IsisTransition>& ip_reach,
    const MatchOptions& options) {
  TimeIndex is_index, ip_index;
  for (const isis::IsisTransition& tr : is_reach) {
    if (tr.link.valid()) is_index.add(tr.link, tr.dir, tr.time);
  }
  for (const isis::IsisTransition& tr : ip_reach) {
    if (tr.link.valid()) ip_index.add(tr.link, tr.dir, tr.time);
  }
  is_index.finalize();
  ip_index.finalize();

  std::size_t counts[2][2] = {};       // [class][dir] message totals
  std::size_t match_is[2][2] = {};     // matched by IS reach
  std::size_t match_ip[2][2] = {};     // matched by IP reach
  for (const syslog::SyslogTransition& tr : syslog) {
    if (!tr.link.valid()) continue;
    const int cls = tr.cls == syslog::MessageClass::kIsisAdjacency ? 0 : 1;
    const int dir = tr.dir == LinkDirection::kDown ? 0 : 1;
    ++counts[cls][dir];
    if (is_index.any_within(tr.link, tr.dir, tr.time, options.window)) {
      ++match_is[cls][dir];
    }
    if (ip_index.any_within(tr.link, tr.dir, tr.time, options.window)) {
      ++match_ip[cls][dir];
    }
  }

  auto pct = [](std::size_t num, std::size_t den) {
    return den == 0 ? 0.0 : 100.0 * static_cast<double>(num) /
                                static_cast<double>(den);
  };
  ReachabilityMatchTable out;
  out.isis_down_messages = counts[0][0];
  out.isis_up_messages = counts[0][1];
  out.media_down_messages = counts[1][0];
  out.media_up_messages = counts[1][1];
  out.isis_down_vs_is = pct(match_is[0][0], counts[0][0]);
  out.isis_down_vs_ip = pct(match_ip[0][0], counts[0][0]);
  out.isis_up_vs_is = pct(match_is[0][1], counts[0][1]);
  out.isis_up_vs_ip = pct(match_ip[0][1], counts[0][1]);
  out.media_down_vs_is = pct(match_is[1][0], counts[1][0]);
  out.media_down_vs_ip = pct(match_ip[1][0], counts[1][0]);
  out.media_up_vs_is = pct(match_is[1][1], counts[1][1]);
  out.media_up_vs_ip = pct(match_ip[1][1], counts[1][1]);
  return out;
}

FailureMatchResult match_failures(const std::vector<Failure>& isis,
                                  const std::vector<Failure>& syslog,
                                  const MatchOptions& options) {
  FailureMatchResult out;
  out.isis_count = isis.size();
  out.syslog_count = syslog.size();

  // Downtime interval sets drive the hour-level numbers.
  std::map<LinkId, IntervalSet> isis_down = downtime_by_link(isis);
  std::map<LinkId, IntervalSet> syslog_down = downtime_by_link(syslog);
  for (const auto& [link, set] : isis_down) out.isis_downtime += set.total();
  for (const auto& [link, set] : syslog_down) out.syslog_downtime += set.total();
  for (const auto& [link, set] : isis_down) {
    const auto it = syslog_down.find(link);
    if (it != syslog_down.end()) {
      out.overlap_downtime += set.intersect(it->second).total();
    }
  }

  // Greedy 1-1 failure matching per link, chronological. Both lists are
  // begin-ordered per link (asserted), so an IS-IS failure that begins
  // more than a window before this syslog failure can match neither it
  // nor any later one on the link: each link's cursor skips those for
  // good, and every scan starts at the first IS-IS failure still in reach.
  struct LinkQueue {
    std::vector<std::size_t> isis;  // indices into `isis`, begin-ordered
    std::size_t cursor = 0;         // first entry not yet out of reach
    TimePoint last_syslog_begin = TimePoint::from_unix_millis(
        std::numeric_limits<std::int64_t>::min());
  };
  std::map<LinkId, LinkQueue> isis_by_link;
  for (std::size_t i = 0; i < isis.size(); ++i) {
    std::vector<std::size_t>& q = isis_by_link[isis[i].link].isis;
    NETFAIL_ASSERT(q.empty() || isis[q.back()].span.begin <= isis[i].span.begin,
                   "match_failures: IS-IS failures not chronological per link");
    q.push_back(i);
  }
  std::vector<bool> isis_used(isis.size(), false);
  std::vector<bool> syslog_matched(syslog.size(), false);

  for (std::size_t s = 0; s < syslog.size(); ++s) {
    const Failure& sf = syslog[s];
    const auto it = isis_by_link.find(sf.link);
    if (it == isis_by_link.end()) continue;
    LinkQueue& lq = it->second;
    NETFAIL_ASSERT(lq.last_syslog_begin <= sf.span.begin,
                   "match_failures: syslog failures not chronological per link");
    lq.last_syslog_begin = sf.span.begin;
    while (lq.cursor < lq.isis.size() &&
           isis[lq.isis[lq.cursor]].span.begin + options.window <
               sf.span.begin) {
      ++lq.cursor;
    }
    for (std::size_t k = lq.cursor; k < lq.isis.size(); ++k) {
      const std::size_t i = lq.isis[k];
      if (isis_used[i]) continue;
      const Failure& isf = isis[i];
      const Duration ds = isf.span.begin - sf.span.begin;
      const Duration de = isf.span.end - sf.span.end;
      const auto abs = [](Duration d) { return d.is_negative() ? -d : d; };
      if (abs(ds) <= options.window && abs(de) <= options.window) {
        isis_used[i] = true;
        syslog_matched[s] = true;
        out.pairs.emplace_back(i, s);
        ++out.matched;
        break;
      }
      // Lists are chronological; once IS-IS failures start after the
      // window, stop scanning.
      if (isf.span.begin > sf.span.begin + options.window) break;
    }
  }

  for (std::size_t i = 0; i < isis.size(); ++i) {
    if (!isis_used[i]) out.isis_only.push_back(i);
  }
  for (std::size_t s = 0; s < syslog.size(); ++s) {
    if (!syslog_matched[s]) out.syslog_only.push_back(s);
  }

  // Partial overlaps and pure false-positive downtime among syslog-only.
  for (std::size_t s : out.syslog_only) {
    const Failure& sf = syslog[s];
    const auto it = isis_down.find(sf.link);
    const bool intersects =
        it != isis_down.end() && it->second.overlaps(sf.span);
    if (intersects) {
      ++out.syslog_partial;
      out.syslog_false_downtime +=
          sf.span.duration() - it->second.measure_within(sf.span);
    } else {
      out.syslog_false_downtime += sf.span.duration();
    }
  }
  return out;
}

}  // namespace netfail::analysis
