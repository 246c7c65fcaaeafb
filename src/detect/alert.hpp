// detect::LinkAlert / detect::AlertSink — the output side of the online
// anomaly detection stage.
//
// The detector emits timestamped per-link alerts; the sink is the one
// place they land. It is thread-safe (the gateway's consumer thread
// appends while a display thread snapshots) and copyable (a stream
// Checkpoint is a deep copy of the whole engine, alerts included), and it
// mirrors every append into the process-wide metrics registry so a
// `netfail serve` metrics snapshot shows alert counts without touching
// engine internals. Alongside the log it keeps per-link counts by kind —
// what a live query reports — so reading them costs O(links), not
// O(alerts); the counts are derived state, rebuilt from the log on
// restore and never serialized.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "src/common/events.hpp"
#include "src/common/ids.hpp"
#include "src/common/sym.hpp"
#include "src/common/sync.hpp"
#include "src/common/thread_annotations.hpp"
#include "src/common/time.hpp"

namespace netfail::svc {
class EngineCodec;  // durable snapshot serializer (src/svc)
}  // namespace netfail::svc

namespace netfail::detect {

enum class AlertKind {
  /// An IS-IS adjacency DOWN was observed: the link is hard-down right now.
  kHardDown,
  /// The CUSUM statistic over syslog inter-failure gaps crossed its
  /// threshold: the link is failing anomalously often.
  kFlapCusum,
  /// A syslog template's per-window frequency jumped far above its
  /// baseline: message-pattern drift on this link.
  kTemplateDrift,
};

inline const char* alert_kind_name(AlertKind k) {
  switch (k) {
    case AlertKind::kHardDown: return "hard-down";
    case AlertKind::kFlapCusum: return "flap-cusum";
    case AlertKind::kTemplateDrift: return "template-drift";
  }
  return "?";
}

struct LinkAlert {
  LinkId link;
  TimePoint time;  // event time the alert fired at (simulated clock)
  AlertKind kind = AlertKind::kHardDown;
  /// Detector score at fire time: CUSUM statistic, drift ratio, or 0 for
  /// hard-down (the observation is the evidence).
  double score = 0.0;
  /// The drifting template for kTemplateDrift; invalid otherwise.
  Symbol template_id;
};

/// One link's alert totals by kind.
struct AlertCounts {
  std::uint64_t hard_down = 0;
  std::uint64_t flap_cusum = 0;
  std::uint64_t template_drift = 0;

  void add(AlertKind kind) {
    switch (kind) {
      case AlertKind::kHardDown: ++hard_down; break;
      case AlertKind::kFlapCusum: ++flap_cusum; break;
      case AlertKind::kTemplateDrift: ++template_drift; break;
    }
  }
  bool empty() const {
    return hard_down == 0 && flap_cusum == 0 && template_drift == 0;
  }
  bool operator==(const AlertCounts&) const = default;
};

/// Thread-safe append-only alert log. The detector (engine thread) appends;
/// any thread may snapshot. Copyable so Checkpoint's engine deep-copy
/// carries the alert history; the `on_alert` callback survives copies the
/// same way LinkTracker callbacks do.
class AlertSink {
 public:
  AlertSink() = default;
  AlertSink(const AlertSink& other);
  AlertSink& operator=(const AlertSink& other);

  /// Invoked synchronously on every emit(), after the alert is recorded.
  std::function<void(const LinkAlert&)> on_alert;

  void emit(const LinkAlert& alert);

  std::uint64_t size() const;
  /// All alerts so far, emission order.
  std::vector<LinkAlert> snapshot() const;

  /// Calls `f(link, counts)` for every link with at least one alert, in
  /// ascending link order, under the sink lock. Allocation-free: the live
  /// query snapshot reads per-link totals through this.
  template <class F>
  void for_each_link_counts(F&& f) const {
    sync::MutexLock lock(mu_);
    for (std::size_t i = 0; i < by_link_.size(); ++i) {
      if (!by_link_[i].empty()) {
        f(LinkId(static_cast<LinkId::underlying_type>(i)), by_link_[i]);
      }
    }
  }

 private:
  friend class netfail::svc::EngineCodec;

  /// Replace the log wholesale and recount (durable-snapshot restore).
  void restore(std::vector<LinkAlert> alerts);
  void count_locked(const LinkAlert& alert) NETFAIL_REQUIRES(mu_);

  mutable sync::Mutex mu_;
  std::vector<LinkAlert> alerts_ NETFAIL_GUARDED_BY(mu_);
  /// Per-link totals by kind, indexed by LinkId::index(); derived from
  /// `alerts_` (alerts on invalid links are logged but not counted).
  std::vector<AlertCounts> by_link_ NETFAIL_GUARDED_BY(mu_);
};

}  // namespace netfail::detect
