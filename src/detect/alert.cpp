#include "src/detect/alert.hpp"

#include "src/common/metrics.hpp"

namespace netfail::detect {
namespace {

struct AlertMetrics {
  metrics::Counter& total = metrics::global().counter("detect.alerts.total");
  metrics::Counter& hard_down =
      metrics::global().counter("detect.alerts.hard_down");
  metrics::Counter& flap_cusum =
      metrics::global().counter("detect.alerts.flap_cusum");
  metrics::Counter& template_drift =
      metrics::global().counter("detect.alerts.template_drift");
};

// Namespace-scope so the per-alert path carries no static-init guard.
AlertMetrics g_alert_metrics;

metrics::Counter& kind_counter(AlertKind k) {
  switch (k) {
    case AlertKind::kHardDown: return g_alert_metrics.hard_down;
    case AlertKind::kFlapCusum: return g_alert_metrics.flap_cusum;
    case AlertKind::kTemplateDrift: return g_alert_metrics.template_drift;
  }
  return g_alert_metrics.total;
}

}  // namespace

AlertSink::AlertSink(const AlertSink& other) : on_alert(other.on_alert) {
  sync::MutexLock lock(other.mu_);
  alerts_ = other.alerts_;
  by_link_ = other.by_link_;
}

AlertSink& AlertSink::operator=(const AlertSink& other) {
  if (this == &other) return *this;
  std::vector<LinkAlert> copied;
  std::vector<AlertCounts> counts;
  {
    sync::MutexLock lock(other.mu_);
    copied = other.alerts_;
    counts = other.by_link_;
  }
  on_alert = other.on_alert;
  sync::MutexLock lock(mu_);
  alerts_ = std::move(copied);
  by_link_ = std::move(counts);
  return *this;
}

void AlertSink::count_locked(const LinkAlert& alert) {
  if (!alert.link.valid()) return;
  if (alert.link.index() >= by_link_.size()) {
    by_link_.resize(alert.link.index() + 1);
  }
  by_link_[alert.link.index()].add(alert.kind);
}

void AlertSink::restore(std::vector<LinkAlert> alerts) {
  sync::MutexLock lock(mu_);
  alerts_ = std::move(alerts);
  by_link_.clear();
  for (const LinkAlert& alert : alerts_) count_locked(alert);
}

void AlertSink::emit(const LinkAlert& alert) {
  {
    sync::MutexLock lock(mu_);
    alerts_.push_back(alert);
    count_locked(alert);
  }
  g_alert_metrics.total.inc();
  kind_counter(alert.kind).inc();
  if (on_alert) on_alert(alert);
}

std::uint64_t AlertSink::size() const {
  sync::MutexLock lock(mu_);
  return alerts_.size();
}

std::vector<LinkAlert> AlertSink::snapshot() const {
  sync::MutexLock lock(mu_);
  return alerts_;
}

}  // namespace netfail::detect
