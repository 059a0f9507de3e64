// The per-System telemetry bundle: one metrics registry, one
// coherence-trace buffer and one tag-decision audit ring, constructed
// from MachineConfig::telemetry.
//
// Components receive a `Telemetry*` and cache the `trace()` / `audit()`
// pointers, which are null when the corresponding pillar is disabled —
// every hot-path hook is then a single predictable branch. No component
// touches the registry: System::run fills it from Stats once, after the
// run, when metrics are enabled (publish_metrics, machine/system.hpp).
#pragma once

#include "sim/config.hpp"
#include "telemetry/audit.hpp"
#include "telemetry/coherence_trace.hpp"
#include "telemetry/registry.hpp"

namespace lssim {

class Telemetry {
 public:
  Telemetry() = default;
  explicit Telemetry(const TelemetryConfig& config)
      : metrics_enabled_(config.metrics),
        trace_(config.trace_capacity),
        audit_(config.audit_capacity) {}

  Telemetry(const Telemetry&) = delete;
  Telemetry& operator=(const Telemetry&) = delete;

  [[nodiscard]] bool metrics_enabled() const noexcept {
    return metrics_enabled_;
  }

  /// The trace buffer, or null when tracing is disabled.
  [[nodiscard]] CoherenceTrace* trace() noexcept {
    return trace_.enabled() ? &trace_ : nullptr;
  }

  /// The tag-decision audit ring, or null when auditing is disabled.
  [[nodiscard]] TagAuditLog* audit() noexcept {
    return audit_.enabled() ? &audit_ : nullptr;
  }

  /// Empty unless metrics are enabled and the run has finished.
  [[nodiscard]] MetricsRegistry& registry() noexcept { return registry_; }
  [[nodiscard]] const MetricsRegistry& registry() const noexcept {
    return registry_;
  }
  [[nodiscard]] const CoherenceTrace& coherence_trace() const noexcept {
    return trace_;
  }
  [[nodiscard]] const TagAuditLog& audit_log() const noexcept {
    return audit_;
  }

 private:
  bool metrics_enabled_ = false;
  MetricsRegistry registry_;
  CoherenceTrace trace_;
  TagAuditLog audit_;
};

}  // namespace lssim
