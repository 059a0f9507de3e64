#include "telemetry/registry.hpp"

#include <cassert>
#include <ostream>
#include <string>

namespace lssim {

std::string MetricDesc::full_name() const {
  if (labels.empty()) return name;
  std::string out = name;
  out += '{';
  for (std::size_t i = 0; i < labels.size(); ++i) {
    if (i > 0) out += ',';
    out += labels[i].first;
    out += '=';
    out += labels[i].second;
  }
  out += '}';
  return out;
}

std::uint32_t MetricsRegistry::register_metric(std::string name,
                                               MetricLabels labels,
                                               MetricKind kind) {
  MetricDesc desc{std::move(name), kind, std::move(labels), 0};
  const std::string full = desc.full_name();
  if (const auto it = by_name_.find(full); it != by_name_.end()) {
    assert(descs_[it->second].kind == kind &&
           "metric re-registered with a different kind");
    return it->second;
  }
  switch (kind) {
    case MetricKind::kCounter:
      desc.slot = static_cast<std::uint32_t>(counters_.size());
      counters_.push_back(0);
      break;
    case MetricKind::kGauge:
      desc.slot = static_cast<std::uint32_t>(gauges_.size());
      gauges_.push_back(0);
      break;
    case MetricKind::kHistogram:
      desc.slot = static_cast<std::uint32_t>(histograms_.size());
      histograms_.emplace_back();
      break;
  }
  const auto index = static_cast<std::uint32_t>(descs_.size());
  descs_.push_back(std::move(desc));
  by_name_.emplace(full, index);
  return index;
}

CounterHandle MetricsRegistry::counter(std::string name,
                                       MetricLabels labels) {
  const std::uint32_t idx =
      register_metric(std::move(name), std::move(labels),
                      MetricKind::kCounter);
  return CounterHandle{descs_[idx].slot};
}

GaugeHandle MetricsRegistry::gauge(std::string name, MetricLabels labels) {
  const std::uint32_t idx = register_metric(
      std::move(name), std::move(labels), MetricKind::kGauge);
  return GaugeHandle{descs_[idx].slot};
}

HistogramHandle MetricsRegistry::histogram(std::string name,
                                           MetricLabels labels) {
  const std::uint32_t idx = register_metric(
      std::move(name), std::move(labels), MetricKind::kHistogram);
  return HistogramHandle{descs_[idx].slot};
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  MetricsSnapshot snap;
  snap.descs = descs_;
  snap.counters = counters_;
  snap.gauges = gauges_;
  snap.histograms = histograms_;
  return snap;
}

std::uint64_t MetricsSnapshot::counter_value(const std::string& full) const {
  for (const MetricDesc& d : descs) {
    if (d.kind == MetricKind::kCounter && d.full_name() == full) {
      return counters[d.slot];
    }
  }
  return 0;
}

std::uint64_t MetricsSnapshot::counter_total(const std::string& name) const {
  std::uint64_t sum = 0;
  for (const MetricDesc& d : descs) {
    if (d.kind == MetricKind::kCounter && d.name == name) {
      sum += counters[d.slot];
    }
  }
  return sum;
}

const HistogramData* MetricsSnapshot::histogram(
    const std::string& full) const {
  for (const MetricDesc& d : descs) {
    if (d.kind == MetricKind::kHistogram && d.full_name() == full) {
      return &histograms[d.slot];
    }
  }
  return nullptr;
}

Json snapshot_to_json(const MetricsSnapshot& snapshot) {
  Json::Array metrics;
  metrics.reserve(snapshot.descs.size());
  for (const MetricDesc& d : snapshot.descs) {
    Json::Object m;
    m.emplace_back("name", Json(d.name));
    m.emplace_back("kind", Json(to_string(d.kind)));
    if (!d.labels.empty()) {
      Json::Object labels;
      for (const auto& [k, v] : d.labels) labels.emplace_back(k, Json(v));
      m.emplace_back("labels", Json(std::move(labels)));
    }
    switch (d.kind) {
      case MetricKind::kCounter:
        m.emplace_back("value", Json(snapshot.counters[d.slot]));
        break;
      case MetricKind::kGauge:
        m.emplace_back("value", Json(snapshot.gauges[d.slot]));
        break;
      case MetricKind::kHistogram: {
        const HistogramData& h = snapshot.histograms[d.slot];
        m.emplace_back("samples", Json(h.samples));
        m.emplace_back("sum", Json(h.sum));
        Json::Array buckets;
        buckets.reserve(HistogramData::kBuckets);
        int top = HistogramData::kBuckets;
        while (top > 0 && h.counts[static_cast<std::size_t>(top - 1)] == 0) {
          --top;  // Trim trailing empty buckets.
        }
        for (int b = 0; b < top; ++b) {
          buckets.emplace_back(h.counts[static_cast<std::size_t>(b)]);
        }
        m.emplace_back("buckets", Json(std::move(buckets)));
        break;
      }
    }
    metrics.emplace_back(std::move(m));
  }
  return Json(std::move(metrics));
}

bool snapshot_from_json(const Json& json, MetricsSnapshot* out,
                        std::string* error) {
  const auto fail = [error](const char* what) {
    if (error != nullptr) *error = what;
    return false;
  };
  if (!json.is_array()) return fail("metrics snapshot must be an array");
  *out = MetricsSnapshot{};
  for (const Json& m : json.as_array()) {
    if (!m.is_object()) return fail("metric entry must be an object");
    const Json* name = m.find("name");
    const Json* kind = m.find("kind");
    if (name == nullptr || !name->is_string() || kind == nullptr ||
        !kind->is_string()) {
      return fail("metric entry needs string 'name' and 'kind'");
    }
    MetricDesc desc;
    desc.name = name->as_string();
    if (const Json* labels = m.find("labels"); labels != nullptr) {
      if (!labels->is_object()) return fail("metric labels must be an object");
      for (const auto& [k, v] : labels->as_object()) {
        if (!v.is_string()) return fail("label values must be strings");
        desc.labels.emplace_back(k, v.as_string());
      }
    }
    const std::string& kind_name = kind->as_string();
    if (kind_name == "counter") {
      const Json* value = m.find("value");
      if (value == nullptr || !value->is_number()) {
        return fail("counter needs a numeric 'value'");
      }
      desc.kind = MetricKind::kCounter;
      desc.slot = static_cast<std::uint32_t>(out->counters.size());
      out->counters.push_back(value->as_uint());
    } else if (kind_name == "gauge") {
      const Json* value = m.find("value");
      if (value == nullptr || !value->is_number()) {
        return fail("gauge needs a numeric 'value'");
      }
      desc.kind = MetricKind::kGauge;
      desc.slot = static_cast<std::uint32_t>(out->gauges.size());
      out->gauges.push_back(static_cast<std::int64_t>(value->as_double()));
    } else if (kind_name == "histogram") {
      const Json* samples = m.find("samples");
      const Json* sum = m.find("sum");
      const Json* buckets = m.find("buckets");
      if (samples == nullptr || !samples->is_number() || sum == nullptr ||
          !sum->is_number() || buckets == nullptr || !buckets->is_array() ||
          buckets->as_array().size() >
              static_cast<std::size_t>(HistogramData::kBuckets)) {
        return fail("histogram needs 'samples', 'sum' and 'buckets'");
      }
      HistogramData h;
      h.samples = samples->as_uint();
      h.sum = sum->as_uint();
      const Json::Array& counts = buckets->as_array();
      for (std::size_t b = 0; b < counts.size(); ++b) {
        if (!counts[b].is_number()) return fail("histogram bucket not numeric");
        h.counts[b] = counts[b].as_uint();
      }
      desc.kind = MetricKind::kHistogram;
      desc.slot = static_cast<std::uint32_t>(out->histograms.size());
      out->histograms.push_back(h);
    } else {
      return fail("unknown metric kind");
    }
    out->descs.push_back(std::move(desc));
  }
  return true;
}

void print_metrics(std::ostream& os, const MetricsSnapshot& snapshot) {
  for (const MetricDesc& d : snapshot.descs) {
    os << d.full_name() << ' ';
    switch (d.kind) {
      case MetricKind::kCounter:
        os << snapshot.counters[d.slot];
        break;
      case MetricKind::kGauge:
        os << snapshot.gauges[d.slot];
        break;
      case MetricKind::kHistogram: {
        const HistogramData& h = snapshot.histograms[d.slot];
        os << "samples=" << h.samples << " mean=" << h.mean()
           << " p99<=" << h.percentile(0.99);
        break;
      }
    }
    os << '\n';
  }
}

}  // namespace lssim
