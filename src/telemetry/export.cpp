#include "telemetry/export.hpp"

#include <cstdlib>

namespace geo::telemetry {

namespace {

Json histogram_json(const Histogram::Snapshot& h) {
  Json obj = Json::object();
  obj.set("count", Json(h.count));
  obj.set("sum", Json(h.sum));
  obj.set("min", Json(h.min));
  obj.set("max", Json(h.max));
  obj.set("mean", Json(h.mean));
  obj.set("p50", Json(h.p50));
  obj.set("p95", Json(h.p95));
  obj.set("p99", Json(h.p99));
  return obj;
}

}  // namespace

Json metrics_to_json(const MetricsRegistry& registry) {
  Json counters = Json::object();
  Json gauges = Json::object();
  Json histograms = Json::object();
  for (const MetricSnapshot& m : registry.snapshot()) {
    switch (m.kind) {
      case MetricKind::kCounter:
        counters.set(m.name, Json(static_cast<std::int64_t>(m.value)));
        break;
      case MetricKind::kGauge:
        gauges.set(m.name, Json(m.value));
        break;
      case MetricKind::kHistogram:
        histograms.set(m.name, histogram_json(m.hist));
        break;
    }
  }
  Json root = Json::object();
  root.set("counters", std::move(counters));
  root.set("gauges", std::move(gauges));
  root.set("histograms", std::move(histograms));
  return root;
}

bool export_metrics_if_requested(const MetricsRegistry& registry) {
  const char* path = std::getenv("GEO_METRICS");
  if (path == nullptr || path[0] == '\0') return true;
  return metrics_to_json(registry).write_file(path);
}

}  // namespace geo::telemetry
