// Metrics exporter: the JSON rendering of a MetricsRegistry snapshot, shared
// by benches, examples, and tests. `GEO_METRICS=<path>` requests a JSON dump
// at process exit, whatever the path's extension.
#pragma once


#include "telemetry/json.hpp"
#include "telemetry/metrics.hpp"

namespace geo::telemetry {

// {"counters": {...}, "gauges": {...}, "histograms": {name: {count, sum,
//  min, max, mean, p50, p95, p99}}}
Json metrics_to_json(const MetricsRegistry& registry);

// Honors GEO_METRICS; no-op (returns true) when unset.
bool export_metrics_if_requested(const MetricsRegistry& registry);

}  // namespace geo::telemetry
