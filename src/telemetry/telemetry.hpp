// Umbrella header for the telemetry subsystem.
//
//   MetricsRegistry  process-wide counters / gauges / histograms, always on
//   ScopedTimer      RAII span: histogram timing + Chrome-trace B/E events
//   Tracer           sharded Chrome trace-event buffer, gated by
//                    GEO_TRACE=<path>
//   Journal          bounded structured event ring, gated by
//                    GEO_JOURNAL=<path>
//   exporters        JSON metric dumps, gated by GEO_METRICS=<path>
//   bench_diff       BENCH_*.json comparison under per-metric tolerances
//
// See docs/OBSERVABILITY.md for the environment knobs and file formats.
#pragma once

#include "telemetry/bench_diff.hpp"
#include "telemetry/export.hpp"
#include "telemetry/journal.hpp"
#include "telemetry/json.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"
