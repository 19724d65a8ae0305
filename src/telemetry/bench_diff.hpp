// Bench regression comparison: flattens two BENCH_*.json documents into
// path->value maps and diffs them under per-metric tolerance rules, so a
// committed baseline tree can gate changes in CI (`geo_report` is the CLI
// over this core).
//
// A rule is a '*' glob over the flattened metric path (e.g.
// "attr.layers.0.generation_cycles", "metrics.counters.machine.total_cycles")
// with a tolerance and a direction: +1 flags increases (cycles, energy,
// area), -1 flags decreases (accuracy, throughput, ledger_ok), 0 flags any
// drift. First matching rule wins; `ignore` drops wall-clock noise like
// histogram timings. Booleans flatten to 1/0 so `ledger_ok` going false is
// a catchable regression; strings and nulls are skipped.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include "telemetry/json.hpp"

namespace geo::telemetry {

// Glob with '*' (any run, including empty) and '?' (any one char).
bool glob_match(std::string_view pattern, std::string_view text);

struct DiffRule {
  std::string pattern;
  double rel_tol = 0.0;
  double abs_tol = 0.0;
  int direction = 0;  // +1 higher is worse, -1 lower is worse, 0 two-sided
  bool ignore = false;
};

// The tolerance policy described above. Ends in a catch-all two-sided 2%
// rule, so every numeric metric is gated unless explicitly ignored.
std::vector<DiffRule> default_diff_rules();

// Depth-first numeric leaves of `doc` as ("a.b.0.c", value) pairs, in
// document order. Bools become 1/0; strings, nulls and raw nodes are
// skipped. `prefix` seeds the path (pass "" at the root).
void flatten_numeric(const Json& doc, const std::string& prefix,
                     std::vector<std::pair<std::string, double>>& out);

enum class DeltaKind {
  kOk,           // within tolerance
  kRegression,   // drifted in the rule's bad direction
  kImprovement,  // drifted beyond tolerance in the good direction
  kAdded,        // metric only in current (informational)
  kRemoved,      // metric only in base (a regression: coverage shrank)
  kIgnored,
};

struct MetricDelta {
  std::string path;
  double base = 0.0;
  double current = 0.0;
  DeltaKind kind = DeltaKind::kOk;
};

struct DiffResult {
  std::vector<MetricDelta> deltas;  // document order, every leaf
  std::size_t compared = 0;
  std::size_t regressions = 0;
  std::size_t improvements = 0;
  std::size_t ignored = 0;

  bool ok() const { return regressions == 0; }
};

DiffResult diff_documents(const Json& base, const Json& current,
                          const std::vector<DiffRule>& rules);

// Human-readable report: one line per regression/improvement (all compared
// lines when `verbose`), then a summary line.
std::string summarize_diff(const DiffResult& result, bool verbose = false);

}  // namespace geo::telemetry
