#include "telemetry/bench_diff.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <unordered_map>

namespace geo::telemetry {

bool glob_match(std::string_view pattern, std::string_view text) {
  // Iterative '*' backtracking (the classic two-pointer scan): linear in
  // practice, no recursion.
  std::size_t p = 0, t = 0;
  std::size_t star = std::string_view::npos, mark = 0;
  while (t < text.size()) {
    if (p < pattern.size() &&
        (pattern[p] == '?' || pattern[p] == text[t])) {
      ++p;
      ++t;
    } else if (p < pattern.size() && pattern[p] == '*') {
      star = p++;
      mark = t;
    } else if (star != std::string_view::npos) {
      p = star + 1;
      t = ++mark;
    } else {
      return false;
    }
  }
  while (p < pattern.size() && pattern[p] == '*') ++p;
  return p == pattern.size();
}

std::vector<DiffRule> default_diff_rules() {
  // First match wins. Wall-clock measurements vary run to run on shared
  // hardware, so they are ignored; everything else in a bench JSON is a
  // deterministic function of the model/seeds and gates tightly.
  return {
      {"metrics.histograms.*", 0, 0, 0, true},  // span timings (seconds)
      {"benchmarks.*", 0, 0, 0, true},          // raw google-benchmark rows
      {"*build_ns*", 0, 0, 0, true},
      {"*_wall_s*", 0, 0, 0, true},
      {"*per_s*", 0, 0, 0, true},  // measured throughput, not simulated
      {"*_us", 0, 0, 0, true},     // wall-clock latency percentiles (serve)
      // Run-shape diagnostics: trainer metrics only appear when the
      // trained-model cache misses, and stream-table hit/generation/fill
      // counts depend on that cache plus the pool width (GEO_THREADS).
      // The cycle ledger and attr.* gauges stay gated — those are
      // deterministic at every thread count.
      {"metrics.counters.train.*", 0, 0, 0, true},
      {"metrics.gauges.train.*", 0, 0, 0, true},
      {"metrics.counters.*stream_table_*", 0, 0, 0, true},
      {"metrics.counters.*_streams_generated", 0, 0, 0, true},
      {"metrics.counters.*_buffer_fills", 0, 0, 0, true},
      {"*ledger_ok*", 0.0, 0.0, -1, false},
      // Measured speedup ratios (table-vs-tick, SIMD-vs-scalar):
      // wall-clock-derived, so noisy run to run, but a collapse means an
      // optimization silently stopped engaging. Gate loosely, higher is
      // better.
      {"*speedup*", 0.5, 0.0, -1, false},
      {"*accuracy*", 0.0, 0.25, -1, false},  // percentage points
      {"*frames_per_joule*", 0.02, 0.0, -1, false},
      {"*frames_per_second*", 0.02, 0.0, -1, false},
      {"*fps*", 0.02, 0.0, -1, false},
      {"*throughput*", 0.02, 0.0, -1, false},
      {"*cycles*", 0.02, 0.0, 1, false},
      {"*energy*", 0.02, 0.0, 1, false},
      {"*joule*", 0.02, 0.0, 1, false},
      {"*area*", 0.02, 0.0, 1, false},
      {"*power*", 0.02, 0.0, 1, false},
      {"*seconds*", 0.02, 0.0, 1, false},  // simulated latency
      {"*", 0.02, 1e-12, 0, false},
  };
}

void flatten_numeric(const Json& doc, const std::string& prefix,
                     std::vector<std::pair<std::string, double>>& out) {
  auto join = [&](const std::string& key) {
    return prefix.empty() ? key : prefix + "." + key;
  };
  if (doc.is_object()) {
    for (const auto& [key, value] : doc.members())
      flatten_numeric(value, join(key), out);
  } else if (doc.is_array()) {
    for (std::size_t i = 0; i < doc.elements().size(); ++i)
      flatten_numeric(doc.elements()[i], join(std::to_string(i)), out);
  } else if (doc.is_number()) {
    out.emplace_back(prefix, doc.number());
  } else if (doc.is_bool()) {
    out.emplace_back(prefix, doc.boolean() ? 1.0 : 0.0);
  }
  // strings / nulls / raw: not comparable, skipped
}

namespace {

const DiffRule* match_rule(const std::vector<DiffRule>& rules,
                           const std::string& path) {
  for (const DiffRule& r : rules)
    if (glob_match(r.pattern, path)) return &r;
  return nullptr;
}

}  // namespace

DiffResult diff_documents(const Json& base, const Json& current,
                          const std::vector<DiffRule>& rules) {
  std::vector<std::pair<std::string, double>> base_flat, cur_flat;
  flatten_numeric(base, "", base_flat);
  flatten_numeric(current, "", cur_flat);
  std::unordered_map<std::string, double> cur_map;
  cur_map.reserve(cur_flat.size());
  for (const auto& [path, value] : cur_flat) cur_map.emplace(path, value);
  std::unordered_map<std::string, double> base_map;
  base_map.reserve(base_flat.size());
  for (const auto& [path, value] : base_flat) base_map.emplace(path, value);

  DiffResult result;
  for (const auto& [path, base_value] : base_flat) {
    MetricDelta d;
    d.path = path;
    d.base = base_value;
    const DiffRule* rule = match_rule(rules, path);
    if (rule != nullptr && rule->ignore) {
      d.kind = DeltaKind::kIgnored;
      ++result.ignored;
      result.deltas.push_back(std::move(d));
      continue;
    }
    const auto it = cur_map.find(path);
    if (it == cur_map.end()) {
      d.kind = DeltaKind::kRemoved;
      ++result.regressions;
      result.deltas.push_back(std::move(d));
      continue;
    }
    d.current = it->second;
    ++result.compared;
    const double rel = rule != nullptr ? rule->rel_tol : 0.0;
    const double abs = rule != nullptr ? rule->abs_tol : 0.0;
    const int direction = rule != nullptr ? rule->direction : 0;
    const double tol = std::max(abs, rel * std::fabs(d.base));
    const double delta = d.current - d.base;
    if (std::fabs(delta) <= tol) {
      d.kind = DeltaKind::kOk;
    } else {
      const bool worse = direction == 0 || (direction > 0 && delta > 0) ||
                         (direction < 0 && delta < 0);
      d.kind = worse ? DeltaKind::kRegression : DeltaKind::kImprovement;
      if (worse)
        ++result.regressions;
      else
        ++result.improvements;
    }
    result.deltas.push_back(std::move(d));
  }
  for (const auto& [path, value] : cur_flat) {
    if (base_map.find(path) != base_map.end()) continue;
    MetricDelta d;
    d.path = path;
    d.current = value;
    d.kind = DeltaKind::kAdded;
    result.deltas.push_back(std::move(d));
  }
  return result;
}

std::string summarize_diff(const DiffResult& result, bool verbose) {
  std::string out;
  auto line = [&out](const char* tag, const MetricDelta& d) {
    char buf[256];
    std::snprintf(buf, sizeof(buf), "%-11s %-60s %.6g -> %.6g\n", tag,
                  d.path.c_str(), d.base, d.current);
    out += buf;
  };
  for (const MetricDelta& d : result.deltas) {
    switch (d.kind) {
      case DeltaKind::kRegression: line("REGRESSION", d); break;
      case DeltaKind::kRemoved: line("REMOVED", d); break;
      case DeltaKind::kImprovement: line("improvement", d); break;
      case DeltaKind::kAdded:
        if (verbose) line("added", d);
        break;
      case DeltaKind::kOk:
        if (verbose) line("ok", d);
        break;
      case DeltaKind::kIgnored:
        if (verbose) line("ignored", d);
        break;
    }
  }
  char buf[192];
  std::snprintf(buf, sizeof(buf),
                "%zu compared, %zu regression(s), %zu improvement(s), "
                "%zu ignored\n",
                result.compared, result.regressions, result.improvements,
                result.ignored);
  out += buf;
  return out;
}

}  // namespace geo::telemetry
