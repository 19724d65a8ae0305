// GEO end-to-end benchmark program (see ../README.md).
//
//   geo_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                 [--artifacts DIR]
//
// --trace 0 prints every end-to-end metric. --trace 1 is the traced run: a
// quarter of the time untraced, a quarter traced, a quarter replaying one
// unit of work layer by layer through the public machine API, a quarter
// untraced again; it prints the per-layer metrics and writes a
// Chrome/Perfetto trace under DIR. The last line of stdout is the JSON
// result; exit 0 only when every output was correct.
#include <cstdio>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <thread>

#include <unistd.h>

#include "arch/attribution.hpp"
#include "breakdown.hpp"
#include "core/env.hpp"
#include "exec/thread_pool.hpp"
#include "sc/stream_table.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"
#include "workload.hpp"

namespace {

using namespace perfbench;

const Clock::time_point kProcessStart = Clock::now();
const CpuTicks kProcessTicks = host_cpu_ticks();

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  std::string artifacts = ".bench_build/perfbench/artifacts";
};

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        const std::string& scratch) {
  if (name == "lenet5-exec")
    return make_exec_workload(geo::arch::NetworkShape::lenet5());
  if (name == "cnn4-exec")
    return make_exec_workload(geo::arch::NetworkShape::cnn4_cifar());
  if (name == "serve-open") return make_serve_workload(scratch);
  if (name == "pipeline-fc") return make_pipeline_workload();
  return nullptr;
}

bool parse(int argc, char** argv, Args& a) {
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i], val = argv[i + 1];
    if (key == "--workload") {
      a.workload = val;
      have_workload = true;
    } else if (key == "--seed") {
      const auto v = geo::core::parse_uint(val);
      if (!v) return false;
      a.seed = *v;
      have_seed = true;
    } else if (key == "--seconds") {
      const auto v = geo::core::parse_uint(val);
      if (!v || *v < 1 || *v > 600) return false;
      a.seconds = static_cast<double>(*v);
      have_seconds = true;
    } else if (key == "--trace") {
      if (val != "0" && val != "1") return false;
      a.trace = val == "1";
      have_trace = true;
    } else if (key == "--artifacts") {
      a.artifacts = val;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && have_workload && have_seed && have_seconds &&
         have_trace;
}

// Process-wide counters the per-layer metrics are deltas of.
struct Counters {
  std::int64_t act_streams = 0;
  std::int64_t weight_banks = 0;  // machine.weight_streams spans
  double weight_gen_s = 0;
  std::uint64_t table_hits = 0, table_misses = 0, table_fallbacks = 0;
  geo::arch::CycleAttribution attr;
  std::int64_t store_hits = 0, store_loads = 0, io_stall = 0;
  std::int64_t batches = 0, batched = 0;

  static Counters now() {
    auto& m = geo::telemetry::MetricsRegistry::instance();
    auto& tables = geo::sc::StreamTableRegistry::instance();
    Counters c;
    c.act_streams = m.counter("machine.act_streams_generated").value();
    c.weight_banks = m.histogram("machine.weight_streams").count();
    c.weight_gen_s = m.histogram("machine.weight_streams").sum();
    c.table_hits = tables.hits();
    c.table_misses = tables.misses();
    c.table_fallbacks = tables.fallbacks();
    c.attr = geo::arch::AttributionLedger::instance().total();
    c.store_hits = m.counter("store.cache_hits").value();
    c.store_loads = m.counter("store.loads").value();
    c.io_stall = m.counter("machine.io_stall_cycles").value();
    c.batches = m.counter("serve.batch").value();
    c.batched = m.counter("serve.batch_requests").value();
    return c;
  }
};

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

std::vector<double> values(const std::vector<Sample>& samples) {
  std::vector<double> v;
  for (const Sample& s : samples) v.push_back(s.ms);
  return v;
}

bool latency_metrics(const std::vector<double>& latency, Report& r) {
  const Percentile p50 = percentile(latency, 0.5);
  const Percentile p90 = percentile(latency, 0.9);
  std::printf("latency %s\nlatency %s\n", describe(p50, "p50_ms").c_str(),
              describe(p90, "p90_ms").c_str());
  if (!p50.ok || !p90.ok) return false;
  r.set("latency_p50_ms", p50.value, "ms");
  r.set("latency_p90_ms", p90.value, "ms");
  return true;
}

void per_layer(const Timed& traced, const Counters& c0, const Counters& c1,
               const std::vector<LayerTimes>& layers, Report& r) {
  double prepare = 0, walk = 0, mac = 0, finish = 0, run_conv = 0, tiles = 0;
  double prepare1 = 0, walk1 = 0;
  std::printf("\n%-8s %6s %6s %10s %10s %10s %10s %10s %10s %10s\n", "layer",
              "weight", "tiles", "prepare_ms", "walk_ms", "mac_ms",
              "finish_ms", "run_conv", "prep_1lane", "walk_1lane");
  for (const LayerTimes& l : layers) {
    std::printf("%-8s %6.2f %6lld %10.3f %10.3f %10.3f %10.3f %10.3f %10.3f "
                "%10.3f\n",
                l.name.c_str(), l.weight, static_cast<long long>(l.tiles),
                l.prepare_ms, l.walk_ms, l.mac_ms, l.finish_ms, l.run_conv_ms,
                l.prepare_1lane_ms, l.walk_1lane_ms);
    prepare += l.weight * l.prepare_ms;
    walk += l.weight * l.walk_ms;
    mac += l.weight * l.mac_ms;
    finish += l.weight * l.finish_ms;
    run_conv += l.weight * l.run_conv_ms;
    tiles += l.weight * static_cast<double>(l.tiles);
    prepare1 += l.weight * l.prepare_1lane_ms;
    walk1 += l.weight * l.walk_1lane_ms;
  }
  std::printf("breakdown medians over %d replays per layer\n\n",
              layers.empty() ? 0 : layers.front().reps);

  const double units = static_cast<double>(std::max<std::int64_t>(1, traced.units));
  const auto per_unit = [&](double v) { return v / units; };
  r.set("arch.prepare_ms", prepare, "ms");
  r.set("arch.walk_ms", walk, "ms");
  r.set("arch.act_gen_ms", walk - mac, "ms");
  r.set("arch.mac_ms", mac, "ms");
  r.set("arch.finish_ms", finish, "ms");
  r.set("attr.generation_cycles",
        per_unit(static_cast<double>(c1.attr.generation_cycles -
                                     c0.attr.generation_cycles)),
        "cycles");
  r.set("attr.execution_cycles",
        per_unit(static_cast<double>(c1.attr.execution_cycles -
                                     c0.attr.execution_cycles)),
        "cycles");
  r.set("attr.stall_cycles",
        per_unit(static_cast<double>(c1.attr.stall_cycles -
                                     c0.attr.stall_cycles)),
        "cycles");
  r.set("attr.memory_cycles",
        per_unit(static_cast<double>(c1.attr.memory_cycles -
                                     c0.attr.memory_cycles)),
        "cycles");
  r.set("sc.weight_banks",
        per_unit(static_cast<double>(c1.weight_banks - c0.weight_banks)),
        "count");
  r.set("sc.weight_gen_ms", per_unit((c1.weight_gen_s - c0.weight_gen_s) * 1e3),
        "ms");
  r.set("sc.act_streams",
        per_unit(static_cast<double>(c1.act_streams - c0.act_streams)),
        "count");
  const auto hits = static_cast<double>(c1.table_hits - c0.table_hits);
  const auto misses = static_cast<double>(c1.table_misses - c0.table_misses);
  r.set("sc.table_hit_ratio", ratio(hits, hits + misses), "ratio");
  r.set("sc.table_fallbacks",
        per_unit(static_cast<double>(c1.table_fallbacks - c0.table_fallbacks)),
        "count");
  r.set("exec.tiles", tiles, "count");
  const bool multi = std::thread::hardware_concurrency() >= 2;
  r.set("exec.walk_speedup", multi ? ratio(walk1, walk) : 0.0, "x");
  r.set("exec.prepare_speedup", multi ? ratio(prepare1, prepare) : 0.0, "x");
  if (!multi)
    std::printf("exec.walk_speedup / exec.prepare_speedup unmeasured "
                "(nproc < 2), reported as 0\n");
  r.set("resilience.overhead_ms", run_conv - (prepare + walk + finish), "ms");
  r.set("resilience.retries", per_unit(static_cast<double>(traced.retries)),
        "count");
  r.set("resilience.degraded", static_cast<double>(traced.degraded), "count");
  // Serving metrics default to "no server on this path"; serve-open
  // overwrites them with its own (pipeline-fc adds pipeline.*).
  r.set("serve.queue_frac", 0.0, "ratio");
  r.set("serve.service_frac", 0.0, "ratio");
  r.set("serve.shed_frac", 0.0, "ratio");
  const auto batches = static_cast<double>(c1.batches - c0.batches);
  r.set("serve.batch_occupancy",
        batches > 0 ? static_cast<double>(c1.batched - c0.batched) / batches
                    : 1.0,
        "ratio");
  const auto store_hits = static_cast<double>(c1.store_hits - c0.store_hits);
  const auto store_loads =
      static_cast<double>(c1.store_loads - c0.store_loads);
  r.set("store.cache_hit_ratio", ratio(store_hits, store_hits + store_loads),
        "ratio");
  r.set("store.io_stall_cycles",
        per_unit(static_cast<double>(c1.io_stall - c0.io_stall)), "cycles");
  for (const Metric& m : traced.layer_metrics) r.set(m.name, m.value, m.unit);
}

// Runs the workload for `seconds` while recording host steal.
Timed monitored_run(Workload& wl, double seconds,
                    std::vector<Window>& windows) {
  HostMonitor monitor(std::chrono::milliseconds(500));
  Timed t = wl.run(seconds);
  windows = monitor.stop();
  return t;
}

// Median latency with the stolen time taken out of every sample.
double corrected_median(const Timed& t, const std::vector<Window>& windows) {
  return median(correct_for_steal(windows, t.latency, t.latency.size(),
                                  t.completions, t.busy_begin, t.busy_end)
                    .latency_ms);
}

// Writes the timed run's raw samples and host windows (times in ms from
// the first window) so the timing statistics can be re-derived offline.
void write_timing(const std::string& path, const Timed& t,
                  const std::vector<Window>& windows) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return;
  const auto t0 = windows.front().begin;
  std::fprintf(f, "{\"windows\": [");
  for (std::size_t i = 0; i < windows.size(); ++i)
    std::fprintf(f, "%s[%.3f, %.3f, %.6f]", i ? ", " : "",
                 ms_between(t0, windows[i].begin),
                 ms_between(t0, windows[i].end), windows[i].stolen);
  std::fprintf(f, "], \"latency\": [");
  for (std::size_t i = 0; i < t.latency.size(); ++i)
    std::fprintf(f, "%s[%.3f, %.4f]", i ? ", " : "",
                 ms_between(t0, t.latency[i].done), t.latency[i].ms);
  std::fprintf(f, "], \"completions\": [");
  for (std::size_t i = 0; i < t.completions.size(); ++i)
    std::fprintf(f, "%s%.3f", i ? ", " : "", ms_between(t0, t.completions[i]));
  std::fprintf(f, "], \"busy\": [%.3f, %.3f]}\n",
               ms_between(t0, t.busy_begin), ms_between(t0, t.busy_end));
  std::fclose(f);
}

int run(const Args& a) {
  const std::string scratch = a.artifacts + "/" + a.workload + "-" +
                              std::to_string(::getpid());
  std::unique_ptr<Workload> wl = make_workload(a.workload, scratch + "-store");
  if (!wl) {
    std::fprintf(stderr, "unknown workload '%s'\n", a.workload.c_str());
    return 2;
  }
  std::printf("host: %s\n", host_facts_json().c_str());
  std::printf("workload: %s seed=%llu seconds=%g trace=%d\n",
              a.workload.c_str(), static_cast<unsigned long long>(a.seed),
              a.seconds, a.trace ? 1 : 0);

  // Set up three times; the first count starts at process start. Each is
  // corrected for the time stolen during it, like the timed run.
  std::vector<double> setups, setup_stolen;
  for (int i = 0; i < 3; ++i) {
    const auto t0 = i == 0 ? kProcessStart : Clock::now();
    const CpuTicks ticks0 = i == 0 ? kProcessTicks : host_cpu_ticks();
    wl->setup(a.seed);
    setups.push_back(ms_since(t0) / 1000.0);
    setup_stolen.push_back(stolen_share(ticks0, host_cpu_ticks()));
  }
  std::printf("setup_s: %.3f %.3f %.3f (stolen %.1f%% %.1f%% %.1f%%)\n",
              setups[0], setups[1], setups[2], 100 * setup_stolen[0],
              100 * setup_stolen[1], 100 * setup_stolen[2]);
  std::printf("digest: %s\n", wl->digest().c_str());
  std::printf("nn gate: %s\n", wl->gate().c_str());

  Report r;
  Timed t;
  if (!a.trace) {
    std::vector<Window> windows;
    t = monitored_run(*wl, a.seconds, windows);
    std::filesystem::create_directories(a.artifacts);
    write_timing(a.artifacts + "/timing-" + a.workload + "-seed" +
                     std::to_string(a.seed) + ".json",
                 t, windows);
    const StealCorrected c =
        correct_for_steal(windows, t.latency, 12 * kMinBeyond, t.completions,
                          t.busy_begin, t.busy_end, t.throughput_steal_weight);
    std::printf("stolen share: %.2f%% over the run, %.2f%% in the latency "
                "windows, %.2f%% in the throughput windows\n",
                100 * stolen_between(windows, windows.front().begin,
                                     windows.back().end),
                100 * c.stolen_latency, 100 * c.stolen_throughput);
    std::printf("uncorrected: %s, %s\n",
                describe(percentile(values(t.latency), 0.5), "p50_ms").c_str(),
                describe(percentile(values(t.latency), 0.9), "p90_ms").c_str());
    for (std::size_t i = 0; i < setups.size(); ++i)
      setups[i] *= 1.0 - setup_stolen[i];
    r.set("setup_s", median(setups), "s");
    if (!latency_metrics(c.latency_ms, r)) {
      std::fprintf(stderr, "too few samples for the latency percentiles\n");
      return 1;
    }
    r.set("throughput_per_s", c.throughput_per_s, "1/s");
    r.set("slo_met_frac", ratio(static_cast<double>(t.slo_met),
                                static_cast<double>(t.slo_attempted)),
          "ratio");
    r.set("sim_cycles_per_inference", t.cycles_per_unit, "cycles");
    r.set("peak_rss_mb", peak_rss_mb(), "MB");
  } else {
    // Untraced, traced, untraced: the overhead compares the traced part
    // with the untraced parts on either side of it, so drift cancels.
    const double part = a.seconds / 4.0;
    std::vector<Window> w_before, w_traced, w_after;
    const Timed before = monitored_run(*wl, part, w_before);
    std::filesystem::create_directories(a.artifacts);
    const std::string path = a.artifacts + "/trace-" + a.workload + "-seed" +
                             std::to_string(a.seed) + ".json";
    auto& tracer = geo::telemetry::Tracer::instance();
    tracer.set_process_name("geo_perfbench " + a.workload);
    tracer.enable(path);
    const Counters c0 = Counters::now();
    t = monitored_run(*wl, part, w_traced);
    const Counters c1 = Counters::now();
    const std::vector<LayerTimes> layers =
        breakdown([&](int k) { return wl->unit(k); }, part);
    wl->probe(t.notes);
    const bool wrote = tracer.flush();
    tracer.disable();
    const Timed after = monitored_run(*wl, part, w_after);
    std::printf("trace: %s (%s)\n", path.c_str(), wrote ? "written" : "FAILED");
    per_layer(t, c0, c1, layers, r);
    const double untraced = 0.5 * (corrected_median(before, w_before) +
                                   corrected_median(after, w_after));
    r.set("telemetry.trace_overhead_frac",
          ratio(corrected_median(t, w_traced), untraced) - 1.0, "ratio");
    for (const Timed* other : {&before, &after}) {
      t.attempted += other->attempted;
      t.failed += other->failed;
    }
    if (!wrote) t.failed += 1;
  }
  for (const std::string& n : t.notes) std::printf("%s\n", n.c_str());
  r.attempted = t.attempted;
  r.failed = t.failed;
  r.correct = t.failed == 0;
  std::printf("error_frac: %.6f (%lld of %lld)\n",
              ratio(static_cast<double>(t.failed),
                    static_cast<double>(t.attempted)),
              static_cast<long long>(t.failed),
              static_cast<long long>(t.attempted));
  wl.reset();
  std::printf("%s\n", r.to_json().c_str());
  return r.correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  if (!parse(argc, argv, a)) {
    std::fprintf(stderr,
                 "usage: %s --workload {lenet5-exec|cnn4-exec|serve-open|"
                 "pipeline-fc} --seed N --seconds S --trace 0|1 "
                 "[--artifacts DIR]\n",
                 argv[0]);
    return 2;
  }
  if (fault_env_set()) {
    std::fprintf(stderr,
                 "GEO_FAULTS is set: it changes outputs, and the workloads "
                 "install no fault model. Unset it.\n");
    return 2;
  }
  try {
    geo::exec::ScopedThreads lanes(kLanes);
    return run(a);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
