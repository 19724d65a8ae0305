// Shared plumbing for the end-to-end benchmark: timing, the percentile rule,
// metric reports, trace spans and host facts.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}
inline double ms_since(Clock::time_point a) { return ms_between(a, Clock::now()); }

// The tile pool is pinned to this many lanes for every workload.
inline constexpr int kLanes = 2;

// A percentile is reported only when at least this many samples rank above
// it; otherwise the tail it claims to describe is just the largest few.
inline constexpr std::size_t kMinBeyond = 10;

struct Percentile {
  bool ok = false;          // false: too few samples beyond (value unusable)
  double value = 0.0;       // nearest-rank percentile
  std::size_t samples = 0;  // sample count it was computed from
  std::size_t beyond = 0;   // samples ranked above it
};

// Nearest-rank percentile of `samples` at fraction `q` in (0, 1]: the value
// of rank ceil(q * n). Refuses (ok = false) when fewer than kMinBeyond
// samples rank above it, so p90 needs >= 100 samples and p99 >= 1000.
Percentile percentile(std::vector<double> samples, double q);

// "p90=12.3 (n=240, 24 beyond)" or "p90 refused (n=40, 4 beyond < 10)".
std::string describe(const Percentile& p, std::string_view label);

double median(std::vector<double> v);

// Open-loop schedule: seeded Poisson arrival offsets (seconds from the
// phase start) at `rate` per second, all below `seconds`.
std::vector<double> poisson_arrivals(double rate, double seconds,
                                     std::uint64_t seed);

// An open-loop request's latency, timed from when it was due rather than
// from when the generator got to submit it, so a stall is charged to every
// request it delays: (submitted - due) + the server's submit -> response.
inline double from_due_ms(Clock::time_point due, Clock::time_point submitted,
                          double response_us) {
  return ms_between(due, submitted) + response_us / 1000.0;
}

// One named metric of a run, in print order.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Report {
  bool correct = true;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<Metric> metrics;

  void set(std::string name, double value, std::string unit);
  // {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
  std::string to_json() const;
};

// 64-bit FNV-1a over byte ranges, for output digests.
class Digest {
 public:
  void add(const void* data, std::size_t bytes);
  std::string hex() const;

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

// Peak resident set of this process (VmHWM), MiB; 0 when unreadable.
double peak_rss_mb();

// Host-wide CPU time from /proc/stat, in clock ticks: time spent running
// (user, nice, system, irq, softirq) and time stolen by the hypervisor
// while a vCPU wanted to run.
struct CpuTicks {
  std::uint64_t busy = 0, steal = 0;
};
CpuTicks host_cpu_ticks();

// Share of the CPU time vCPUs wanted that the hypervisor stole between
// two readings: steal / (running + steal).
double stolen_share(const CpuTicks& a, const CpuTicks& b);

// One window of a timed run and its stolen share.
struct Window {
  Clock::time_point begin, end;
  double stolen = 0.0;
};

// Reads /proc/stat on a background thread every `period`, from
// construction until stop(), and cuts the time into windows.
class HostMonitor {
 public:
  explicit HostMonitor(std::chrono::milliseconds period);
  ~HostMonitor();
  HostMonitor(const HostMonitor&) = delete;
  HostMonitor& operator=(const HostMonitor&) = delete;

  // Stops sampling (idempotent) and returns the windows, in time order.
  std::vector<Window> stop();

 private:
  struct State;
  std::unique_ptr<State> state_;
};

// Time-weighted stolen share of the windows over [a, b) (0 outside them).
double stolen_between(const std::vector<Window>& windows, Clock::time_point a,
                      Clock::time_point b);

// A latency sample and when its unit of work completed.
struct Sample {
  Clock::time_point done;
  double ms = 0.0;
};

// A timed run's end-to-end timings with the hypervisor's stolen time taken
// out. On a VM, the hypervisor runs other guests on this guest's vCPUs for
// a share of the time they wanted (1-65% on a 4-vCPU KVM guest, changing
// over seconds to minutes); that is the neighbours' cost, not the
// program's. Each latency sample is scaled by (1 - stolen share over its
// own interval), and throughput divides completions by the time that was
// not stolen. Both come from the calmer half of the windows of their span
// (ranked by stolen share), so the correction is small where it is used;
// the latency windows are extended with the next calmest until they hold
// `min_latency_samples`. `throughput_steal_weight` is the share of the
// stolen time taken out of the throughput span: 1 for a workload whose
// progress stops whenever a vCPU it runs on is stolen, less for one whose
// threads leave vCPUs idle enough to absorb part of it.
struct StealCorrected {
  std::vector<double> latency_ms;
  double throughput_per_s = 0.0;
  double stolen_latency = 0.0;     // mean stolen share of the chosen windows
  double stolen_throughput = 0.0;
};
StealCorrected correct_for_steal(
    const std::vector<Window>& windows, const std::vector<Sample>& latency,
    std::size_t min_latency_samples,
    const std::vector<Clock::time_point>& completions,
    Clock::time_point busy_begin, Clock::time_point busy_end,
    double throughput_steal_weight = 1.0);

// Host facts recorded with every result: nproc, pinned lanes, SIMD backend,
// stream-table setting and every GEO_* variable that is set.
std::string host_facts_json();

// True when GEO_FAULTS is set (the workloads install no fault model, and an
// ambient one would change every output).
bool fault_env_set();

// Trace span around one call into the stack, tagged with the inference /
// request / network id it belongs to. Costs one relaxed load when tracing
// is off.
class Span {
 public:
  Span(const char* name, std::int64_t id);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  const char* name_;
  bool on_;
};

}  // namespace perfbench
