#include "harness.hpp"

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <mutex>
#include <random>
#include <thread>

#include "sc/simd.hpp"
#include "sc/stream_table.hpp"
#include "telemetry/trace.hpp"

extern char** environ;

namespace perfbench {

namespace {

std::string json_string(std::string_view s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

Percentile percentile(std::vector<double> samples, double q) {
  Percentile p;
  p.samples = samples.size();
  if (samples.empty() || !(q > 0.0) || q > 1.0) return p;
  std::sort(samples.begin(), samples.end());
  const auto n = samples.size();
  auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  rank = std::clamp<std::size_t>(rank, 1, n);
  p.value = samples[rank - 1];
  p.beyond = n - rank;
  p.ok = p.beyond >= kMinBeyond;
  return p;
}

std::string describe(const Percentile& p, std::string_view label) {
  char buf[160];
  if (p.ok)
    std::snprintf(buf, sizeof buf, "%.*s=%.3f (n=%zu, %zu beyond)",
                  static_cast<int>(label.size()), label.data(), p.value,
                  p.samples, p.beyond);
  else
    std::snprintf(buf, sizeof buf, "%.*s refused (n=%zu, %zu beyond < %zu)",
                  static_cast<int>(label.size()), label.data(), p.samples,
                  p.beyond, kMinBeyond);
  return buf;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::vector<double> poisson_arrivals(double rate, double seconds,
                                     std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::exponential_distribution<double> gap(rate);
  std::vector<double> at;
  for (double t = gap(rng); t < seconds; t += gap(rng)) at.push_back(t);
  return at;
}

void Report::set(std::string name, double value, std::string unit) {
  for (auto& m : metrics)
    if (m.name == name) {
      m.value = value;
      m.unit = std::move(unit);
      return;
    }
  metrics.push_back({std::move(name), value, std::move(unit)});
}

std::string Report::to_json() const {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += json_string(metrics[i].name) + ": {\"value\": " +
           json_number(metrics[i].value) +
           ", \"unit\": " + json_string(metrics[i].unit) + "}";
  }
  return out + "}}";
}

void Digest::add(const void* data, std::size_t bytes) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < bytes; ++i) {
    h_ ^= p[i];
    h_ *= 0x100000001b3ull;
  }
}

std::string Digest::hex() const {
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(h_));
  return buf;
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0)
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MiB
  }
  return 0.0;
}

CpuTicks host_cpu_ticks() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  CpuTicks t;
  if (!(stat >> cpu) || cpu != "cpu") return t;
  // user nice system idle iowait irq softirq steal ...
  std::uint64_t v = 0;
  for (int i = 0; i < 8 && (stat >> v); ++i) {
    if (i == 0 || i == 1 || i == 2 || i == 5 || i == 6) t.busy += v;
    if (i == 7) t.steal = v;
  }
  return t;
}

double stolen_share(const CpuTicks& a, const CpuTicks& b) {
  const auto steal = static_cast<double>(b.steal - a.steal);
  const auto busy = static_cast<double>(b.busy - a.busy);
  return busy + steal > 0 ? steal / (busy + steal) : 0.0;
}

struct HostMonitor::State {
  struct Sample {
    Clock::time_point at;
    CpuTicks ticks;
  };
  std::chrono::milliseconds period;
  std::mutex mu;
  std::condition_variable cv;
  bool stopping = false;
  std::vector<Sample> samples;  // guarded by mu
  std::thread thread;           // declared last: it uses the members above
};

HostMonitor::HostMonitor(std::chrono::milliseconds period)
    : state_(std::make_unique<State>()) {
  State& s = *state_;
  s.period = period;
  s.samples.push_back({Clock::now(), host_cpu_ticks()});
  s.thread = std::thread([&s] {
    std::unique_lock lock(s.mu);
    while (!s.cv.wait_for(lock, s.period, [&s] { return s.stopping; }))
      s.samples.push_back({Clock::now(), host_cpu_ticks()});
  });
}

HostMonitor::~HostMonitor() { stop(); }

std::vector<Window> HostMonitor::stop() {
  State& s = *state_;
  {
    std::lock_guard lock(s.mu);
    if (!s.stopping) s.samples.push_back({Clock::now(), host_cpu_ticks()});
    s.stopping = true;
  }
  s.cv.notify_all();
  if (s.thread.joinable()) s.thread.join();
  std::vector<Window> out;
  for (std::size_t i = 1; i < s.samples.size(); ++i)
    out.push_back({s.samples[i - 1].at, s.samples[i].at,
                   stolen_share(s.samples[i - 1].ticks, s.samples[i].ticks)});
  return out;
}

double stolen_between(const std::vector<Window>& windows, Clock::time_point a,
                      Clock::time_point b) {
  double weighted = 0, total = 0;
  for (const Window& w : windows) {
    const auto lo = std::max(a, w.begin);
    const auto hi = std::min(b, w.end);
    if (hi <= lo) continue;
    const double ms = ms_between(lo, hi);
    weighted += ms * w.stolen;
    total += ms;
  }
  return total > 0 ? weighted / total : 0.0;
}

namespace {

// The windows overlapping [b, e) with the least stolen share: the calmer
// half, extended with the next calmest until they hold `min_samples` of
// `times`.
std::vector<Window> calmest(const std::vector<Window>& windows,
                            Clock::time_point b, Clock::time_point e,
                            const std::vector<Clock::time_point>& times,
                            std::size_t min_samples) {
  std::vector<Window> in;
  for (const Window& w : windows)
    if (w.end > b && w.begin < e) in.push_back(w);
  std::stable_sort(in.begin(), in.end(), [](const Window& x, const Window& y) {
    return x.stolen < y.stolen;
  });
  std::size_t keep = (in.size() + 1) / 2, count = 0;
  for (std::size_t i = 0; i < in.size(); ++i) {
    if (i >= keep && count >= min_samples) break;
    for (const auto& t : times)
      if (t >= in[i].begin && t < in[i].end) ++count;
    keep = std::max(keep, i + 1);
  }
  in.resize(keep);
  return in;
}

double mean_stolen(const std::vector<Window>& windows) {
  double sum = 0;
  for (const Window& w : windows) sum += w.stolen;
  return windows.empty() ? 0.0 : sum / static_cast<double>(windows.size());
}

}  // namespace

StealCorrected correct_for_steal(
    const std::vector<Window>& windows, const std::vector<Sample>& latency,
    std::size_t min_latency_samples,
    const std::vector<Clock::time_point>& completions,
    Clock::time_point busy_begin, Clock::time_point busy_end,
    double throughput_steal_weight) {
  StealCorrected out;
  if (!latency.empty()) {
    std::vector<Clock::time_point> done;
    for (const Sample& s : latency) done.push_back(s.done);
    const auto [lo, hi] = std::minmax_element(done.begin(), done.end());
    const auto calm = calmest(windows, *lo, *hi + Clock::duration(1), done,
                              min_latency_samples);
    out.stolen_latency = mean_stolen(calm);
    for (const Sample& s : latency) {
      if (std::none_of(calm.begin(), calm.end(), [&](const Window& w) {
            return s.done >= w.begin && s.done < w.end;
          }))
        continue;
      const auto start =
          s.done - std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double, std::milli>(s.ms));
      out.latency_ms.push_back(s.ms *
                               (1.0 - stolen_between(windows, start, s.done)));
    }
  }
  const auto calm = calmest(windows, busy_begin, busy_end, completions, 0);
  out.stolen_throughput = mean_stolen(calm);
  double available_ms = 0;
  std::int64_t done = 0;
  for (const Window& w : calm) {
    const auto b = std::max(w.begin, busy_begin);
    const auto e = std::min(w.end, busy_end);
    available_ms +=
        ms_between(b, e) * (1.0 - throughput_steal_weight * w.stolen);
    for (const auto& c : completions)
      if (c >= b && c < e) ++done;
  }
  out.throughput_per_s =
      available_ms > 0 ? static_cast<double>(done) / (available_ms / 1e3) : 0.0;
  return out;
}

std::string host_facts_json() {
  std::string env = "{";
  bool first = true;
  for (char** e = environ; e != nullptr && *e != nullptr; ++e) {
    const std::string_view kv(*e);
    if (kv.rfind("GEO_", 0) != 0) continue;
    const auto eq = kv.find('=');
    if (!first) env += ", ";
    first = false;
    env += json_string(kv.substr(0, eq)) + ": " +
           json_string(eq == std::string_view::npos ? "" : kv.substr(eq + 1));
  }
  env += "}";
  return "{\"nproc\": " +
         std::to_string(std::thread::hardware_concurrency()) +
         ", \"lanes\": " + std::to_string(kLanes) + ", \"simd\": " +
         json_string(geo::sc::simd::to_string(geo::sc::simd::active())) +
         ", \"stream_table\": " +
         (geo::sc::stream_table_enabled() ? "true" : "false") +
         ", \"geo_env\": " + env + "}";
}

bool fault_env_set() {
  const char* v = std::getenv("GEO_FAULTS");
  return v != nullptr && *v != '\0';
}

Span::Span(const char* name, std::int64_t id)
    : name_(name), on_(geo::telemetry::Tracer::instance().enabled()) {
  if (on_)
    geo::telemetry::Tracer::instance().begin(
        name_, "perfbench", {{"id", static_cast<double>(id)}});
}

Span::~Span() {
  if (on_) geo::telemetry::Tracer::instance().end(name_, "perfbench");
}

}  // namespace perfbench
