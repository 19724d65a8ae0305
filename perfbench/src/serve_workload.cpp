// serve-open: open loop into one InferenceServer. One generator thread sends
// seeded Poisson arrivals of single-layer LeNet-5 requests from two tenants:
// conv2 with resident weights and fc1 pinned from an out-of-core
// WeightStore, three conv2 per fc1 (a 50/50 mix would put the median on
// the boundary between the two layers' latencies). Two phases: `low`
// (40 req/s, latency timed from each request's due time) and `over`
// (1000 req/s, past saturation: the queue fills and admission sheds).
#include <condition_variable>
#include <deque>
#include <filesystem>
#include <future>
#include <mutex>
#include <random>
#include <stdexcept>
#include <thread>

#include "exec/async_lane.hpp"
#include "serve/serve.hpp"
#include "store/weight_store.hpp"
#include "telemetry/trace.hpp"
#include "workload.hpp"

namespace perfbench {

namespace {

using geo::serve::InferenceServer;
using geo::serve::Request;
using geo::serve::Response;

constexpr double kLowRate = 40.0;    // req/s
constexpr double kOverRate = 1000.0;  // req/s, ~3x the measured capacity
constexpr double kLowShare = 0.6;    // of the run's seconds
constexpr double kSloMs = 50.0;      // from the due time
// Share of the stolen time taken out of `over`'s throughput. Saturated, the
// two replicas and the shared pool worker keep about 2.7 of 4 vCPUs busy,
// and the rest absorbs part of what the hypervisor takes. Fitted on 25 runs
// of a 4-vCPU KVM guest with 2-59% stolen: 0.6 left a ten-seed spread of
// 0.04-0.08, against 0.16-0.23 when all of it was taken out.
constexpr double kOverStealWeight = 0.6;
constexpr const char* kStoreLayer = "lenet5.fc1";

// What one phase measured, from the collector's side plus the generator's.
struct Phase {
  std::int64_t attempted = 0;
  std::int64_t refused = 0;  // admission refusals
  std::int64_t ok = 0;
  std::int64_t failed = 0;   // non-OK, degraded or wrong bytes
  std::int64_t retries = 0;  // cross-replica failovers
  std::int64_t degraded = 0;
  std::int64_t slo_met = 0;
  std::int64_t cycles = 0;
  std::vector<Sample> from_due;  // latency from the due time
  std::vector<double> queue_ms, service_ms;
  double late_max_ms = 0.0;  // generator lateness
  Clock::time_point begin, end;  // phase start, last response
};

struct InFlight {
  std::future<Response> future;
  std::int64_t id = 0;
  Clock::time_point due, submitted;
  std::span<const std::uint8_t> expected;
  std::uint64_t flow = 0;
};

// Single-producer / single-consumer handoff from generator to collector.
class Handoff {
 public:
  void push(InFlight f) {
    {
      std::lock_guard lock(mu_);
      q_.push_back(std::move(f));
    }
    cv_.notify_one();
  }
  void close() {
    {
      std::lock_guard lock(mu_);
      closed_ = true;
    }
    cv_.notify_one();
  }
  bool pop(InFlight& out) {
    std::unique_lock lock(mu_);
    cv_.wait(lock, [&] { return closed_ || !q_.empty(); });
    if (q_.empty()) return false;
    out = std::move(q_.front());
    q_.pop_front();
    return true;
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<InFlight> q_;
  bool closed_ = false;
};

class ServeWorkload final : public Workload {
 public:
  explicit ServeWorkload(std::string scratch) : scratch_(std::move(scratch)) {}

  ~ServeWorkload() override {
    teardown();
    std::error_code ec;
    std::filesystem::remove_all(scratch_, ec);
  }

  void setup(std::uint64_t seed) override {
    teardown();
    seed_ = seed;
    build_model(geo::arch::NetworkShape::lenet5(), seed);

    std::filesystem::remove_all(scratch_);
    std::filesystem::create_directories(scratch_);
    geo::store::StoreOptions so;
    so.dir = scratch_;
    store_ = std::make_shared<geo::store::WeightStore>(so);
    if (auto st = store_->add_layer(kStoreLayer, model_.layers[kFc1].weights);
        !st.ok())
      throw std::runtime_error("store: " + st.to_string());

    geo::serve::ServeOptions o;
    o.replicas = 2;
    o.queue_capacity = 64;
    o.tenant_quota = 64;
    o.high_water = 64;  // no steering: every admitted request runs native
    server_ = std::make_unique<InferenceServer>(bench_hw(), o);
    server_->attach_store(store_);
    for (int k = 0; k < 2; ++k)
      for (const std::size_t l : {kConv2, kFc1}) {
        Response r = server_->run(request(l, k, "warm-up"));
        if (!r.status.ok() || r.result.activations != ref_.outputs[k][l])
          throw std::runtime_error("warm-up request differs from the reference");
      }
  }

  Timed run(double seconds) override {
    std::int64_t id = 0;
    const Phase low = phase(kLowRate, seconds * kLowShare, 1, id);
    const Phase over = phase(kOverRate, seconds * (1.0 - kLowShare), 2, id);

    Timed t;
    t.latency = low.from_due;
    for (const Sample& s : over.from_due) t.completions.push_back(s.done);
    t.busy_begin = over.begin;
    t.busy_end = over.end;
    t.throughput_steal_weight = kOverStealWeight;
    t.attempted = low.attempted + over.attempted;
    // A refusal in `low` is an error; in `over` it is admission policy.
    t.failed = low.failed + low.refused + over.failed;
    t.units = low.ok + over.ok;
    t.slo_met = low.slo_met;
    t.slo_attempted = low.attempted;
    t.cycles_per_unit = low.ok > 0 ? static_cast<double>(low.cycles) /
                                         static_cast<double>(low.ok)
                                   : 0.0;
    t.retries = low.retries + over.retries;
    t.degraded = low.degraded + over.degraded;

    double due = 0, queue = 0, service = 0;
    for (std::size_t i = 0; i < low.from_due.size(); ++i) {
      due += low.from_due[i].ms;
      queue += low.queue_ms[i];
      service += low.service_ms[i];
    }
    const double shed = over.attempted > 0
                            ? static_cast<double>(over.refused) /
                                  static_cast<double>(over.attempted)
                            : 0.0;
    t.layer_metrics = {
        {"serve.queue_frac", due > 0 ? queue / due : 0.0, "ratio"},
        {"serve.service_frac", due > 0 ? service / due : 0.0, "ratio"},
        {"serve.shed_frac", shed, "ratio"},
    };
    const auto line = [](const char* name, const Phase& p) {
      char buf[256];
      std::snprintf(buf, sizeof buf,
                    "%s: attempted=%lld ok=%lld refused=%lld failed=%lld "
                    "gen_late_max_ms=%.3f wall_s=%.3f",
                    name, static_cast<long long>(p.attempted),
                    static_cast<long long>(p.ok),
                    static_cast<long long>(p.refused),
                    static_cast<long long>(p.failed), p.late_max_ms,
                    ms_between(p.begin, p.end) / 1000.0);
      return std::string(buf);
    };
    t.notes = {line("serve.low", low), line("serve.over", over),
               "serve.low " + describe(percentile(low.queue_ms, 0.5),
                                       "queue_p50_ms"),
               "serve.low " + describe(percentile(low.queue_ms, 0.9),
                                       "queue_p90_ms"),
               "serve.low " + describe(percentile(low.service_ms, 0.5),
                                       "service_p50_ms")};
    return t;
  }

  std::vector<UnitLayer> unit(int k) const override {
    return {{&model_.layers[kConv2], ref_.layer_inputs[k][kConv2],
             ref_.outputs[k][kConv2], 0.75},
            {&model_.layers[kFc1], ref_.layer_inputs[k][kFc1],
             ref_.outputs[k][kFc1], 0.25}};
  }

  void probe(std::vector<std::string>& notes) override {
    std::vector<double> us;
    for (std::int64_t i = 0; i < 200; ++i) {
      const auto t0 = Clock::now();
      {
        Span span("store.pin", i);
        if (!store_->pin(kStoreLayer).ok())
          throw std::runtime_error("store pin failed");
      }
      us.push_back(ms_since(t0) * 1000.0);
    }
    notes.push_back("store " + describe(percentile(us, 0.5), "pin_p50_us"));
  }

 private:
  static constexpr std::size_t kConv2 = 1;  // LeNet-5 layer indices
  static constexpr std::size_t kFc1 = 2;

  Request request(std::size_t l, int k, std::string tenant) const {
    const Layer& layer = model_.layers[l];
    Request r;
    r.tenant = std::move(tenant);
    r.shape = layer.shape;
    r.input = ref_.layer_inputs[static_cast<std::size_t>(k)][l];
    r.bn_scale = layer.scale;
    r.bn_shift = layer.shift;
    r.layer_salt = layer.salt;
    if (l == kFc1)
      r.store_layer = kStoreLayer;
    else
      r.weights = layer.weights;
    return r;
  }

  // Sends Poisson arrivals at `rate` for `seconds`, then waits for every
  // admitted request. `stream` keeps the phases' schedules apart.
  Phase phase(double rate, double seconds, std::uint64_t stream,
              std::int64_t& id) {
    const std::uint64_t seed = seed_ * 0x9E3779B97F4A7C15ull + stream;
    const std::vector<double> arrivals =
        poisson_arrivals(rate, seconds, seed);
    auto& tracer = geo::telemetry::Tracer::instance();

    Phase p;
    Handoff handoff;
    std::thread collector([&] {
      InFlight f;
      while (handoff.pop(f)) {
        Response r;
        try {
          Span span("serve.ready", f.id);
          if (f.flow != 0) tracer.flow_in("serve.request", "perfbench", f.flow);
          r = f.future.get();
        } catch (const std::exception&) {
          ++p.failed;
          continue;
        }
        p.retries += std::max(0, r.attempts - 1);
        if (r.degraded) ++p.degraded;
        if (!r.status.ok() || r.degraded ||
            !std::equal(f.expected.begin(), f.expected.end(),
                        r.result.activations.begin(),
                        r.result.activations.end())) {
          ++p.failed;
          continue;
        }
        const double from_due = from_due_ms(f.due, f.submitted, r.total_us);
        ++p.ok;
        if (from_due <= kSloMs) ++p.slo_met;
        p.cycles += r.result.stats.total_cycles;
        p.from_due.push_back(
            {f.submitted + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double, std::micro>(
                                   r.total_us)),
             from_due});
        p.queue_ms.push_back(r.queue_us / 1000.0);
        p.service_ms.push_back(r.exec_us / 1000.0);
      }
    });

    const auto start = Clock::now();
    p.begin = start;
    {
      // Closes the handoff and joins the collector on every exit path.
      struct Join {
        Handoff& handoff;
        std::thread& thread;
        ~Join() {
          handoff.close();
          thread.join();
        }
      } join{handoff, collector};
      generate(arrivals, seed, start, id, p, handoff);
    }
    p.end = Clock::now();
    return p;
  }

  // The generator: sleeps until each due time, then submits. Requests go
  // in groups of four, three conv2 and one fc1, the fc1 at a seeded place;
  // tenants alternate.
  void generate(const std::vector<double>& arrivals, std::uint64_t seed,
                Clock::time_point start, std::int64_t& id, Phase& p,
                Handoff& handoff) {
    std::mt19937_64 rng(seed);
    std::uniform_int_distribution<std::size_t> place(0, 3);
    auto& tracer = geo::telemetry::Tracer::instance();
    std::size_t fc1_at = 0;
    for (std::size_t i = 0; i < arrivals.size(); ++i) {
      if (i % 4 == 0) fc1_at = place(rng);
      const std::size_t l = i % 4 == fc1_at ? kFc1 : kConv2;
      const auto k = i % kInputPool;
      InFlight f;
      f.due = start + std::chrono::duration_cast<Clock::duration>(
                          std::chrono::duration<double>(arrivals[i]));
      std::this_thread::sleep_until(f.due);

      f.id = id++;
      f.submitted = Clock::now();
      f.expected = ref_.outputs[k][l];
      p.late_max_ms = std::max(p.late_max_ms, ms_between(f.due, f.submitted));
      ++p.attempted;
      Span span("serve.submit", f.id);
      if (tracer.enabled()) {
        f.flow = tracer.next_flow_id();
        tracer.flow_out("serve.request", "perfbench", f.flow);
      }
      auto fut = server_->submit(
          request(l, static_cast<int>(k), i % 2 ? "tenant-b" : "tenant-a"));
      if (!fut.ok()) {
        ++p.refused;
        continue;
      }
      f.future = std::move(*fut);
      handoff.push(std::move(f));
    }
  }

  // Drains the server and the background prewarm lane so the store can go.
  void teardown() {
    server_.reset();
    geo::exec::AsyncLane::io().submit([] {}).wait();
    store_.reset();
  }

  std::string scratch_;
  std::uint64_t seed_ = 0;
  std::shared_ptr<geo::store::WeightStore> store_;
  std::unique_ptr<InferenceServer> server_;
};

}  // namespace

std::unique_ptr<Workload> make_serve_workload(const std::string& scratch) {
  return std::make_unique<ServeWorkload>(scratch);
}

}  // namespace perfbench
