// Serving-runtime bench: throughput and tail latency of the fault-tolerant
// inference frontend (docs/SERVING.md) under increasing offered load, a
// deterministic saturation-knee section, and a chaos column proving the
// zero-failed-requests contract under persistent fault injection.
//
//   load      closed-loop clients (1/2/4/8 threads) against a replica pool:
//             throughput, p50/p95/p99 latency, and the queue-wait vs
//             service-time split per offered-load point
//   overload  single-threaded burst against a paused server: the admission
//             ledger (admitted/steered/shed) is exact and regression-gated
//   chaos     every replica runs a persistent defect fault model; every
//             request must still complete (degraded is acceptable, failed
//             is not) — the bench exits nonzero otherwise.
//
// Wall-clock latencies (*_us) and throughput (*per_s) are excluded from the
// bench-diff gate; the request-accounting scalars are deterministic at any
// GEO_THREADS / GEO_FAULTS and gate tightly.
//
// Sizes: GEO_BENCH_SERVE_REQS (requests per client, default 8),
//        GEO_SERVE_REPLICAS (pool size, default 2).
//
//   ./bench/serve
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <future>
#include <mutex>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "arch/machine.hpp"
#include "arch/report.hpp"
#include "bench_util.hpp"
#include "fault/fault_model.hpp"
#include "serve/serve.hpp"

namespace {

using geo::arch::ConvShape;
using geo::arch::HwConfig;
using geo::fault::FaultConfig;
using geo::serve::InferenceServer;
using geo::serve::Request;
using geo::serve::Response;
using geo::serve::ServeOptions;
using geo::serve::ServeStats;

struct Workload {
  ConvShape shape;
  std::vector<float> weights, input, scale, shift;

  Workload() : shape(ConvShape::conv("serve", 4, 6, 5, 3, 1, false)) {
    const auto seed = static_cast<unsigned>(
        geo::core::seed_or(7, "bench.serve") & 0x7FFFFFFFu);
    std::mt19937 rng(seed);
    std::uniform_real_distribution<float> wdist(-0.6f, 0.6f);
    std::uniform_real_distribution<float> adist(0.0f, 1.0f);
    weights.resize(static_cast<std::size_t>(shape.weights()));
    for (auto& w : weights) w = wdist(rng);
    input.resize(static_cast<std::size_t>(shape.activations()));
    for (auto& a : input) a = adist(rng);
    scale.assign(static_cast<std::size_t>(shape.cout), 1.0f);
    shift.assign(static_cast<std::size_t>(shape.cout), 0.0f);
  }

  Request request(std::string tenant) const {
    Request r;
    r.tenant = std::move(tenant);
    r.shape = shape;
    r.weights = weights;
    r.input = input;
    r.bn_scale = scale;
    r.bn_shift = shift;
    r.layer_salt = 3;
    return r;
  }
};

HwConfig serve_hw() {
  HwConfig hw = HwConfig::ulp();
  hw.accum = geo::nn::AccumMode::kPbw;
  hw.stream_len = 64;
  hw.stream_len_pool = 64;
  hw.stream_len_output = 64;
  return hw;
}

// The canonical persistent-fault spec (matches the resilience suite): SECDED
// detects the double-bit bursts but cannot correct them, and the defect
// model reproduces them on every retry.
FaultConfig chaos_fault() {
  auto cfg = FaultConfig::parse("sram=2e-2,burst=2,ecc=secded,rng=99");
  if (!cfg.ok()) std::abort();  // the spec above is a compile-time constant
  return *cfg;
}

// Zero-rate override: shields a replica worker from ambient GEO_FAULTS so
// the load/overload sections report identical numbers in the chaos CI job.
void shield(InferenceServer& server) {
  for (int r = 0; r < server.options().replicas; ++r)
    server.set_replica_fault(r, FaultConfig{});
}

double percentile(std::vector<double> sorted, double p) {
  if (sorted.empty()) return 0.0;
  const auto idx = static_cast<std::size_t>(
      p * static_cast<double>(sorted.size() - 1) + 0.5);
  return sorted[std::min(idx, sorted.size() - 1)];
}

std::string fmt(double v, const char* spec = "%.1f") {
  char buf[64];
  std::snprintf(buf, sizeof buf, spec, v);
  return buf;
}

}  // namespace

int main() {
  using geo::arch::Table;
  geo::bench::BenchReport report("serve");
  const Workload wl;
  const HwConfig hw = serve_hw();
  const int reqs_per_client = geo::bench::env_int("GEO_BENCH_SERVE_REQS", 8);
  const int replicas =
      geo::bench::env_int("GEO_SERVE_REPLICAS", 2);

  std::printf("Serving bench | conv %dx%dx%d k%d | %d replica(s), %d req/client\n\n",
              wl.shape.cin, wl.shape.hin, wl.shape.win, wl.shape.kh, replicas,
              reqs_per_client);

  bool contract_ok = true;

  // --- load: closed-loop clients vs throughput and tail latency -------------
  Table load_table({"clients", "requests", "throughput/s", "p50 us", "p95 us",
                    "p99 us", "max us", "queue p50 us", "service p50 us"});
  const int client_points[] = {1, 2, 4, 8};
  for (const int clients : client_points) {
    ServeOptions o;
    o.replicas = replicas;
    o.queue_capacity = 256;
    o.high_water = 256;  // no steering in the clean-load section
    o.tenant_quota = 256;
    o.retry_backoff_us = 0;
    InferenceServer server(hw, o);
    shield(server);

    std::vector<double> latencies, queue_waits, services;
    std::mutex lat_mu;
    std::atomic<int> failures{0};
    const auto t0 = std::chrono::steady_clock::now();
    std::vector<std::thread> pool;
    pool.reserve(static_cast<std::size_t>(clients));
    for (int c = 0; c < clients; ++c)
      pool.emplace_back([&, c] {
        std::vector<double> local, local_queue, local_service;
        for (int i = 0; i < reqs_per_client; ++i) {
          Response r = server.run(wl.request("client" + std::to_string(c)));
          if (!r.status.ok()) failures.fetch_add(1);
          local.push_back(r.total_us);
          local_queue.push_back(r.queue_us);
          local_service.push_back(r.exec_us);
        }
        std::lock_guard lock(lat_mu);
        latencies.insert(latencies.end(), local.begin(), local.end());
        queue_waits.insert(queue_waits.end(), local_queue.begin(),
                           local_queue.end());
        services.insert(services.end(), local_service.begin(),
                        local_service.end());
      });
    for (auto& t : pool) t.join();
    const double wall_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();

    const ServeStats s = server.stats();
    const int total = clients * reqs_per_client;
    if (failures.load() != 0 || s.failed != 0 || s.completed != total)
      contract_ok = false;
    std::sort(latencies.begin(), latencies.end());
    std::sort(queue_waits.begin(), queue_waits.end());
    std::sort(services.begin(), services.end());
    const double throughput = wall_s > 0.0 ? total / wall_s : 0.0;
    load_table.add_row(
        {std::to_string(clients), std::to_string(total), fmt(throughput),
         fmt(percentile(latencies, 0.50)), fmt(percentile(latencies, 0.95)),
         fmt(percentile(latencies, 0.99)),
         fmt(latencies.empty() ? 0.0 : latencies.back()),
         fmt(percentile(queue_waits, 0.50)), fmt(percentile(services, 0.50))});

    const std::string key = "load.c" + std::to_string(clients) + ".";
    report.set(key + "requests", static_cast<double>(total));
    report.set(key + "completed", static_cast<double>(s.completed));
    report.set(key + "ok", static_cast<double>(s.ok));
    report.set(key + "failed", static_cast<double>(s.failed));
    report.set(key + "shed", static_cast<double>(s.shed_queue + s.shed_quota));
    report.set(key + "throughput_per_s", throughput);
    report.set(key + "p50_us", percentile(latencies, 0.50));
    report.set(key + "p95_us", percentile(latencies, 0.95));
    report.set(key + "p99_us", percentile(latencies, 0.99));
    report.set(key + "queue_p50_us", percentile(queue_waits, 0.50));
    report.set(key + "service_p50_us", percentile(services, 0.50));
  }
  std::printf("closed-loop offered load (clean replicas)\n");
  load_table.print();
  report.add_table("load", load_table);

  // --- overload: the saturation knee, deterministically ---------------------
  // A paused server turns the burst into pure admission accounting: exactly
  // queue_capacity requests are admitted, requests past the high-water mark
  // steer to the degraded rung, and the rest shed with kResourceExhausted.
  {
    ServeOptions o;
    o.replicas = replicas;
    o.queue_capacity = 8;
    o.high_water = 6;
    o.tenant_quota = 64;
    o.retry_backoff_us = 0;
    InferenceServer server(hw, o);
    shield(server);
    server.pause();

    const int offered = 16;
    std::vector<std::future<Response>> admitted;
    int shed = 0;
    for (int i = 0; i < offered; ++i) {
      auto fut = server.submit(wl.request("burst"));
      if (fut.ok())
        admitted.push_back(std::move(*fut));
      else
        ++shed;
    }
    server.resume();
    int degraded = 0, failed = 0;
    for (auto& fut : admitted) {
      Response r = fut.get();
      if (!r.status.ok()) ++failed;
      if (r.degraded) ++degraded;
    }
    const ServeStats s = server.stats();
    if (failed != 0 || s.failed != 0) contract_ok = false;

    Table knee({"offered", "admitted", "steered", "shed", "completed",
                "degraded", "failed"});
    knee.add_row({std::to_string(offered), std::to_string(admitted.size()),
                  std::to_string(s.steered), std::to_string(shed),
                  std::to_string(s.completed), std::to_string(degraded),
                  std::to_string(failed)});
    std::printf("\nsaturation knee (queue=8, high_water=6, paused burst)\n");
    knee.print();
    report.add_table("overload_table", knee);
    report.set("overload.offered", static_cast<double>(offered));
    report.set("overload.admitted", static_cast<double>(admitted.size()));
    report.set("overload.steered", static_cast<double>(s.steered));
    report.set("overload.shed", static_cast<double>(shed));
    report.set("overload.completed", static_cast<double>(s.completed));
    report.set("overload.degraded", static_cast<double>(degraded));
    report.set("overload.failed", static_cast<double>(failed));
  }

  // --- chaos: persistent faults on every replica ----------------------------
  // The serving contract under GEO_FAULTS-class injection: every request
  // completes (degraded, not failed). Request accounting is deterministic —
  // the defect model is a pure per-site function, identical on every
  // replica — even though which replica served what is scheduling noise.
  {
    ServeOptions o;
    o.replicas = replicas;
    o.queue_capacity = 64;
    o.high_water = 64;
    o.tenant_quota = 64;
    o.retries = 1;
    o.retry_backoff_us = 0;
    o.breaker_strikes = 2;
    o.probe_after = 4;
    InferenceServer server(hw, o);
    for (int r = 0; r < o.replicas; ++r)
      server.set_replica_fault(r, chaos_fault());

    const int requests = std::max(4, reqs_per_client);
    server.pause();
    std::vector<std::future<Response>> futures;
    for (int i = 0; i < requests; ++i) {
      auto fut = server.submit(wl.request("chaos"));
      if (fut.ok()) futures.push_back(std::move(*fut));
    }
    server.resume();
    int degraded = 0, failed = 0;
    failed += requests - static_cast<int>(futures.size());
    for (auto& fut : futures) {
      Response r = fut.get();
      if (!r.status.ok()) ++failed;
      if (r.degraded) ++degraded;
    }
    const ServeStats s = server.stats();
    if (failed != 0 || s.failed != 0 || s.completed != requests)
      contract_ok = false;

    Table chaos({"requests", "completed", "degraded", "failed", "quarantines",
                 "failovers"});
    chaos.add_row({std::to_string(requests), std::to_string(s.completed),
                   std::to_string(degraded), std::to_string(failed),
                   std::to_string(s.quarantines), std::to_string(s.failovers)});
    std::printf("\nchaos (persistent defect faults on every replica)\n");
    chaos.print();
    report.add_table("chaos_table", chaos);
    report.set("chaos.requests", static_cast<double>(requests));
    report.set("chaos.completed", static_cast<double>(s.completed));
    report.set("chaos.degraded", static_cast<double>(degraded));
    report.set("chaos.failed", static_cast<double>(failed));
  }

  report.set("zero_failed_requests", contract_ok ? 1.0 : 0.0);
  std::printf("\nzero_failed_requests=%d\n", contract_ok ? 1 : 0);

  // The serving counters and cycle attribution accumulated here depend on
  // request-to-replica scheduling; reset both so the emitted metrics
  // snapshot stays deterministic for the bench-diff gate.
  geo::telemetry::MetricsRegistry::instance().reset();
  geo::arch::AttributionLedger::instance().reset();

  const bool wrote = report.write();
  return (wrote && contract_ok) ? 0 : 1;
}
