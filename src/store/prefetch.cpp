#include "store/prefetch.hpp"

#include <memory>

#include "exec/async_lane.hpp"
#include "telemetry/journal.hpp"
#include "telemetry/metrics.hpp"

namespace geo::store {

namespace {

struct PrefetchCounters {
  telemetry::Counter& issued;
  telemetry::Counter& hits;
  telemetry::Counter& misses;
};

PrefetchCounters& counters() {
  auto& m = telemetry::MetricsRegistry::instance();
  static PrefetchCounters c{m.counter("store.prefetch_issued"),
                            m.counter("store.prefetch_hits"),
                            m.counter("store.prefetch_misses")};
  return c;
}

void journal_event(const char* kind, const std::string& label) {
  if (auto& journal = telemetry::Journal::instance(); journal.enabled())
    journal.record(kind, label);
}

}  // namespace

Prefetcher::~Prefetcher() {
  // Unconsumed prefetches must finish before the store they pin can go
  // away with us; the shared_futures own the results, so just wait.
  std::map<std::string, std::shared_future<geo::StatusOr<Pinned>>> pending;
  {
    std::lock_guard lock(mu_);
    pending.swap(pending_);
  }
  for (auto& [name, fut] : pending) fut.wait();
}

void Prefetcher::prefetch(const std::string& name) {
  {
    std::lock_guard lock(mu_);
    if (pending_.count(name) != 0) return;  // already in flight
    auto promise =
        std::make_shared<std::promise<geo::StatusOr<Pinned>>>();
    pending_.emplace(name, promise->get_future().share());
    exec::AsyncLane::io().submit(
        [&store = store_, name, promise] {
          promise->set_value(store.pin(name));
        });
  }
  counters().issued.add(1);
  journal_event("store.prefetch", name);
}

geo::StatusOr<Pinned> Prefetcher::get(const std::string& name) {
  std::shared_future<geo::StatusOr<Pinned>> fut;
  bool prefetched = false;
  {
    std::lock_guard lock(mu_);
    if (auto it = pending_.find(name); it != pending_.end()) {
      fut = it->second;
      pending_.erase(it);
      prefetched = true;
    }
  }
  if (prefetched) {
    geo::StatusOr<Pinned> pinned = fut.get();  // copies out of the shared state
    if (pinned.ok()) {
      counters().hits.add(1);
      journal_event("store.prefetch_hit", name);
      // The load ran overlapped with the previous layer's execution: the
      // machine never stalled for it, so no io stall is charged.
      pinned->stats().io_stall_cycles = 0;
      pinned->stats().prefetched = true;
      return pinned;
    }
    // A failed prefetch (no source registered + persistent damage) is not a
    // verdict — retry synchronously so a transient-only world still serves.
  }
  counters().misses.add(1);
  journal_event("store.prefetch_miss", name);
  return store_.pin(name);
}

std::size_t Prefetcher::in_flight() const {
  std::lock_guard lock(mu_);
  return pending_.size();
}

}  // namespace geo::store
