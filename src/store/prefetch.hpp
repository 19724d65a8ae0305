// Prefetch pipelining for the out-of-core weight store (docs/STORAGE.md).
//
// While layer N executes on the machine, the Prefetcher pulls layer N+1's
// blocks through the full repair ladder on the process I/O lane
// (exec::AsyncLane::io()), so the load cost overlaps compute instead of
// serializing with it. get() then either
//
//   * consumes a completed/in-flight prefetch (store.prefetch_hit): the
//     LoadStats come back with io_stall_cycles zeroed and prefetched set —
//     an overlapped load stalls the machine for nothing, or
//   * falls back to a synchronous pin (store.prefetch_miss) with the full
//     modeled stall charged.
//
// Correctness is untouched either way: both paths go through
// WeightStore::pin, so the repair-or-fallback contract holds. Thread-safe.
#pragma once

#include <future>
#include <map>
#include <mutex>
#include <string>

#include "store/weight_store.hpp"

namespace geo::store {

class Prefetcher {
 public:
  // The store must outlive the prefetcher.
  explicit Prefetcher(WeightStore& store) : store_(store) {}
  ~Prefetcher();

  Prefetcher(const Prefetcher&) = delete;
  Prefetcher& operator=(const Prefetcher&) = delete;

  // Starts an async pin of `name` on the I/O lane; idempotent while one is
  // already in flight.
  void prefetch(const std::string& name);

  // Returns the layer, consuming an in-flight/completed prefetch when one
  // exists (blocking only for whatever tail of the load has not finished).
  geo::StatusOr<Pinned> get(const std::string& name);

  std::size_t in_flight() const;

 private:
  WeightStore& store_;
  mutable std::mutex mu_;
  std::map<std::string, std::shared_future<geo::StatusOr<Pinned>>> pending_;
};

}  // namespace geo::store
