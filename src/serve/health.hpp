// Per-replica health tracking: a circuit breaker per GeoMachine replica.
//
// A replica that keeps producing degraded results (its retry budget drained
// on every rung — the persistent-fault signature) accumulates strikes; at
// `strikes_to_open` consecutive strikes its breaker opens and the scheduler
// stops routing requests to it (quarantine). Open breakers heal through a
// half-open probe: after `probe_after` requests complete on other replicas,
// the quarantined replica may take exactly one probe request — a clean
// outcome closes the breaker (re-admission), a dirty one re-opens it and
// the countdown restarts. When every replica is open the probe gate is
// forced, so a fully-quarantined fleet keeps serving (degraded) instead of
// deadlocking; the serving contract is "zero failed requests", not "zero
// degraded ones" (docs/SERVING.md).
//
// All methods are thread-safe; one instance is shared by every replica
// worker of an InferenceServer.
#pragma once

#include <cstdint>
#include <mutex>
#include <vector>

namespace geo::serve {

enum class BreakerState {
  kClosed = 0,  // healthy: admit traffic
  kOpen,        // quarantined: refuse traffic until the probe gate opens
  kHalfOpen,    // one probe request in flight
};

const char* to_string(BreakerState s) noexcept;

class ReplicaHealth {
 public:
  // What an outcome report did to the replica's breaker.
  enum class Transition {
    kNone,
    kOpened,    // strikes reached the threshold: quarantined
    kClosed,    // half-open probe succeeded: re-admitted
    kReopened,  // half-open probe failed: quarantined again
  };

  ReplicaHealth(int replicas, int strikes_to_open, int probe_after);

  // May `replica` take a request now? Closed replicas always admit. Open
  // replicas admit only when their probe gate is due (or the whole fleet is
  // open), which atomically claims the half-open probe slot; `*probe` is
  // set when this call claimed it. Half-open replicas refuse further
  // traffic until the probe completes.
  bool admit(int replica, bool* probe = nullptr);

  // Outcome report from the replica that served a request. `clean` resets
  // its strikes (and closes a half-open probe); a dirty outcome strikes it
  // (and re-opens a half-open probe). Every report also advances the probe
  // countdown of the *other* open replicas — quarantine heals with served
  // traffic, not wall-clock time, so idle servers never probe blindly.
  Transition on_outcome(int replica, bool clean);

  // A request that occupied `replica` but produced no health signal (its
  // deadline expired before execution). Releases a claimed probe slot back
  // to probe-eligible and advances the other replicas' countdowns.
  void on_no_signal(int replica);

  BreakerState state(int replica) const;
  // True when some replica other than `replica` is not quarantined (it
  // could take a failed-over request).
  bool other_candidate(int replica) const;

  int replicas() const noexcept { return static_cast<int>(states_.size()); }

 private:
  struct Replica {
    BreakerState state = BreakerState::kClosed;
    int strikes = 0;
    int probe_countdown = 0;  // completions elsewhere until probe-eligible
  };

  bool other_candidate_locked(int replica) const;

  const int strikes_to_open_;
  const int probe_after_;
  mutable std::mutex mu_;
  std::vector<Replica> states_;
};

}  // namespace geo::serve
