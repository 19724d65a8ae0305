#include "serve/health.hpp"

#include <algorithm>

namespace geo::serve {

const char* to_string(BreakerState s) noexcept {
  switch (s) {
    case BreakerState::kClosed:
      return "closed";
    case BreakerState::kOpen:
      return "open";
    case BreakerState::kHalfOpen:
      return "half-open";
  }
  return "?";
}

ReplicaHealth::ReplicaHealth(int replicas, int strikes_to_open,
                             int probe_after)
    : strikes_to_open_(std::max(1, strikes_to_open)),
      probe_after_(std::max(1, probe_after)),
      states_(static_cast<std::size_t>(std::max(1, replicas))) {}

bool ReplicaHealth::admit(int replica, bool* probe) {
  if (probe != nullptr) *probe = false;
  std::lock_guard lock(mu_);
  Replica& r = states_[static_cast<std::size_t>(replica)];
  switch (r.state) {
    case BreakerState::kClosed:
      return true;
    case BreakerState::kHalfOpen:
      // The probe slot is claimed; no further traffic until it resolves.
      return false;
    case BreakerState::kOpen: {
      // Probe when the countdown has drained — or unconditionally when no
      // other replica could serve (a fully-open fleet must not deadlock:
      // completions elsewhere are the only thing that drains countdowns).
      const bool forced = !other_candidate_locked(replica);
      if (r.probe_countdown > 0 && !forced) return false;
      r.state = BreakerState::kHalfOpen;
      if (probe != nullptr) *probe = true;
      return true;
    }
  }
  return false;
}

ReplicaHealth::Transition ReplicaHealth::on_outcome(int replica, bool clean) {
  std::lock_guard lock(mu_);
  for (std::size_t i = 0; i < states_.size(); ++i) {
    if (static_cast<int>(i) == replica) continue;
    if (states_[i].state == BreakerState::kOpen && states_[i].probe_countdown > 0)
      --states_[i].probe_countdown;
  }
  Replica& r = states_[static_cast<std::size_t>(replica)];
  if (r.state == BreakerState::kHalfOpen) {
    if (clean) {
      r.state = BreakerState::kClosed;
      r.strikes = 0;
      return Transition::kClosed;
    }
    r.state = BreakerState::kOpen;
    r.probe_countdown = probe_after_;
    return Transition::kReopened;
  }
  // Closed (the only other state a serving replica can be in: each replica
  // reports its own outcomes, and its state cannot change underneath an
  // in-flight request).
  if (clean) {
    r.strikes = 0;
    return Transition::kNone;
  }
  if (++r.strikes < strikes_to_open_) return Transition::kNone;
  r.state = BreakerState::kOpen;
  r.strikes = 0;
  r.probe_countdown = probe_after_;
  return Transition::kOpened;
}

void ReplicaHealth::on_no_signal(int replica) {
  std::lock_guard lock(mu_);
  for (std::size_t i = 0; i < states_.size(); ++i) {
    if (static_cast<int>(i) == replica) continue;
    if (states_[i].state == BreakerState::kOpen && states_[i].probe_countdown > 0)
      --states_[i].probe_countdown;
  }
  Replica& r = states_[static_cast<std::size_t>(replica)];
  if (r.state == BreakerState::kHalfOpen) {
    // The probe request carried no signal; hand the slot back as
    // immediately probe-eligible rather than burning the probe.
    r.state = BreakerState::kOpen;
    r.probe_countdown = 0;
  }
}

BreakerState ReplicaHealth::state(int replica) const {
  std::lock_guard lock(mu_);
  return states_[static_cast<std::size_t>(replica)].state;
}

bool ReplicaHealth::other_candidate(int replica) const {
  std::lock_guard lock(mu_);
  return other_candidate_locked(replica);
}

bool ReplicaHealth::other_candidate_locked(int replica) const {
  for (std::size_t i = 0; i < states_.size(); ++i)
    if (static_cast<int>(i) != replica &&
        states_[i].state != BreakerState::kOpen)
      return true;
  return false;
}

}  // namespace geo::serve
