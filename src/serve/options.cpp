#include "serve/serve.hpp"

#include <algorithm>
#include <sstream>

namespace geo::serve {

geo::Status ServeOptions::validate() const {
  if (replicas < 1) return geo::Status::invalid_argument("serve: replicas < 1");
  if (queue_capacity < 1)
    return geo::Status::invalid_argument("serve: queue_capacity < 1");
  if (tenant_quota < 1)
    return geo::Status::invalid_argument("serve: tenant_quota < 1");
  if (high_water < 0)
    return geo::Status::invalid_argument("serve: high_water < 0");
  if (retries < 0) return geo::Status::invalid_argument("serve: retries < 0");
  if (retry_backoff_us < 0)
    return geo::Status::invalid_argument("serve: retry_backoff_us < 0");
  if (retry_backoff_us > 1'000'000'000)
    return geo::Status::invalid_argument("serve: retry_backoff_us > 1e9");
  if (breaker_strikes < 1)
    return geo::Status::invalid_argument("serve: breaker_strikes < 1");
  if (probe_after < 1)
    return geo::Status::invalid_argument("serve: probe_after < 1");
  if (batch < 1) return geo::Status::invalid_argument("serve: batch < 1");
  return geo::Status();
}

int ServeOptions::effective_high_water() const noexcept {
  if (high_water > 0) return high_water;
  return std::max(1, (queue_capacity * 3) / 4);
}

std::string ServeOptions::to_string() const {
  std::ostringstream os;
  os << "replicas=" << replicas << ",queue=" << queue_capacity
     << ",quota=" << tenant_quota << ",high_water=" << effective_high_water()
     << ",retries=" << retries << ",backoff_us=" << retry_backoff_us
     << ",strikes=" << breaker_strikes << ",probe_after=" << probe_after
     << ",batch=" << batch;
  return os.str();
}

}  // namespace geo::serve
