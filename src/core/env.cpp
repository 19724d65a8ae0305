#include "core/env.hpp"

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <set>
#include <string>

namespace geo::core {

std::uint64_t mix64(std::uint64_t x) noexcept {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

std::optional<std::uint64_t> global_seed() {
  static const std::optional<std::uint64_t> seed = []() -> std::optional<std::uint64_t> {
    const char* v = std::getenv("GEO_SEED");
    if (v == nullptr || v[0] == '\0') return std::nullopt;
    std::uint64_t parsed = 0;
    const char* end = v + std::strlen(v);
    const auto [ptr, ec] = std::from_chars(v, end, parsed);
    if (ec != std::errc() || ptr != end) {
      std::fprintf(stderr, "[geo] GEO_SEED='%s' is not a uint64; ignored\n",
                   v);
      return std::nullopt;
    }
    return parsed;
  }();
  return seed;
}

std::uint64_t seed_or(std::uint64_t fallback, std::string_view domain) {
  const std::optional<std::uint64_t> master = global_seed();
  if (!master.has_value()) return fallback;
  // FNV-1a over the domain, folded with the master seed.
  std::uint64_t h = 0xCBF29CE484222325ull;
  for (const char c : domain) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001B3ull;
  }
  return mix64(*master ^ h);
}

namespace {

template <typename T>
std::optional<T> parse_whole(std::string_view text) {
  if (text.empty()) return std::nullopt;
  T parsed{};
  const char* first = text.data();
  const char* last = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(first, last, parsed);
  if (ec != std::errc() || ptr != last) return std::nullopt;
  return parsed;
}

// Warn at most once per variable name, even though the value itself is
// re-read on every call (cheap, and lets tests exercise several values).
void warn_once(const char* name, const char* value, const char* what) {
  static std::mutex mu;
  static std::set<std::string>* warned = new std::set<std::string>();
  const std::lock_guard<std::mutex> lock(mu);
  if (!warned->insert(name).second) return;
  std::fprintf(stderr, "[geo] %s='%s' %s; ignored\n", name, value, what);
}

}  // namespace

std::optional<std::uint64_t> parse_uint(std::string_view text) {
  return parse_whole<std::uint64_t>(text);
}

std::optional<std::int64_t> parse_int(std::string_view text) {
  return parse_whole<std::int64_t>(text);
}

std::int64_t env_int(const char* name, std::int64_t fallback, std::int64_t lo,
                     std::int64_t hi) {
  const char* v = std::getenv(name);
  if (v == nullptr || v[0] == '\0') return fallback;
  const std::optional<std::int64_t> parsed = parse_int(v);
  if (!parsed.has_value()) {
    warn_once(name, v, "is not an integer");
    return fallback;
  }
  if (*parsed < lo || *parsed > hi) {
    warn_once(name, v, "is out of range");
    return fallback;
  }
  return *parsed;
}

}  // namespace geo::core
