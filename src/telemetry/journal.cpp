#include "telemetry/journal.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>

#include "telemetry/json.hpp"

namespace geo::telemetry {

namespace {

std::uint32_t journal_tid() {
  static std::atomic<std::uint32_t> next{1};
  thread_local const std::uint32_t id =
      next.fetch_add(1, std::memory_order_relaxed);
  return id;
}

const std::chrono::steady_clock::time_point g_epoch =
    std::chrono::steady_clock::now();

double journal_now_us() {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - g_epoch)
      .count();
}

std::string args_to_json(std::initializer_list<JournalArg> args) {
  if (args.size() == 0) return {};
  Json obj = Json::object();
  for (const JournalArg& a : args) obj.set(a.key, Json(a.value));
  return obj.dump(0);
}

// ---- fatal-signal flush ----------------------------------------------------

// Fatal signals whose default disposition kills the process without running
// atexit — without the handler, the last journal window dies with it.
constexpr int kFatalSignals[] = {SIGABRT, SIGSEGV, SIGBUS,
                                 SIGFPE,  SIGILL,  SIGTERM};

void fatal_signal_flush(int sig) {
  Journal::instance().flush_from_signal();
  // Restore the default disposition and re-raise so exit codes, core dumps
  // and wait statuses look exactly like an unhandled signal.
  std::signal(sig, SIG_DFL);
  std::raise(sig);
}

void install_fatal_signal_flush() {
  static bool installed = false;  // guarded by the caller's journal lock
  if (installed) return;
  installed = true;
  for (const int sig : kFatalSignals) {
    // Claim only signals nobody else handles: a foreign handler (test
    // framework, sanitizer) is restored untouched.
    const auto prev = std::signal(sig, fatal_signal_flush);
    if (prev != SIG_DFL && prev != SIG_ERR) std::signal(sig, prev);
  }
}

// Bounded, allocation-free escape-and-append for the signal path: writes
// `s` into buf[len..cap) escaping quotes, backslashes and control bytes.
void sig_append_escaped(char* buf, std::size_t cap, std::size_t& len,
                        const std::string& s) {
  for (const char c : s) {
    if (len + 8 >= cap) return;  // truncate rather than overflow
    const auto u = static_cast<unsigned char>(c);
    if (c == '"' || c == '\\') {
      buf[len++] = '\\';
      buf[len++] = c;
    } else if (u < 0x20) {
      len += static_cast<std::size_t>(
          std::snprintf(buf + len, cap - len, "\\u%04x", u));
    } else {
      buf[len++] = c;
    }
  }
}

void sig_append_raw(char* buf, std::size_t cap, std::size_t& len,
                    const char* s) {
  while (*s != '\0' && len + 1 < cap) buf[len++] = *s++;
}

}  // namespace

Journal& Journal::instance() {
  static Journal journal;
  return journal;
}

Journal::Journal() {
  if (const char* path = std::getenv("GEO_JOURNAL");
      path != nullptr && path[0] != '\0')
    enable(path);
}

Journal::~Journal() { flush(); }

void Journal::enable(std::string path, std::size_t capacity) {
  std::lock_guard lock(mu_);
  install_fatal_signal_flush();
  path_ = std::move(path);
  if (capacity > 0 && capacity != capacity_) {
    capacity_ = capacity;
    ring_.clear();
    count_ = 0;
    next_seq_ = 0;
    flushed_ = 0;
  }
  enabled_.store(true, std::memory_order_relaxed);
}

void Journal::disable() {
  enabled_.store(false, std::memory_order_relaxed);
  std::lock_guard lock(mu_);
  path_.clear();
  ring_.clear();
  count_ = 0;
  next_seq_ = 0;
  flushed_ = 0;
}

void Journal::record(std::string_view kind, std::string_view label,
                     std::initializer_list<JournalArg> args,
                     std::string_view note) {
  if (!enabled()) return;
  JournalEntry entry;
  entry.ts_us = journal_now_us();
  entry.tid = journal_tid();
  entry.kind.assign(kind);
  entry.label.assign(label);
  entry.note.assign(note);
  entry.args_json = args_to_json(args);
  std::lock_guard lock(mu_);
  if (ring_.size() != capacity_) ring_.resize(capacity_);
  entry.seq = next_seq_++;
  ring_[static_cast<std::size_t>(entry.seq % capacity_)] = std::move(entry);
  if (count_ < capacity_) ++count_;
}

std::size_t Journal::event_count() const {
  std::lock_guard lock(mu_);
  return count_;
}

std::uint64_t Journal::dropped() const {
  std::lock_guard lock(mu_);
  return next_seq_ - flushed_ - count_;
}

std::vector<JournalEntry> Journal::snapshot() const {
  std::lock_guard lock(mu_);
  std::vector<JournalEntry> out;
  out.reserve(count_);
  const std::uint64_t first = next_seq_ - count_;
  for (std::uint64_t s = first; s < next_seq_; ++s)
    out.push_back(ring_[static_cast<std::size_t>(s % capacity_)]);
  return out;
}

bool Journal::flush() {
  std::string path;
  std::vector<JournalEntry> entries;
  {
    // Drain and clear under one lock so an entry recorded concurrently
    // with the file write lands in the next flush, never in a gap.
    std::lock_guard lock(mu_);
    if (path_.empty()) return true;
    path = path_;
    const std::uint64_t first = next_seq_ - count_;
    entries.reserve(count_);
    for (std::uint64_t s = first; s < next_seq_; ++s)
      entries.push_back(
          std::move(ring_[static_cast<std::size_t>(s % capacity_)]));
    flushed_ += count_;
    count_ = 0;
    // next_seq_ keeps counting so seq stays monotone across flushes.
  }
  if (entries.empty()) return true;
  std::ofstream os(path, std::ios::app);
  if (!os) return false;
  for (const JournalEntry& e : entries) {
    char ts[48];
    std::snprintf(ts, sizeof(ts), "%.3f", e.ts_us);
    os << "{\"seq\":" << e.seq << ",\"ts_us\":" << ts
       << ",\"tid\":" << e.tid << ",\"kind\":\"" << json_escape(e.kind)
       << "\",\"label\":\"" << json_escape(e.label) << '"';
    if (!e.note.empty()) os << ",\"note\":\"" << json_escape(e.note) << '"';
    if (!e.args_json.empty()) os << ",\"args\":" << e.args_json;
    os << "}\n";
  }
  return static_cast<bool>(os);
}

bool Journal::flush_from_signal() noexcept {
  if (!enabled()) return true;
  // try_lock, never lock: the signal may have landed on a thread that holds
  // mu_ mid-record; blocking here would deadlock the dying process.
  if (!mu_.try_lock()) return false;
  bool ok = false;
  if (!path_.empty() && count_ > 0) {
    const int fd =
        ::open(path_.c_str(), O_WRONLY | O_APPEND | O_CREAT, 0644);
    if (fd >= 0) {
      const std::uint64_t first = next_seq_ - count_;
      for (std::uint64_t s = first; s < next_seq_; ++s) {
        const JournalEntry& e = ring_[static_cast<std::size_t>(s % capacity_)];
        char line[1024];
        std::size_t len = static_cast<std::size_t>(std::snprintf(
            line, sizeof(line), "{\"seq\":%llu,\"ts_us\":%.3f,\"tid\":%u,",
            static_cast<unsigned long long>(e.seq), e.ts_us, e.tid));
        sig_append_raw(line, sizeof(line), len, "\"kind\":\"");
        sig_append_escaped(line, sizeof(line), len, e.kind);
        sig_append_raw(line, sizeof(line), len, "\",\"label\":\"");
        sig_append_escaped(line, sizeof(line), len, e.label);
        sig_append_raw(line, sizeof(line), len, "\"");
        if (!e.note.empty()) {
          sig_append_raw(line, sizeof(line), len, ",\"note\":\"");
          sig_append_escaped(line, sizeof(line), len, e.note);
          sig_append_raw(line, sizeof(line), len, "\"");
        }
        if (!e.args_json.empty()) {
          sig_append_raw(line, sizeof(line), len, ",\"args\":");
          sig_append_raw(line, sizeof(line), len, e.args_json.c_str());
        }
        sig_append_raw(line, sizeof(line), len, "}\n");
        // Best effort: a short write loses the tail of this line only.
        (void)::write(fd, line, len);
      }
      flushed_ += count_;
      count_ = 0;
      ::close(fd);
      ok = true;
    }
  } else {
    ok = true;  // nothing retained is a successful flush
  }
  mu_.unlock();
  return ok;
}

}  // namespace geo::telemetry
