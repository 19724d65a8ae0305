// Structured event journal: a bounded in-memory ring of timestamped
// runtime events (resilience retries/degradations, stream-table builds and
// budget fallbacks, checkpoint commits) flushed as JSONL.
//
// OFF unless `GEO_JOURNAL=<path>` is set (or a test calls `enable`); the
// disabled path is one relaxed atomic load, so hooks stay in the runtime
// unconditionally. The ring holds the most recent 4096 entries (or the
// capacity passed to `enable`); older entries are counted as dropped rather
// than growing without bound, so the journal is safe to leave on under
// long sweeps. Each flushed line is one self-contained JSON object:
//
//   {"seq":12,"ts_us":5301.250,"tid":3,"kind":"resilience.retry",
//    "label":"conv2","note":"pbw","args":{"tile":4,"attempt":1}}
//
// See docs/OBSERVABILITY.md for the kind inventory.
#pragma once

#include <atomic>
#include <cstdint>
#include <initializer_list>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace geo::telemetry {

// One numeric journal argument, rendered into the entry's "args" object.
struct JournalArg {
  const char* key;
  double value;
};

struct JournalEntry {
  std::uint64_t seq;  // monotone across drops; first retained may be > 0
  double ts_us;
  std::uint32_t tid;
  std::string kind;
  std::string label;
  std::string note;       // optional free-form detail (e.g. degrade rung)
  std::string args_json;  // pre-rendered "args" object, may be empty
};

class Journal {
 public:
  static Journal& instance();

  bool enabled() const noexcept {
    return enabled_.load(std::memory_order_relaxed);
  }

  // Starts recording to `path`; `capacity` of 0 keeps the current ring
  // size (4096 unless an earlier enable changed it). Retained entries are
  // kept.
  void enable(std::string path, std::size_t capacity = 0);
  // Stops recording and drops buffered entries.
  void disable();

  void record(std::string_view kind, std::string_view label,
              std::initializer_list<JournalArg> args = {},
              std::string_view note = {});

  std::size_t event_count() const;
  // Entries overwritten by ring wrap since enable().
  std::uint64_t dropped() const;
  // Oldest-first copy of the retained entries.
  std::vector<JournalEntry> snapshot() const;

  // Appends the retained entries to the configured path as JSONL and
  // clears the ring. No-op (returns true) when disabled or empty.
  bool flush();

  // Best-effort flush for fatal-signal/abort paths: try-locks the ring (a
  // handler that interrupted a recording thread must not self-deadlock) and
  // appends with raw open/write(2) instead of iostreams. Returns false when
  // the lock was contended or the file could not be opened — the window is
  // dropped, never blocked on. enable() installs handlers for SIGABRT,
  // SIGSEGV, SIGBUS, SIGFPE, SIGILL and SIGTERM that call this before
  // re-raising the default disposition, so chaos-run postmortems keep the
  // last window of retry/shed events even when the process dies without
  // reaching atexit.
  bool flush_from_signal() noexcept;

  ~Journal();

 private:
  Journal();  // reads GEO_JOURNAL

  std::atomic<bool> enabled_{false};
  mutable std::mutex mu_;
  std::string path_;
  std::size_t capacity_ = 4096;
  // Fixed-size circular buffer: entry seq lives at ring_[seq % capacity_]
  // (ring_ is resized to capacity_ on first record). The retained entries
  // are the contiguous seq range [next_seq_ - count_, next_seq_); count_
  // drops to 0 on flush while next_seq_ keeps counting, so seq stays
  // monotone across flushes and the slot mapping never goes stale.
  std::vector<JournalEntry> ring_;
  std::size_t count_ = 0;       // retained entries
  std::uint64_t next_seq_ = 0;  // total entries ever recorded
  std::uint64_t flushed_ = 0;   // entries written out by flush()
};

}  // namespace geo::telemetry
