// In-memory span recorder for the traced run.
//
// Spans are recorded from the benchmark's side of each layer boundary: around
// the public layer functions the replay calls, and from the Server-Timing
// stages of each reply (laid end to end from the request's start, since the
// header carries durations only). They stay in memory and are written as
// JSON lines when the run ends. A span's self time is its duration minus the
// part of its interval its children cover.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <type_traits>
#include <vector>

namespace hdbench {

using Clock = std::chrono::steady_clock;

struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;  ///< 0 = root
  std::string name;
  int64_t start_ns = 0;  ///< since the recorder's epoch
  int64_t end_ns = 0;
};

struct LayerTotals {
  uint64_t count = 0;
  double total_us = 0.0;  ///< sum of durations
  double self_us = 0.0;   ///< sum of self times
  std::string root;       ///< name of the root span of these spans' trees
};

class SpanRecorder {
 public:
  SpanRecorder() : epoch_(Clock::now()) {}

  /// Records a completed span; returns its id. Thread-safe.
  uint64_t Add(const std::string& name, uint64_t parent, Clock::time_point start,
               Clock::time_point end);

  /// Times `fn()` as a span named `name` under `parent`.
  template <typename Fn>
  auto Time(const std::string& name, uint64_t parent, Fn&& fn) {
    const auto start = Clock::now();
    if constexpr (std::is_void_v<decltype(fn())>) {
      fn();
      Add(name, parent, start, Clock::now());
    } else {
      auto result = fn();
      Add(name, parent, start, Clock::now());
      return result;
    }
  }

  /// Opens a span whose end is not known yet (its children are recorded
  /// before it ends); close it with End.
  uint64_t Begin(const std::string& name, uint64_t parent);
  void End(uint64_t id);

  /// Self time (µs) of every span named `name`, in recording order.
  std::vector<double> SelfTimesUs(const std::string& name) const;
  /// Duration (µs) of every span named `name`, in recording order.
  std::vector<double> DurationsUs(const std::string& name) const;
  /// Per-name totals over all spans.
  std::map<std::string, LayerTotals> Totals() const;

  /// One JSON object per line: id, parent, name, start_ns, end_ns.
  bool WriteJsonLines(const std::string& path) const;

 private:
  /// Self time of every span, index-aligned with spans_. Caller holds mutex_.
  std::vector<double> SelfTimesLocked() const;

  Clock::time_point epoch_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;  // guarded by mutex_; id == index + 1
};

}  // namespace hdbench
