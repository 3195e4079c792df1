#include "spans.h"

#include <algorithm>
#include <cstdio>
#include <unordered_map>

namespace hdbench {

uint64_t SpanRecorder::Add(const std::string& name, uint64_t parent,
                           Clock::time_point start, Clock::time_point end) {
  Span span;
  span.parent = parent;
  span.name = name;
  span.start_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(start - epoch_).count();
  span.end_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(end - epoch_).count();
  std::lock_guard<std::mutex> lock(mutex_);
  span.id = spans_.size() + 1;
  spans_.push_back(std::move(span));
  return spans_.back().id;
}

uint64_t SpanRecorder::Begin(const std::string& name, uint64_t parent) {
  const auto now = Clock::now();
  return Add(name, parent, now, now);
}

void SpanRecorder::End(uint64_t id) {
  const int64_t now =
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - epoch_)
          .count();
  std::lock_guard<std::mutex> lock(mutex_);
  if (id >= 1 && id <= spans_.size()) spans_[id - 1].end_ns = now;
}

std::vector<double> SpanRecorder::SelfTimesLocked() const {
  // Children's intervals per parent, clipped to the parent and merged, so
  // overlapping children are not subtracted twice.
  std::unordered_map<uint64_t, std::vector<std::pair<int64_t, int64_t>>> children;
  for (const Span& span : spans_) {
    if (span.parent != 0) {
      children[span.parent].emplace_back(span.start_ns, span.end_ns);
    }
  }
  std::vector<double> self(spans_.size(), 0.0);
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    int64_t covered = 0;
    auto it = children.find(span.id);
    if (it != children.end()) {
      auto& intervals = it->second;
      std::sort(intervals.begin(), intervals.end());
      int64_t cursor = span.start_ns;
      for (auto [start, end] : intervals) {
        start = std::max(start, cursor);
        end = std::min(end, span.end_ns);
        if (end > start) {
          covered += end - start;
          cursor = end;
        }
      }
    }
    self[i] = static_cast<double>(span.end_ns - span.start_ns - covered) / 1e3;
  }
  return self;
}

std::vector<double> SpanRecorder::SelfTimesUs(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const std::vector<double> self = SelfTimesLocked();
  std::vector<double> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].name == name) out.push_back(self[i]);
  }
  return out;
}

std::vector<double> SpanRecorder::DurationsUs(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<double> out;
  for (const Span& span : spans_) {
    if (span.name == name) {
      out.push_back(static_cast<double>(span.end_ns - span.start_ns) / 1e3);
    }
  }
  return out;
}

std::map<std::string, LayerTotals> SpanRecorder::Totals() const {
  std::lock_guard<std::mutex> lock(mutex_);
  const std::vector<double> self = SelfTimesLocked();
  std::map<std::string, LayerTotals> totals;
  for (size_t i = 0; i < spans_.size(); ++i) {
    LayerTotals& t = totals[spans_[i].name];
    if (t.count == 0) {
      // A parent is always recorded before its children (lower id).
      size_t root = i;
      while (spans_[root].parent != 0) root = spans_[root].parent - 1;
      t.root = spans_[root].name;
    }
    ++t.count;
    t.total_us += static_cast<double>(spans_[i].end_ns - spans_[i].start_ns) / 1e3;
    t.self_us += self[i];
  }
  return totals;
}

bool SpanRecorder::WriteJsonLines(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::lock_guard<std::mutex> lock(mutex_);
  for (const Span& span : spans_) {
    std::fprintf(out,
                 "{\"id\": %llu, \"parent\": %llu, \"name\": \"%s\", "
                 "\"start_ns\": %lld, \"end_ns\": %lld}\n",
                 static_cast<unsigned long long>(span.id),
                 static_cast<unsigned long long>(span.parent), span.name.c_str(),
                 static_cast<long long>(span.start_ns),
                 static_cast<long long>(span.end_ns));
  }
  return std::fclose(out) == 0;
}

}  // namespace hdbench
