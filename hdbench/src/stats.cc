#include "stats.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <malloc.h>
#include <numeric>

namespace hdbench {

namespace {

/// 1-based nearest rank of the q-percentile among n samples.
size_t NearestRank(size_t n, double q) {
  const double rank = std::ceil(q * static_cast<double>(n));
  return std::clamp<size_t>(static_cast<size_t>(rank), 1, n);
}

}  // namespace

double Percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  const size_t rank = NearestRank(samples.size(), q);
  std::nth_element(samples.begin(), samples.begin() + (rank - 1), samples.end());
  return samples[rank - 1];
}

double Median(std::vector<double> samples) {
  return Percentile(std::move(samples), 0.5);
}

double Mean(const std::vector<double>& samples) {
  if (samples.empty()) return 0.0;
  return std::accumulate(samples.begin(), samples.end(), 0.0) /
         static_cast<double>(samples.size());
}

size_t SamplesBeyond(size_t n, double q) {
  return n == 0 ? 0 : n - NearestRank(n, q);
}

bool TailPercentileAllowed(size_t n, double q, size_t min_beyond) {
  return SamplesBeyond(n, q) >= min_beyond;
}

double PeakRssMb() {
  std::FILE* status = std::fopen("/proc/self/status", "r");
  if (status == nullptr) return 0.0;
  char line[256];
  double kib = 0.0;
  while (std::fgets(line, sizeof(line), status) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      kib = std::strtod(line + 6, nullptr);
      break;
    }
  }
  std::fclose(status);
  return kib / 1024.0;
}

void ResetPeakRss() {
  malloc_trim(0);
  // "5" resets VmHWM to the current RSS (proc(5), /proc/pid/clear_refs).
  if (std::FILE* refs = std::fopen("/proc/self/clear_refs", "w")) {
    std::fputs("5", refs);
    std::fclose(refs);
  }
}

}  // namespace hdbench
