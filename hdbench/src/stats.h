// Summary statistics for the benchmark's samples.
#pragma once

#include <cstddef>
#include <vector>

namespace hdbench {

/// Nearest-rank percentile (q in [0, 1]) of `samples`; 0 when empty. Sorts a
/// copy, so callers may pass samples in arrival order.
double Percentile(std::vector<double> samples, double q);

double Median(std::vector<double> samples);
double Mean(const std::vector<double>& samples);

/// Samples strictly above the nearest-rank q-percentile of n samples.
size_t SamplesBeyond(size_t n, double q);

/// The tail rule: a percentile is reported only when at least `min_beyond`
/// samples lie beyond it (1,000 for the end-to-end p99).
bool TailPercentileAllowed(size_t n, double q, size_t min_beyond);

/// Peak resident set size of this process in MiB (VmHWM).
double PeakRssMb();

/// Returns freed heap to the system and restarts the peak resident set at
/// the current one, so that PeakRssMb() covers only what follows.
void ResetPeakRss();

}  // namespace hdbench
