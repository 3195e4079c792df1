// The benchmark's workloads (README.md has the why of each):
//
//   warm_hits         2 keep-alive clients, cache hits of 64 CQ instances,
//                     each request the instance's own text
//   prepared_queries  1 client, 32 query shapes x 8 fresh databases as
//                     HTDQUERY1 with counting, a fresh server per pass
//   renamed_hits      warm_hits with one request in four a seeded renaming
//   cold_solves       1 client, the HyperBench-like corpus at k=2 and k=3,
//                     ?timeout=1, a fresh server per pass
//   routed_hits       warm_hits' mix through a ShardRouter over 2 shards
//
// BENCHMARK.json gates the first two. The others run by name: about 16% of
// renamed_hits' requests fail (the cache is not label-safe), and
// cold_solves' and routed_hits' latencies spread too far between runs to
// gate on. Their layers are read in the gated workloads' traced runs.
//
// The instances, shapes and corpus are fixed catalogues; the run's seed
// draws the traffic over them (renamings, request order, databases).
// Everything runs in this process, with hdserver's default configuration: a
// 4-worker executor, solve.num_threads=0, 8 IO and 2 loop threads, queue
// depth 64, default timeout 30 s.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "checks.h"
#include "spans.h"
#include "util/status.h"

namespace hdbench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// A slice of a load: the successful operations that ended in it.
struct Window {
  double seconds = 0.0;
  std::vector<double> latency_ms;
  double peak_rss_mb = 0.0;  ///< 0 where not measured per window
};

/// What one measured load produced.
struct LoadResult {
  Tally tally;
  std::vector<double> latency_ms;  ///< successful operations only
  double seconds = 0.0;            ///< measured wall time
  /// The same operations cut into windows of like work: 1 s slices of the
  /// hits loads, single passes of the pass loads. The end-to-end metrics are
  /// medians over windows, so a burst of host load moves them less.
  std::vector<Window> windows;
  /// Scheduler submissions and cache hits during the load (all backends).
  uint64_t submitted = 0;
  uint64_t cache_hits = 0;
  /// prepared_queries: the query engine's stages, from the reply bodies.
  std::vector<double> qa_decompose_ms, qa_pick_us, qa_execute_ms, qa_probes;
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Builds the inputs from the seed, starts the servers and warms what the
  /// workload needs warm. Timed as the run's set-up.
  virtual htd::util::Status SetUp() = 0;

  /// Runs the closed-loop load for at least `seconds`; with `spans`, each
  /// request is recorded with its Server-Timing stages as children.
  virtual LoadResult RunLoad(double seconds, SpanRecorder* spans) = 0;

  /// Replays the workload's inputs through the public layer functions,
  /// recording a span around each call, and returns the per-layer metrics
  /// that depend only on the replay.
  virtual std::vector<Metric> Replay(SpanRecorder& spans) = 0;
};

const std::vector<std::string>& WorkloadNames();

/// nullptr for an unknown name.
std::unique_ptr<Workload> MakeWorkload(const std::string& name, uint64_t seed);

}  // namespace hdbench
