// hdbench: one run of one workload (README.md).
//
//   hdbench --workload warm_hits --seed 1 --seconds 20 --trace 0
//           [--spans FILE]
//
// --trace 0 measures the end-to-end metrics. --trace 1 measures the load
// untraced and traced (a quarter of the seconds each), then replays the
// workload's inputs through the layer functions for the per-layer metrics
// and writes the spans to --spans. The last line of stdout is the result
// object:
//   {"correct": ..., "attempted": N, "failed": F, "metrics": {...}}
// Set-up failures exit 1 without a result; bad arguments exit 2.
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "stats.h"
#include "util/executor.h"
#include "workloads.h"

namespace hdbench {
namespace {

/// hdserver's default executor width.
constexpr int kExecutorWorkers = 4;
/// Set-up runs at least kMinSetups times, and more (up to kMaxSetups) while
/// the set-ups together took under kMinSetupSeconds; setup_s is their median.
constexpr int kMinSetups = 3;
constexpr int kMaxSetups = 25;
constexpr double kMinSetupSeconds = 1.0;
/// The end-to-end p99 needs this many samples beyond it.
constexpr size_t kTailSamples = 1000;

/// Every per-layer metric, reported on every workload; 0 where the workload
/// does not exercise the layer.
const std::vector<std::pair<std::string, std::string>>& PerLayerMetrics() {
  static const std::vector<std::pair<std::string, std::string>> metrics = {
      {"net.transport_us", "us"},
      {"net.transport_share", "ratio"},
      {"net.http_parse_us", "us"},
      {"net.router_us", "us"},
      {"net.router_connects_per_op", "count"},
      {"hypergraph.parse_us", "us"},
      {"service.fingerprint_us", "us"},
      {"service.cache_us", "us"},
      {"service.cache_hit_ratio", "ratio"},
      {"service.renamed_failed_share", "ratio"},
      {"service.schedule_ms", "ms"},
      {"core.solve_ms", "ms"},
      {"core.separators_per_solve", "count"},
      {"core.recursive_calls_per_solve", "count"},
      {"core.separators_vs_width1", "ratio"},
      {"core.parallel_efficiency", "ratio"},
      {"core.depth_over_log2E", "ratio"},
      {"core.yes_at_deadline", "count"},
      {"util.executor_width", "workers"},
      {"decomp.serialise_us", "us"},
      {"decomp.validate_us", "us"},
      {"qa.wire_parse_us", "us"},
      {"qa.decompose_ms", "ms"},
      {"qa.pick_us", "us"},
      {"qa.execute_ms", "ms"},
      {"qa.probes_per_query", "count"},
      {"cq.count_ms", "ms"},
      {"trace.overhead_ms", "ms"},
  };
  return metrics;
}

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  std::string spans_path;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return false;
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0') return false;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      args->trace = value == "1";
    } else if (flag == "--spans") {
      args->spans_path = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && args->seconds > 0 &&
         args->trace >= 0;
}

void PrintTally(const std::string& label, const Tally& tally) {
  std::printf("%s: attempted %llu, failed %llu", label.c_str(),
              static_cast<unsigned long long>(tally.attempted),
              static_cast<unsigned long long>(tally.failed));
  for (const auto& [verdict, n] : tally.failures) {
    std::printf(", %s %llu", VerdictName(verdict),
                static_cast<unsigned long long>(n));
  }
  std::printf("\n");
}

/// Rates, percentiles and (where windows measure it) peak RSS are medians
/// over the load's windows.
std::vector<Metric> EndToEnd(const LoadResult& load, double setup_s) {
  std::vector<double> rates, p50s, p90s, peaks;
  for (const Window& window : load.windows) {
    rates.push_back(static_cast<double>(window.latency_ms.size()) / window.seconds);
    p50s.push_back(Percentile(window.latency_ms, 0.50));
    p90s.push_back(Percentile(window.latency_ms, 0.90));
    if (window.peak_rss_mb > 0) peaks.push_back(window.peak_rss_mb);
  }
  return {
      {"setup_s", setup_s, "s"},
      {"ops_per_s", Median(rates), "1/s"},
      {"lat_p50_ms", Median(p50s), "ms"},
      {"lat_p90_ms", Median(p90s), "ms"},
      {"peak_rss_mb", peaks.empty() ? PeakRssMb() : Median(peaks), "MB"},
  };
}

std::vector<Metric> PerLayer(Workload& workload, const LoadResult& untraced,
                             const LoadResult& traced, SpanRecorder& spans) {
  std::map<std::string, double> values;
  const double p50_ms = Percentile(traced.latency_ms, 0.50);
  const double transport_us = Median(spans.SelfTimesUs("client.request"));
  values["net.transport_us"] = transport_us;
  values["net.transport_share"] = p50_ms > 0 ? transport_us / (p50_ms * 1e3) : 0.0;
  values["service.cache_us"] = Mean(spans.DurationsUs("st.cache"));
  values["service.cache_hit_ratio"] =
      traced.submitted > 0 ? static_cast<double>(traced.cache_hits) /
                                 static_cast<double>(traced.submitted)
                           : 0.0;
  values["service.schedule_ms"] = Mean(spans.DurationsUs("st.schedule")) / 1e3;
  values["qa.decompose_ms"] = Mean(traced.qa_decompose_ms);
  values["qa.pick_us"] = Mean(traced.qa_pick_us);
  values["qa.execute_ms"] = Mean(traced.qa_execute_ms);
  values["qa.probes_per_query"] = Mean(traced.qa_probes);
  values["trace.overhead_ms"] = p50_ms - Percentile(untraced.latency_ms, 0.50);
  for (const Metric& metric : workload.Replay(spans)) {
    values[metric.name] = metric.value;
  }
  std::vector<Metric> out;
  for (const auto& [name, unit] : PerLayerMetrics()) {
    out.push_back({name, values[name], unit});
  }
  return out;
}

/// Mean self and total time per span name, and the name's summed self time
/// as a share of the summed time of its trees' roots.
void PrintLayerTable(const SpanRecorder& spans) {
  const auto totals = spans.Totals();
  std::printf("%-22s %9s %13s %13s %11s\n", "span", "count", "self_us_mean",
              "total_us_mean", "self_share");
  for (const auto& [name, t] : totals) {
    const double root_us = totals.at(t.root).total_us;
    std::printf("%-22s %9llu %13.3f %13.3f %11.4f\n", name.c_str(),
                static_cast<unsigned long long>(t.count),
                t.self_us / static_cast<double>(t.count),
                t.total_us / static_cast<double>(t.count),
                root_us > 0 ? t.self_us / root_us : 0.0);
  }
}

/// The result line. `correct` is true: every reply went through its
/// workload's check, and the wrong ones are counted in `failed`.
void PrintResult(const Tally& tally, const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": true, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              static_cast<unsigned long long>(tally.attempted),
              static_cast<unsigned long long>(tally.failed));
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i > 0 ? ", " : "", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args) ||
      MakeWorkload(args.workload, args.seed) == nullptr) {
    std::fprintf(stderr,
                 "usage: hdbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--spans FILE]\n");
    return 2;
  }
  htd::util::Executor::InitGlobal(kExecutorWorkers);

  std::vector<double> setup_seconds;
  std::unique_ptr<Workload> workload;
  double setup_total = 0.0;
  for (int i = 0; i < kMinSetups || (setup_total < kMinSetupSeconds && i < kMaxSetups);
       ++i) {
    workload.reset();  // the previous set-up's servers stop first
    workload = MakeWorkload(args.workload, args.seed);
    const auto start = Clock::now();
    const htd::util::Status status = workload->SetUp();
    setup_seconds.push_back(
        std::chrono::duration<double>(Clock::now() - start).count());
    setup_total += setup_seconds.back();
    if (!status.ok()) {
      std::fprintf(stderr, "hdbench: %s set-up failed: %s\n",
                   args.workload.c_str(), status.message().c_str());
      return 1;
    }
  }
  const double setup_s = Median(setup_seconds);

  Tally tally;
  std::vector<Metric> metrics;
  if (args.trace == 0) {
    ResetPeakRss();
    const LoadResult load = workload->RunLoad(args.seconds, nullptr);
    tally = load.tally;
    metrics = EndToEnd(load, setup_s);
    const size_t n = load.latency_ms.size();
    std::printf("%zu latency samples over %.3f s in %zu windows; per window "
                "ops/s, p50 ms:",
                n, load.seconds, load.windows.size());
    for (const Window& window : load.windows) {
      std::printf(" %.1f,%.3f",
                  static_cast<double>(window.latency_ms.size()) / window.seconds,
                  Percentile(window.latency_ms, 0.50));
    }
    std::printf("\n");
    if (TailPercentileAllowed(n, 0.99, kTailSamples)) {
      std::printf("lat_p99_ms = %.6f ms (%zu samples beyond it)\n",
                  Percentile(load.latency_ms, 0.99), SamplesBeyond(n, 0.99));
    }
  } else {
    // A quarter of the seconds each leaves room for the replay, whose direct
    // corpus solves take about a minute, within the run's time limit.
    const LoadResult untraced = workload->RunLoad(args.seconds / 4, nullptr);
    SpanRecorder spans;
    const LoadResult traced = workload->RunLoad(args.seconds / 4, &spans);
    tally = untraced.tally;
    tally.Merge(traced.tally);
    metrics = PerLayer(*workload, untraced, traced, spans);
    PrintLayerTable(spans);
    if (!args.spans_path.empty() && !spans.WriteJsonLines(args.spans_path)) {
      std::fprintf(stderr, "hdbench: cannot write %s\n", args.spans_path.c_str());
      return 1;
    }
  }
  PrintTally(args.workload, tally);
  for (const Metric& metric : metrics) {
    std::printf("%-32s %14.6f %s\n", metric.name.c_str(), metric.value,
                metric.unit.c_str());
  }
  // Every operation's reply went through its workload's check; a run that
  // attempted nothing has checked nothing and is not a result.
  if (tally.attempted == 0) {
    std::fprintf(stderr, "hdbench: no operation was attempted or checked\n");
    return 1;
  }
  PrintResult(tally, metrics);
  return 0;
}

}  // namespace
}  // namespace hdbench

int main(int argc, char** argv) { return hdbench::Main(argc, argv); }
