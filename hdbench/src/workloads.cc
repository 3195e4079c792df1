#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <iterator>
#include <optional>
#include <thread>

#include "benchlib/corpus.h"
#include "core/log_k_decomp.h"
#include "cq/yannakakis.h"
#include "decomp/decomp_reader.h"
#include "decomp/decomp_writer.h"
#include "decomp/validation.h"
#include "hypergraph/generators.h"
#include "hypergraph/parser.h"
#include "hypergraph/writer.h"
#include "net/decomposition_server.h"
#include "net/http.h"
#include "net/server.h"
#include "net/shard_router.h"
#include "qa/wire.h"
#include "service/canonical.h"
#include "stats.h"

namespace hdbench {

namespace {

using htd::util::Status;
using htd::util::StatusOr;

constexpr char kHost[] = "127.0.0.1";
/// Generous against the 30 s default deadline: a reply that never comes is
/// a transport failure, not a hang.
constexpr double kReadTimeoutSeconds = 60.0;

// warm_hits / renamed_hits / routed_hits
constexpr int kHitInstances = 64;
constexpr int kRenamingsPerInstance = 4;
constexpr int kHitClients = 2;
constexpr double kHitWindowSeconds = 1.0;
constexpr char kHitTarget[] = "/v1/decompose?k=2&decomposition=1";

// cold_solves
constexpr double kColdTimeoutSeconds = 1.0;

// prepared_queries
constexpr int kQueryShapes = 32;
constexpr int kSendsPerShape = 8;
constexpr char kQueryTarget[] = "/v1/query?count=1";

/// Seed of the fixed instance and query catalogues (the corpus's default).
constexpr uint64_t kCatalogueSeed = 20220612;

/// hdserver's defaults (tools/hdserver.cc) on an ephemeral port. The
/// executor width (4) is set once per process by main().
htd::net::DecompositionServerOptions ServerOptions() {
  htd::net::DecompositionServerOptions options;
  options.http.port = 0;
  options.service.solve.num_threads = 0;
  options.service.default_timeout_seconds = 30.0;
  return options;
}

StatusOr<std::unique_ptr<htd::net::DecompositionServer>> StartServer() {
  auto server = htd::net::DecompositionServer::Create(ServerOptions());
  if (!server.ok()) return server.status();
  if (Status started = (*server)->Start(); !started.ok()) return started;
  return std::move(*server);
}

/// One request as a client sends it, plus what checking it needs.
struct WireRequest {
  std::string target;
  std::string body;
  htd::Hypergraph graph;  ///< decompose: what `body` parses to
  int k = 0;
  std::optional<bool> expected_yes;
  std::optional<int> known_width;
  unsigned long long expected_count = 0;  ///< query
};

/// The request span and its Server-Timing stages, laid end to end from the
/// request's start (the header carries durations, not offsets).
void RecordRequestSpans(SpanRecorder& spans, Clock::time_point sent,
                        const Reply& reply) {
  const auto end = sent + std::chrono::duration_cast<Clock::duration>(
                              std::chrono::duration<double>(reply.seconds));
  const uint64_t root = spans.Add("client.request", 0, sent, end);
  auto cursor = sent;
  for (const auto& [stage, ms] : ParseServerTiming(reply.server_timing)) {
    const auto next = cursor + std::chrono::duration_cast<Clock::duration>(
                                   std::chrono::duration<double, std::milli>(ms));
    spans.Add("st." + stage, root, cursor, next);
    cursor = next;
  }
}

/// Next request index for (client, op number); nullopt ends that client.
using NextFn = std::function<std::optional<size_t>(int, uint64_t)>;
/// Classifies one reply; runs on the client's own thread.
using CheckFn = std::function<Verdict(int, size_t, const Reply&)>;

/// Closed loop: each client sends its next request only after the previous
/// reply, until `deadline` or until `next` runs out. The load is cut into
/// equal windows of about `window_seconds`; 0 makes it one window.
LoadResult RunClosedLoop(int port, int clients,
                         const std::vector<WireRequest>& requests,
                         const NextFn& next, const CheckFn& check,
                         Clock::time_point deadline, double window_seconds,
                         SpanRecorder* spans) {
  std::vector<LoadResult> per_client(clients);
  // Per client: when each successful operation ended, from `start`.
  std::vector<std::vector<double>> ended_s(clients);
  const auto start = Clock::now();
  {
    std::vector<std::jthread> threads;
    for (int c = 0; c < clients; ++c) {
      threads.emplace_back([&, c] {
        KeepAliveClient client(kHost, port, kReadTimeoutSeconds);
        LoadResult& out = per_client[c];
        for (uint64_t op = 0; Clock::now() < deadline; ++op) {
          const std::optional<size_t> index = next(c, op);
          if (!index.has_value()) break;
          const WireRequest& request = requests[*index];
          const auto sent = Clock::now();
          const Reply reply = client.Post(request.target, request.body);
          if (spans != nullptr) RecordRequestSpans(*spans, sent, reply);
          const Verdict verdict = check(c, *index, reply);
          out.tally.Record(verdict);
          if (verdict == Verdict::kOk) {
            out.latency_ms.push_back(reply.seconds * 1e3);
            ended_s[c].push_back(
                std::chrono::duration<double>(Clock::now() - start).count());
          }
        }
      });
    }
  }
  LoadResult result;
  result.seconds = std::chrono::duration<double>(Clock::now() - start).count();
  const size_t windows =
      window_seconds > 0
          ? std::max<size_t>(1, static_cast<size_t>(result.seconds / window_seconds))
          : 1;
  const double width = result.seconds / static_cast<double>(windows);
  result.windows.resize(windows);
  for (Window& window : result.windows) window.seconds = width;
  for (int c = 0; c < clients; ++c) {
    const LoadResult& part = per_client[c];
    result.tally.Merge(part.tally);
    result.latency_ms.insert(result.latency_ms.end(), part.latency_ms.begin(),
                             part.latency_ms.end());
    for (size_t i = 0; i < part.latency_ms.size(); ++i) {
      const size_t w =
          std::min(windows - 1, static_cast<size_t>(ended_s[c][i] / width));
      result.windows[w].latency_ms.push_back(part.latency_ms[i]);
    }
  }
  return result;
}

/// Adds `part` (one pass) to `total`.
void MergeLoad(LoadResult& total, LoadResult part) {
  total.tally.Merge(part.tally);
  total.latency_ms.insert(total.latency_ms.end(), part.latency_ms.begin(),
                          part.latency_ms.end());
  total.seconds += part.seconds;
  total.windows.insert(total.windows.end(),
                       std::make_move_iterator(part.windows.begin()),
                       std::make_move_iterator(part.windows.end()));
  total.submitted += part.submitted;
  total.cache_hits += part.cache_hits;
  auto append = [](std::vector<double>& to, const std::vector<double>& from) {
    to.insert(to.end(), from.begin(), from.end());
  };
  append(total.qa_decompose_ms, part.qa_decompose_ms);
  append(total.qa_pick_us, part.qa_pick_us);
  append(total.qa_execute_ms, part.qa_execute_ms);
  append(total.qa_probes, part.qa_probes);
}

/// Appends the median duration of the spans named `name` (µs × scale).
void DurationsMedian(const SpanRecorder& spans, const std::string& name,
                     double scale, const std::string& metric,
                     const std::string& unit, std::vector<Metric>& out) {
  out.push_back({metric, Median(spans.DurationsUs(name)) * scale, unit});
}

// ---------------------------------------------------------------------------
// warm_hits, renamed_hits and routed_hits

class HitsWorkload : public Workload {
 public:
  /// `renamed`: every fourth request of the load is a renaming.
  HitsWorkload(uint64_t seed, bool routed, bool renamed)
      : seed_(seed), routed_(routed), renamed_(renamed) {}
  ~HitsWorkload() override;

  Status SetUp() override;
  LoadResult RunLoad(double seconds, SpanRecorder* spans) override;
  std::vector<Metric> Replay(SpanRecorder& spans) override;

 private:
  Status StartServers();
  std::vector<htd::service::DecompositionService*> Services();
  uint64_t ShardConnections() const;

  uint64_t seed_;
  bool routed_;
  bool renamed_;
  /// [0, 64): the instances' own texts; then 4 renamings per instance. The
  /// replay sends all of them; the load sends renamings only if `renamed_`.
  std::vector<WireRequest> requests_;
  int port_ = 0;
  std::unique_ptr<htd::net::DecompositionServer> direct_;
  // routed_hits: shards are served through their own HttpServer so that the
  // benchmark can read connections_accepted() from outside.
  std::vector<std::unique_ptr<htd::net::DecompositionServer>> shards_;
  std::vector<std::unique_ptr<htd::net::HttpServer>> shard_http_;
  std::unique_ptr<htd::net::ShardRouter> router_;
  std::unique_ptr<htd::net::HttpServer> router_http_;
};

HitsWorkload::~HitsWorkload() {
  if (router_http_ != nullptr) router_http_->Stop();
  for (auto& http : shard_http_) http->Stop();
  if (direct_ != nullptr) direct_->Stop();
}

Status HitsWorkload::StartServers() {
  if (!routed_) {
    auto server = StartServer();
    if (!server.ok()) return server.status();
    direct_ = std::move(*server);
    port_ = direct_->port();
    return Status::Ok();
  }
  std::string spec;
  for (int i = 0; i < 2; ++i) {
    auto shard = htd::net::DecompositionServer::Create(ServerOptions());
    if (!shard.ok()) return shard.status();
    htd::net::DecompositionServer* raw = shard->get();
    auto http = std::make_unique<htd::net::HttpServer>(
        ServerOptions().http,
        [raw](const htd::net::HttpRequest& request) { return raw->Handle(request); });
    if (Status started = http->Start(); !started.ok()) return started;
    spec += (i > 0 ? "," : "") + std::string(kHost) + ":" +
            std::to_string(http->port());
    shards_.push_back(std::move(*shard));
    shard_http_.push_back(std::move(http));
  }
  auto map = htd::service::ShardMap::Parse(spec);
  if (!map.ok()) return map.status();
  router_ = std::make_unique<htd::net::ShardRouter>(
      htd::net::ShardRouterOptions{*map});
  htd::net::ShardRouter* router = router_.get();
  router_http_ = std::make_unique<htd::net::HttpServer>(
      ServerOptions().http,
      [router](const htd::net::HttpRequest& request) { return router->Handle(request); });
  if (Status started = router_http_->Start(); !started.ok()) return started;
  port_ = router_http_->port();
  return Status::Ok();
}

Status HitsWorkload::SetUp() {
  // The instances are a fixed catalogue; the run's seed draws the renamings
  // and the request stream. Instances drawn from the run's seed moved
  // set-up from 1 s to 8 s (the hardest instance drawn) and the p50 latency
  // by 10% between seeds.
  htd::util::Rng rng(kCatalogueSeed);
  for (int i = 0; i < kHitInstances; ++i) {
    htd::util::Rng child = rng.Fork();
    const int atoms = child.UniformInt(8, 40);
    WireRequest request;
    request.target = kHitTarget;
    request.body = htd::WriteHyperBench(htd::MakeRandomCq(child, atoms, 4, 0.25));
    auto graph = htd::ParseAuto(request.body);
    if (!graph.ok()) return graph.status();
    request.graph = std::move(*graph);
    request.k = 2;
    requests_.push_back(std::move(request));
  }
  htd::util::Rng rename_rng(seed_ ^ 0x9e3779b97f4a7c15ULL);
  for (int i = 0; i < kHitInstances; ++i) {
    for (int j = 0; j < kRenamingsPerInstance; ++j) {
      WireRequest request;
      request.target = kHitTarget;
      request.body = RenameInstance(requests_[i].graph, rename_rng,
                                    i * kRenamingsPerInstance + j)
                         .text;
      auto graph = htd::ParseAuto(request.body);
      if (!graph.ok()) return graph.status();
      request.graph = std::move(*graph);
      request.k = 2;
      requests_.push_back(std::move(request));
    }
  }
  if (Status started = StartServers(); !started.ok()) return started;

  // Warm the cache: each instance solved once, in its own labelling. The
  // answer becomes the reference every later reply (renamed ones too) must
  // agree with.
  KeepAliveClient client(kHost, port_, kReadTimeoutSeconds);
  for (int i = 0; i < kHitInstances; ++i) {
    WireRequest& original = requests_[i];
    const Reply reply = client.Post(original.target, original.body);
    const Verdict verdict = CheckDecompose(reply, original.graph, original.k, {});
    if (verdict != Verdict::kOk) {
      return Status::Internal("set-up solve of instance " + std::to_string(i) +
                              " failed: " + VerdictName(verdict) + " " +
                              reply.error + reply.body.substr(0, 200));
    }
    const bool yes = ParseDecomposeBody(reply.body)->outcome == "yes";
    original.expected_yes = yes;
    for (int j = 0; j < kRenamingsPerInstance; ++j) {
      requests_[kHitInstances + i * kRenamingsPerInstance + j].expected_yes = yes;
    }
  }
  return Status::Ok();
}

std::vector<htd::service::DecompositionService*> HitsWorkload::Services() {
  std::vector<htd::service::DecompositionService*> services;
  if (direct_ != nullptr) services.push_back(&direct_->decomposition_service());
  for (auto& shard : shards_) services.push_back(&shard->decomposition_service());
  return services;
}

uint64_t HitsWorkload::ShardConnections() const {
  uint64_t total = 0;
  for (const auto& http : shard_http_) total += http->connections_accepted();
  return total;
}

LoadResult HitsWorkload::RunLoad(double seconds, SpanRecorder* spans) {
  // Each client draws instances uniformly; with `renamed_`, every fourth
  // request is one of the instance's renamings.
  std::vector<htd::util::Rng> rngs;
  for (int c = 0; c < kHitClients; ++c) {
    rngs.emplace_back(seed_ * 1000003ULL + static_cast<uint64_t>(c) + 1);
  }
  const NextFn next = [&](int c, uint64_t op) -> std::optional<size_t> {
    const int instance = rngs[c].UniformInt(0, kHitInstances - 1);
    if (!renamed_ || op % 4 != 3) return static_cast<size_t>(instance);
    return static_cast<size_t>(kHitInstances + instance * kRenamingsPerInstance +
                               rngs[c].UniformInt(0, kRenamingsPerInstance - 1));
  };
  // A cache hit's body is deterministic, so a body already checked for the
  // same request has the same verdict: the comparison is the check.
  std::vector<std::vector<std::pair<std::string, Verdict>>> memo(
      kHitClients, std::vector<std::pair<std::string, Verdict>>(requests_.size()));
  const CheckFn check = [&](int c, size_t index, const Reply& reply) {
    const WireRequest& request = requests_[index];
    auto& [body, verdict] = memo[c][index];
    if (reply.transport_ok && reply.status == 200 && !body.empty() &&
        body == reply.body) {
      return verdict;
    }
    const Verdict fresh =
        CheckDecompose(reply, request.graph, request.k, request.expected_yes);
    if (reply.transport_ok && reply.status == 200) {
      body = reply.body;
      verdict = fresh;
    }
    return fresh;
  };

  uint64_t submitted = 0, hits = 0;
  for (auto* service : Services()) {
    submitted += service->scheduler_stats().submitted;
    hits += service->scheduler_stats().cache_hits;
  }
  LoadResult result = RunClosedLoop(
      port_, kHitClients, requests_, next, check,
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(seconds)),
      kHitWindowSeconds, spans);
  for (auto* service : Services()) {
    result.submitted += service->scheduler_stats().submitted;
    result.cache_hits += service->scheduler_stats().cache_hits;
  }
  result.submitted -= submitted;
  result.cache_hits -= hits;
  return result;
}

std::vector<Metric> HitsWorkload::Replay(SpanRecorder& spans) {
  // The decomposition each request is served, fetched outside any span.
  // Serialising and validating are replayed on the ones valid for their
  // requester: what a server that certified its answers would process. The
  // share of renamings whose reply fails the load's check measures the
  // cache's label-safety defect.
  KeepAliveClient client(kHost, port_, kReadTimeoutSeconds);
  std::vector<std::optional<htd::Decomposition>> served(requests_.size());
  size_t renamed_failed = 0;
  for (size_t i = 0; i < requests_.size(); ++i) {
    const Reply reply = client.Post(requests_[i].target, requests_[i].body);
    if (i >= kHitInstances &&
        CheckDecompose(reply, requests_[i].graph, requests_[i].k,
                       requests_[i].expected_yes) != Verdict::kOk) {
      ++renamed_failed;
    }
    auto body = ParseDecomposeBody(reply.body);
    if (!body || body->decomposition.empty()) continue;
    auto decomposition =
        htd::ParseDecompositionJson(requests_[i].graph, body->decomposition);
    if (decomposition.ok() && htd::ValidateHd(requests_[i].graph, *decomposition)) {
      served[i] = std::move(*decomposition);
    }
  }
  // The router layer: these inputs through ShardRouter::Handle over two
  // warmed shard servers (routed_hits' own, or a fleet set up for this).
  std::unique_ptr<HitsWorkload> fleet;
  HitsWorkload* routed = this;
  if (router_ == nullptr) {
    fleet = std::make_unique<HitsWorkload>(seed_, true, renamed_);
    routed = fleet.get();
    if (Status status = fleet->SetUp(); !status.ok()) {
      std::fprintf(stderr, "hdbench: router fleet set-up failed: %s\n",
                   status.message().c_str());
      routed = nullptr;
    }
  }
  const uint64_t connections = routed != nullptr ? routed->ShardConnections() : 0;
  uint64_t routed_requests = 0;
  for (int rep = 0; rep < 3; ++rep) {
    for (size_t i = 0; i < requests_.size(); ++i) {
      const std::string bytes =
          PostRequestBytes(kHost, requests_[i].target, requests_[i].body);
      const uint64_t root = spans.Begin("replay.request", 0);
      htd::net::HttpRequest request = spans.Time("net.http_parse", root, [&] {
        htd::net::HttpRequestParser parser;
        parser.Consume(bytes);
        return parser.TakeRequest();
      });
      auto graph = spans.Time("hypergraph.parse", root,
                              [&] { return htd::ParseAuto(request.body); });
      spans.Time("service.fingerprint", root,
                 [&] { return htd::service::CanonicalFingerprint(*graph); });
      if (routed != nullptr) {
        spans.Time("net.router", root,
                   [&] { return routed->router_->Handle(request); });
        ++routed_requests;
      }
      if (served[i].has_value()) {
        spans.Time("decomp.serialise", root, [&] {
          return htd::WriteDecompositionJson(*graph, *served[i]);
        });
        spans.Time("decomp.validate", root,
                   [&] { return htd::ValidateHd(*graph, *served[i]); });
      }
      spans.End(root);
    }
  }
  std::vector<Metric> out;
  DurationsMedian(spans, "net.http_parse", 1.0, "net.http_parse_us", "us", out);
  DurationsMedian(spans, "hypergraph.parse", 1.0, "hypergraph.parse_us", "us", out);
  DurationsMedian(spans, "service.fingerprint", 1.0, "service.fingerprint_us",
                  "us", out);
  DurationsMedian(spans, "net.router", 1.0, "net.router_us", "us", out);
  if (routed_requests > 0) {
    out.push_back({"net.router_connects_per_op",
                   static_cast<double>(routed->ShardConnections() - connections) /
                       static_cast<double>(routed_requests),
                   "count"});
  }
  DurationsMedian(spans, "decomp.serialise", 1.0, "decomp.serialise_us", "us", out);
  DurationsMedian(spans, "decomp.validate", 1.0, "decomp.validate_us", "us", out);
  out.push_back({"service.renamed_failed_share",
                 static_cast<double>(renamed_failed) /
                     static_cast<double>(requests_.size() - kHitInstances),
                 "ratio"});
  return out;
}

// ---------------------------------------------------------------------------
// cold_solves and prepared_queries: a fresh server per pass

/// A workload whose load is whole passes over a fixed request order, each on
/// a fresh server so that nothing is warm when a pass starts.
class PassWorkload : public Workload {
 public:
  explicit PassWorkload(uint64_t seed) : seed_(seed) {}
  ~PassWorkload() override {
    if (server_ != nullptr) server_->Stop();
  }

  LoadResult RunLoad(double seconds, SpanRecorder* spans) override;

 protected:
  /// Classifies one reply and records its body observations into `load`.
  virtual Verdict Check(const WireRequest& request, const Reply& reply,
                        LoadResult& load) = 0;
  /// Prepares one pass's inputs and their references; untimed, and not
  /// set-up either: it is the benchmark's own work, not the server's.
  virtual Status PreparePass() { return Status::Ok(); }

  uint64_t seed_;
  std::vector<WireRequest> requests_;
  std::vector<size_t> order_;  ///< one pass
  std::unique_ptr<htd::net::DecompositionServer> server_;
};

LoadResult PassWorkload::RunLoad(double seconds, SpanRecorder* spans) {
  LoadResult total;
  do {
    if (Status prepared = PreparePass(); !prepared.ok()) {
      // Building the benchmark's own inputs failed: no result.
      std::fprintf(stderr, "hdbench: preparing a pass failed: %s\n",
                   prepared.message().c_str());
      std::_Exit(1);
    }
    // Each pass is a window with its own peak: server start and pass.
    ResetPeakRss();
    if (server_ == nullptr) {
      auto server = StartServer();
      if (!server.ok()) {
        // Count the pass as attempted and failed rather than hiding it.
        for (size_t i = 0; i < order_.size(); ++i) {
          total.tally.Record(Verdict::kTransport);
        }
        break;
      }
      server_ = std::move(*server);
    }
    LoadResult observations;
    const NextFn next = [&](int, uint64_t op) -> std::optional<size_t> {
      if (op >= order_.size()) return std::nullopt;
      return order_[op];
    };
    const CheckFn check = [&](int, size_t index, const Reply& reply) {
      return Check(requests_[index], reply, observations);
    };
    auto& service = server_->decomposition_service();
    const auto before = service.scheduler_stats();
    LoadResult pass = RunClosedLoop(server_->port(), 1, requests_, next, check,
                                    Clock::time_point::max(), 0.0, spans);
    pass.windows.front().peak_rss_mb = PeakRssMb();
    const auto after = service.scheduler_stats();
    pass.submitted = after.submitted - before.submitted;
    pass.cache_hits = after.cache_hits - before.cache_hits;
    pass.qa_decompose_ms = std::move(observations.qa_decompose_ms);
    pass.qa_pick_us = std::move(observations.qa_pick_us);
    pass.qa_execute_ms = std::move(observations.qa_execute_ms);
    pass.qa_probes = std::move(observations.qa_probes);
    MergeLoad(total, std::move(pass));
    server_->Stop();
    server_.reset();
  } while (total.seconds < seconds);
  return total;
}

class ColdWorkload : public PassWorkload {
 public:
  using PassWorkload::PassWorkload;

  Status SetUp() override;
  std::vector<Metric> Replay(SpanRecorder& spans) override;

 protected:
  Verdict Check(const WireRequest& request, const Reply& reply,
                LoadResult& load) override;
};

/// The HyperBench-like corpus at k=2 and k=3 as /v1/decompose requests with
/// a 1 s deadline. The corpus is the repository's standard one (its default
/// seed), like the fixed HyperBench set it stands in for: drawn from the
/// run's seed, its random families change, and with them the pass's p90
/// latency several-fold.
StatusOr<std::vector<WireRequest>> CorpusRequests() {
  std::vector<WireRequest> requests;
  const auto corpus = htd::bench::BuildHyperBenchLikeCorpus();
  for (int k : {2, 3}) {
    for (const auto& instance : corpus) {
      WireRequest request;
      request.target = "/v1/decompose?k=" + std::to_string(k) +
                       "&decomposition=1&timeout=1";
      request.body = htd::WriteHyperBench(instance.graph);
      auto graph = htd::ParseAuto(request.body);
      if (!graph.ok()) return graph.status();
      request.graph = std::move(*graph);
      request.k = k;
      request.known_width = instance.known_width;
      requests.push_back(std::move(request));
    }
  }
  return requests;
}

/// Submits the corpus requests directly to a fresh service with the server's
/// own options (a "core.solve" span each) and reads the solver's SolveStats:
/// the core.* and util.* metrics. Also solves them at width 1, for the
/// separators the default width tries beyond the sequential search.
std::vector<Metric> SolveCorpusDirectly(const std::vector<WireRequest>& requests,
                                        SpanRecorder& spans) {
  htd::service::ServiceOptions sequential_options = ServerOptions().service;
  sequential_options.solve.num_threads = 1;
  auto service = htd::service::DecompositionService::Create(ServerOptions().service);
  auto sequential = htd::service::DecompositionService::Create(sequential_options);
  if (!service.ok() || !sequential.ok()) return {};
  double separators = 0, sequential_separators = 0, calls = 0;
  double work_total = 0, work_parallel = 0, depth_ratio = 0;
  std::vector<double> solve_ms, threads;
  uint64_t yes_at_deadline = 0;
  for (const WireRequest& request : requests) {
    const htd::service::JobResult job = spans.Time("core.solve", 0, [&] {
      return (*service)->Submit(request.graph, request.k, kColdTimeoutSeconds).get();
    });
    const htd::SolveStats& stats = job.result.stats;
    solve_ms.push_back(job.stages.solve_seconds * 1e3);
    threads.push_back(job.threads_used);
    separators += static_cast<double>(stats.separators_tried);
    calls += static_cast<double>(stats.recursive_calls);
    work_total += static_cast<double>(stats.work_total);
    work_parallel += static_cast<double>(stats.work_parallel);
    const int edges = std::max(2, request.graph.num_edges());
    depth_ratio = std::max(depth_ratio, stats.max_recursion_depth /
                                            std::ceil(std::log2(edges)));
    if (job.result.outcome == htd::Outcome::kYes &&
        job.seconds >= 0.99 * kColdTimeoutSeconds) {
      ++yes_at_deadline;
    }
    sequential_separators += static_cast<double>(
        (*sequential)->Submit(request.graph, request.k, kColdTimeoutSeconds)
            .get()
            .result.stats.separators_tried);
  }
  const double solves = static_cast<double>(requests.size());
  return {
      {"core.solve_ms", Mean(solve_ms), "ms"},
      {"core.separators_per_solve", separators / solves, "count"},
      {"core.recursive_calls_per_solve", calls / solves, "count"},
      {"core.separators_vs_width1",
       sequential_separators > 0 ? separators / sequential_separators : 0.0,
       "ratio"},
      {"core.parallel_efficiency",
       work_parallel > 0 ? work_total / work_parallel : 0.0, "ratio"},
      {"core.depth_over_log2E", depth_ratio, "ratio"},
      {"core.yes_at_deadline", static_cast<double>(yes_at_deadline), "count"},
      {"util.executor_width", Mean(threads), "workers"},
  };
}

Status ColdWorkload::SetUp() {
  auto requests = CorpusRequests();
  if (!requests.ok()) return requests.status();
  requests_ = std::move(*requests);
  order_.resize(requests_.size());
  for (size_t i = 0; i < order_.size(); ++i) order_[i] = i;
  htd::util::Rng rng(seed_);
  rng.Shuffle(order_);
  auto server = StartServer();
  if (!server.ok()) return server.status();
  server_ = std::move(*server);
  return Status::Ok();
}

Verdict ColdWorkload::Check(const WireRequest& request, const Reply& reply,
                            LoadResult&) {
  return CheckDecompose(reply, request.graph, request.k, {}, request.known_width);
}

std::vector<Metric> ColdWorkload::Replay(SpanRecorder& spans) {
  for (size_t index : order_) {
    const WireRequest& wire = requests_[index];
    const std::string bytes = PostRequestBytes(kHost, wire.target, wire.body);
    const uint64_t root = spans.Begin("replay.request", 0);
    htd::net::HttpRequest request = spans.Time("net.http_parse", root, [&] {
      htd::net::HttpRequestParser parser;
      parser.Consume(bytes);
      return parser.TakeRequest();
    });
    auto graph = spans.Time("hypergraph.parse", root,
                            [&] { return htd::ParseAuto(request.body); });
    spans.Time("service.fingerprint", root,
               [&] { return htd::service::CanonicalFingerprint(*graph); });
    spans.End(root);
  }
  std::vector<Metric> out = SolveCorpusDirectly(requests_, spans);
  DurationsMedian(spans, "net.http_parse", 1.0, "net.http_parse_us", "us", out);
  DurationsMedian(spans, "hypergraph.parse", 1.0, "hypergraph.parse_us", "us", out);
  DurationsMedian(spans, "service.fingerprint", 1.0, "service.fingerprint_us",
                  "us", out);
  return out;
}

class QueriesWorkload : public PassWorkload {
 public:
  explicit QueriesWorkload(uint64_t seed) : PassWorkload(seed), db_rng_(seed) {}

  Status SetUp() override;
  std::vector<Metric> Replay(SpanRecorder& spans) override;

 protected:
  Verdict Check(const WireRequest& request, const Reply& reply,
                LoadResult& load) override;
  /// Draws a fresh database for every send of every shape, with the
  /// reference counts.
  Status PreparePass() override;

 private:
  htd::util::Rng db_rng_;
  std::vector<htd::cq::Query> shapes_;
  std::vector<htd::Decomposition> shape_decompositions_;  ///< reference, per shape
  std::vector<htd::qa::QueryRequest> parsed_;  ///< per request
};

Status QueriesWorkload::SetUp() {
  // The shapes are a fixed catalogue, the prepared statements; the run's
  // seed draws the databases they are sent with. Shapes drawn from the run's
  // seed split into cheap acyclic and costly cyclic ones in proportions that
  // moved the p50 latency up to 4x between seeds.
  htd::util::Rng shape_rng(kCatalogueSeed);
  for (int s = 0; s < kQueryShapes; ++s) {
    htd::util::Rng child = shape_rng.Fork();
    const int atoms = child.UniformInt(4, 12);
    const htd::Hypergraph shape = htd::MakeRandomCq(child, atoms, 3, 0.25);
    htd::cq::Query query;
    for (int e = 0; e < shape.num_edges(); ++e) {
      htd::cq::Atom atom;
      atom.relation = "R" + std::to_string(e);
      for (int v : shape.edge_vertex_list(e)) {
        atom.variables.push_back("V" + std::to_string(v));
      }
      query.atoms.push_back(std::move(atom));
    }
    // Reference decomposition: the sequential solver, outside the server.
    htd::LogKDecomp solver;
    const htd::OptimalRun run =
        htd::FindOptimalWidth(solver, htd::cq::QueryHypergraph(query), 8);
    if (run.outcome != htd::Outcome::kYes) {
      return Status::Internal("query shape " + std::to_string(s) +
                              " has no reference decomposition");
    }
    shapes_.push_back(std::move(query));
    shape_decompositions_.push_back(*run.decomposition);
  }
  // Round-robin over the shapes: round 0 decomposes every shape cold, the
  // seven later rounds find each shape's k-sweep in the cache.
  for (int round = 0; round < kSendsPerShape; ++round) {
    for (int s = 0; s < kQueryShapes; ++s) {
      order_.push_back(static_cast<size_t>(s * kSendsPerShape + round));
    }
  }
  auto server = StartServer();
  if (!server.ok()) return server.status();
  server_ = std::move(*server);
  return Status::Ok();
}

Status QueriesWorkload::PreparePass() {
  requests_.clear();
  parsed_.clear();
  for (int s = 0; s < kQueryShapes; ++s) {
    for (int d = 0; d < kSendsPerShape; ++d) {
      const htd::cq::Database db =
          htd::cq::RandomDatabase(db_rng_, shapes_[s], 20, 100, 0.5);
      auto text = htd::qa::RenderQueryRequest(shapes_[s], db);
      if (!text.ok()) return text.status();
      // The reference counts what the server will see: the parsed request.
      auto parsed = htd::qa::ParseQueryRequest(*text);
      if (!parsed.ok()) return parsed.status();
      auto count = htd::cq::CountSolutions(parsed->query, parsed->db,
                                           shape_decompositions_[s]);
      if (!count.ok()) return count.status();
      if (count->saturated) {
        return Status::Internal("reference count saturated for shape " +
                                std::to_string(s));
      }
      WireRequest request;
      request.target = kQueryTarget;
      request.body = std::move(*text);
      request.expected_count = count->value;
      requests_.push_back(std::move(request));
      parsed_.push_back(std::move(*parsed));
    }
  }
  return Status::Ok();
}

Verdict QueriesWorkload::Check(const WireRequest& request, const Reply& reply,
                               LoadResult& load) {
  const Verdict verdict = CheckQuery(reply, request.expected_count);
  if (auto body = ParseQueryBody(reply.body)) {
    load.qa_decompose_ms.push_back(body->decompose_seconds * 1e3);
    load.qa_pick_us.push_back(body->pick_seconds * 1e6);
    load.qa_execute_ms.push_back(body->execute_seconds * 1e3);
    load.qa_probes.push_back(body->probes);
  }
  return verdict;
}

std::vector<Metric> QueriesWorkload::Replay(SpanRecorder& spans) {
  for (size_t index : order_) {
    const WireRequest& wire = requests_[index];
    const std::string bytes = PostRequestBytes(kHost, wire.target, wire.body);
    const uint64_t root = spans.Begin("replay.request", 0);
    htd::net::HttpRequest request = spans.Time("net.http_parse", root, [&] {
      htd::net::HttpRequestParser parser;
      parser.Consume(bytes);
      return parser.TakeRequest();
    });
    auto parsed = spans.Time("qa.wire_parse", root, [&] {
      return htd::qa::ParseQueryRequest(request.body);
    });
    const htd::Hypergraph graph = htd::cq::QueryHypergraph(parsed->query);
    spans.Time("service.fingerprint", root,
               [&] { return htd::service::CanonicalFingerprint(graph); });
    spans.Time("cq.count", root, [&] {
      return htd::cq::CountSolutions(
          parsed_[index].query, parsed_[index].db,
          shape_decompositions_[index / kSendsPerShape]);
    });
    spans.End(root);
  }
  std::vector<Metric> out;
  DurationsMedian(spans, "net.http_parse", 1.0, "net.http_parse_us", "us", out);
  DurationsMedian(spans, "qa.wire_parse", 1.0, "qa.wire_parse_us", "us", out);
  DurationsMedian(spans, "service.fingerprint", 1.0, "service.fingerprint_us",
                  "us", out);
  DurationsMedian(spans, "cq.count", 1e-3, "cq.count_ms", "ms", out);
  // This workload's requests reach the solver (each shape's cold k-sweep),
  // so its traced run also reads the core layer, on the paper's own inputs:
  // the HyperBench-like corpus submitted directly.
  auto corpus = CorpusRequests();
  if (corpus.ok()) {
    for (Metric& metric : SolveCorpusDirectly(*corpus, spans)) {
      out.push_back(std::move(metric));
    }
  }
  return out;
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {
      "warm_hits", "cold_solves", "prepared_queries", "routed_hits", "renamed_hits"};
  return names;
}

std::unique_ptr<Workload> MakeWorkload(const std::string& name, uint64_t seed) {
  if (name == "warm_hits") return std::make_unique<HitsWorkload>(seed, false, false);
  if (name == "renamed_hits") return std::make_unique<HitsWorkload>(seed, false, true);
  if (name == "routed_hits") return std::make_unique<HitsWorkload>(seed, true, false);
  if (name == "cold_solves") return std::make_unique<ColdWorkload>(seed);
  if (name == "prepared_queries") return std::make_unique<QueriesWorkload>(seed);
  return nullptr;
}

}  // namespace hdbench
