// Microbenchmarks of the solver kernels (google-benchmark):
//  * [U]-component splitting — the hot path of every solver,
//  * separator candidate enumeration,
//  * bitset algebra,
//  * end-to-end Algorithm 1 vs Algorithm 2 on the paper's cycle example —
//    the ablation for the Appendix C optimisations,
//  * det-k vs log-k on a mid-size CSP,
//  * canonical fingerprinting — whole instances (every cache hit pays it)
//    and subproblems (every subproblem-store probe pays it).
#include <benchmark/benchmark.h>

#include <deque>
#include <vector>

#include "baselines/det_k_decomp.h"
#include "core/log_k_decomp.h"
#include "core/log_k_decomp_basic.h"
#include "core/negative_cache.h"
#include "decomp/normal_form.h"
#include "fractional/cover.h"
#include "prep/preprocess.h"
#include "decomp/components.h"
#include "hypergraph/generators.h"
#include "hypergraph/parser.h"
#include "hypergraph/writer.h"
#include "service/canonical.h"
#include "util/combinations.h"
#include "util/rng.h"

namespace htd {
namespace {

void BM_SplitComponentsCycle(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Hypergraph graph = MakeCycle(n);
  SpecialEdgeRegistry registry(graph.num_vertices());
  ExtendedSubhypergraph full = ExtendedSubhypergraph::FullGraph(graph);
  util::DynamicBitset separator =
      graph.edge_vertices(0) | graph.edge_vertices(n / 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(SplitComponents(graph, registry, full, separator));
  }
}
BENCHMARK(BM_SplitComponentsCycle)->Arg(32)->Arg(128)->Arg(512);

void BM_SplitComponentsCsp(benchmark::State& state) {
  util::Rng rng(1);
  Hypergraph graph = MakeRandomCsp(rng, 120, static_cast<int>(state.range(0)), 2, 5);
  SpecialEdgeRegistry registry(graph.num_vertices());
  ExtendedSubhypergraph full = ExtendedSubhypergraph::FullGraph(graph);
  util::DynamicBitset separator = graph.edge_vertices(0) | graph.edge_vertices(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(SplitComponents(graph, registry, full, separator));
  }
}
BENCHMARK(BM_SplitComponentsCsp)->Arg(40)->Arg(80);

void BM_SubsetEnumeration(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    long count = 0;
    for (const util::SubsetChunk& chunk : util::MakeSubsetChunks(n, 3, n)) {
      util::FixedFirstEnumerator en(n, chunk.size, chunk.first);
      while (en.Next()) ++count;
    }
    benchmark::DoNotOptimize(count);
  }
}
BENCHMARK(BM_SubsetEnumeration)->Arg(16)->Arg(32);

void BM_BitsetUnion(benchmark::State& state) {
  const int bits = static_cast<int>(state.range(0));
  util::Rng rng(2);
  util::DynamicBitset a(bits), b(bits);
  for (int i = 0; i < bits / 3; ++i) {
    a.Set(rng.UniformInt(0, bits - 1));
    b.Set(rng.UniformInt(0, bits - 1));
  }
  for (auto _ : state) {
    util::DynamicBitset c = a;
    c.InplaceOr(b);
    benchmark::DoNotOptimize(c.Count());
  }
}
BENCHMARK(BM_BitsetUnion)->Arg(256)->Arg(4096);

// Ablation: the paper's basic Algorithm 1 vs the optimised Algorithm 2 on
// the Appendix B cycle family. Algorithm 2's child-first search and allowed
// edge restrictions cut the explored candidate space by orders of magnitude.
void BM_Algorithm1Cycle(benchmark::State& state) {
  Hypergraph graph = MakeCycle(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    LogKDecompBasic solver;
    benchmark::DoNotOptimize(solver.Solve(graph, 2).outcome);
  }
}
BENCHMARK(BM_Algorithm1Cycle)->Arg(6)->Arg(8);

void BM_Algorithm2Cycle(benchmark::State& state) {
  Hypergraph graph = MakeCycle(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    LogKDecomp solver;
    benchmark::DoNotOptimize(solver.Solve(graph, 2).outcome);
  }
}
BENCHMARK(BM_Algorithm2Cycle)->Arg(6)->Arg(8)->Arg(16)->Arg(32);

void BM_DetKCsp(benchmark::State& state) {
  util::Rng rng(7);
  Hypergraph graph = MakeRandomCsp(rng, 30, static_cast<int>(state.range(0)), 2, 4);
  for (auto _ : state) {
    DetKDecomp solver;
    benchmark::DoNotOptimize(solver.Solve(graph, 3).outcome);
  }
}
BENCHMARK(BM_DetKCsp)->Arg(12)->Arg(18);

void BM_LogKCsp(benchmark::State& state) {
  util::Rng rng(7);
  Hypergraph graph = MakeRandomCsp(rng, 30, static_cast<int>(state.range(0)), 2, 4);
  for (auto _ : state) {
    LogKDecomp solver;
    benchmark::DoNotOptimize(solver.Solve(graph, 3).outcome);
  }
}
BENCHMARK(BM_LogKCsp)->Arg(12)->Arg(18);

void BM_FractionalCoverClique(benchmark::State& state) {
  // The simplex kernel: rho*(V(K_n)) solves an LP with n rows and C(n,2)
  // columns; FHD feasibility checks are exactly this shape.
  Hypergraph clique = MakeClique(static_cast<int>(state.range(0)));
  util::DynamicBitset all = clique.AllVertices();
  for (auto _ : state) {
    benchmark::DoNotOptimize(fractional::FractionalCoverWeight(clique, all));
  }
}
BENCHMARK(BM_FractionalCoverClique)->Arg(6)->Arg(10)->Arg(14);

void BM_PreprocessRedundantCsp(benchmark::State& state) {
  // The reduction fixpoint on a redundancy-heavy instance.
  util::Rng rng(11);
  Hypergraph base = MakeRandomCsp(rng, 60, static_cast<int>(state.range(0)), 3, 5);
  Hypergraph messy = AddRedundancy(base, rng, base.num_edges() / 2, 8);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Preprocess(messy).ReducedEdgeCount());
  }
}
BENCHMARK(BM_PreprocessRedundantCsp)->Arg(30)->Arg(60);

void BM_NormalizeHd(benchmark::State& state) {
  // Theorem 3.6 as a kernel: label-restricted reconstruction of a cycle HD.
  Hypergraph cycle = MakeCycle(static_cast<int>(state.range(0)));
  LogKDecomp solver;
  SolveResult result = solver.Solve(cycle, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(NormalizeHd(cycle, *result.decomposition).ok());
  }
}
BENCHMARK(BM_NormalizeHd)->Arg(8)->Arg(16)->Arg(32);

void BM_NegativeCacheLookup(benchmark::State& state) {
  // Cache probe cost (mutex + hash + subset checks) at a given fill level.
  const int entries = static_cast<int>(state.range(0));
  util::Rng rng(13);
  NegativeCache cache;
  ExtendedSubhypergraph comp;
  comp.edges = util::DynamicBitset(256);
  util::DynamicBitset conn(128);
  for (int i = 0; i < entries; ++i) {
    ExtendedSubhypergraph key;
    key.edges = util::DynamicBitset(256);
    for (int j = 0; j < 12; ++j) key.edges.Set(rng.UniformInt(0, 255));
    key.edge_count = key.edges.Count();
    cache.Insert(key, conn, key.edges);
  }
  comp.edges.Set(0);
  comp.edge_count = 1;
  util::DynamicBitset allowed(256);
  allowed.Set(0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.ContainsDominating(comp, conn, allowed));
  }
}
BENCHMARK(BM_NegativeCacheLookup)->Arg(64)->Arg(4096);

void BM_CachedVsPlainRefutation(benchmark::State& state) {
  // End-to-end ablation row: K5 at k = 2 with and without the cache.
  Hypergraph clique = MakeClique(5);
  const bool cached = state.range(0) != 0;
  for (auto _ : state) {
    SolveOptions options;
    options.enable_cache = cached;
    LogKDecomp solver(options);
    benchmark::DoNotOptimize(solver.Solve(clique, 2).outcome);
  }
}
BENCHMARK(BM_CachedVsPlainRefutation)->Arg(0)->Arg(1);

// The hdbench warm_hits catalogue: 64 random CQs of 8-40 atoms, arity <= 4,
// round-tripped through the HyperBench text the server parses.
std::vector<Hypergraph> CacheHitCatalogue() {
  std::vector<Hypergraph> graphs;
  util::Rng rng(20220612);
  for (int i = 0; i < 64; ++i) {
    util::Rng child = rng.Fork();
    const int atoms = child.UniformInt(8, 40);
    graphs.push_back(
        *ParseAuto(WriteHyperBench(MakeRandomCq(child, atoms, 4, 0.25))));
  }
  return graphs;
}

void BM_CanonicalFingerprint(benchmark::State& state) {
  // One cache hit's fingerprint stage; cycles through the catalogue.
  const std::vector<Hypergraph> graphs = CacheHitCatalogue();
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(service::CanonicalFingerprint(graphs[i]));
    i = (i + 1) % graphs.size();
  }
}
BENCHMARK(BM_CanonicalFingerprint);

void BM_FingerprintSubhypergraph(benchmark::State& state) {
  // One subproblem-store probe per catalogue instance: every other edge,
  // one special edge over three vertices, a two-vertex connector.
  struct Probe {
    explicit Probe(Hypergraph g)
        : graph(std::move(g)),
          registry(graph.num_vertices()),
          conn(graph.num_vertices()) {
      const int n = graph.num_vertices();
      comp.edges = util::DynamicBitset(graph.num_edges());
      for (int e = 0; e < graph.num_edges(); e += 2) comp.edges.Set(e);
      comp.edge_count = comp.edges.Count();
      util::DynamicBitset special(n);
      for (int e = 1; e < graph.num_edges() && special.Count() < 3; e += 2) {
        special.Set(graph.edge_vertex_list(e).front());
      }
      comp.specials = {registry.Add(special, {1})};
      for (int v : graph.edge_vertex_list(0)) {
        if (conn.Count() < 2) conn.Set(v);
      }
    }
    Hypergraph graph;
    SpecialEdgeRegistry registry;  // holds a mutex: Probe stays in place
    ExtendedSubhypergraph comp;
    util::DynamicBitset conn;
  };
  std::deque<Probe> probes;
  for (Hypergraph& graph : CacheHitCatalogue()) probes.emplace_back(std::move(graph));
  size_t i = 0;
  for (auto _ : state) {
    const Probe& probe = probes[i];
    benchmark::DoNotOptimize(service::FingerprintSubhypergraph(
        probe.graph, probe.registry, probe.comp, probe.conn));
    i = (i + 1) % probes.size();
  }
}
BENCHMARK(BM_FingerprintSubhypergraph);

}  // namespace
}  // namespace htd

BENCHMARK_MAIN();
