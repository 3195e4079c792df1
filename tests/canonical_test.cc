// Canonical-form invariance: renaming vertices, permuting edges, and
// reordering vertices inside edges must not change the fingerprint, while
// structurally different hypergraphs must separate.
#include "service/canonical.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "decomp/extended_subhypergraph.h"
#include "decomp/special_edges.h"
#include "hypergraph/generators.h"
#include "hypergraph/hypergraph.h"
#include "hypergraph/parser.h"
#include "hypergraph/writer.h"
#include "util/hash.h"
#include "util/rng.h"

namespace htd::service {
namespace {

// Builds a hypergraph from named edge lists, adding vertices in first-use
// order — so permuting the edge list also permutes the vertex numbering.
Hypergraph FromEdges(const std::vector<std::vector<std::string>>& edges) {
  Hypergraph graph;
  for (const auto& edge : edges) {
    std::vector<int> ids;
    for (const auto& name : edge) ids.push_back(graph.GetOrAddVertex(name));
    auto added = graph.AddEdge(ids);
    EXPECT_TRUE(added.ok());
  }
  return graph;
}

// Rebuilds `graph` with vertices renamed via `rename`, edges visited in
// `edge_order`, and each edge's vertex list rotated.
Hypergraph Scramble(const Hypergraph& graph,
                    const std::vector<std::string>& rename,
                    const std::vector<int>& edge_order) {
  Hypergraph out;
  for (int e : edge_order) {
    std::vector<int> members = graph.edge_vertex_list(e);
    std::rotate(members.begin(), members.begin() + members.size() / 2,
                members.end());
    std::vector<int> ids;
    for (int v : members) ids.push_back(out.GetOrAddVertex(rename[v]));
    auto added = out.AddEdge(ids);
    EXPECT_TRUE(added.ok());
  }
  return out;
}

std::vector<std::string> ShuffledNames(int n, uint64_t seed) {
  std::vector<std::string> names;
  names.reserve(n);
  for (int i = 0; i < n; ++i) names.push_back("w" + std::to_string(i));
  util::Rng rng(seed);
  for (int i = n - 1; i > 0; --i) {
    std::swap(names[i], names[rng.UniformInt(0, i)]);
  }
  return names;
}

std::vector<int> ShuffledOrder(int m, uint64_t seed) {
  std::vector<int> order(m);
  for (int i = 0; i < m; ++i) order[i] = i;
  util::Rng rng(seed);
  for (int i = m - 1; i > 0; --i) {
    std::swap(order[i], order[rng.UniformInt(0, i)]);
  }
  return order;
}

TEST(CanonicalTest, FingerprintIsDeterministic) {
  Hypergraph a = MakeCycle(10);
  Hypergraph b = MakeCycle(10);
  EXPECT_EQ(CanonicalFingerprint(a), CanonicalFingerprint(b));
  EXPECT_EQ(CanonicalString(ComputeCanonicalForm(a)),
            CanonicalString(ComputeCanonicalForm(b)));
}

TEST(CanonicalTest, InvariantUnderVertexRenaming) {
  Hypergraph graph = FromEdges({{"a", "b", "c"}, {"c", "d"}, {"d", "e", "a"}});
  std::vector<int> identity = {0, 1, 2};
  for (uint64_t seed : {1u, 2u, 3u, 4u}) {
    Hypergraph renamed =
        Scramble(graph, ShuffledNames(graph.num_vertices(), seed), identity);
    EXPECT_EQ(CanonicalFingerprint(graph), CanonicalFingerprint(renamed))
        << "seed " << seed;
  }
}

TEST(CanonicalTest, InvariantUnderEdgePermutation) {
  Hypergraph graph = MakeGrid(3, 4);
  std::vector<std::string> identity;
  for (int v = 0; v < graph.num_vertices(); ++v) {
    identity.push_back(graph.vertex_name(v));
  }
  for (uint64_t seed : {5u, 6u, 7u}) {
    Hypergraph permuted =
        Scramble(graph, identity, ShuffledOrder(graph.num_edges(), seed));
    EXPECT_EQ(CanonicalFingerprint(graph), CanonicalFingerprint(permuted))
        << "seed " << seed;
  }
}

TEST(CanonicalTest, InvariantUnderFullScramble) {
  util::Rng rng(20220612);
  for (int trial = 0; trial < 10; ++trial) {
    Hypergraph graph = MakeRandomCq(rng, 12, 4, 0.3);
    Hypergraph scrambled = Scramble(
        graph, ShuffledNames(graph.num_vertices(), 100 + trial),
        ShuffledOrder(graph.num_edges(), 200 + trial));
    EXPECT_EQ(CanonicalFingerprint(graph), CanonicalFingerprint(scrambled))
        << "trial " << trial;
    EXPECT_EQ(CanonicalString(ComputeCanonicalForm(graph)),
              CanonicalString(ComputeCanonicalForm(scrambled)))
        << "trial " << trial;
  }
}

TEST(CanonicalTest, SymmetricGraphsScrambleToSameForm) {
  // Every vertex of a cycle is automorphic; individualisation must produce
  // the same form no matter which representative the scramble promotes.
  Hypergraph cycle = MakeCycle(12);
  Hypergraph scrambled = Scramble(cycle, ShuffledNames(12, 99),
                                  ShuffledOrder(cycle.num_edges(), 77));
  EXPECT_EQ(CanonicalString(ComputeCanonicalForm(cycle)),
            CanonicalString(ComputeCanonicalForm(scrambled)));
}

TEST(CanonicalTest, SeparatesDifferentStructures) {
  std::vector<Fingerprint> prints = {
      CanonicalFingerprint(MakePath(8)),    CanonicalFingerprint(MakeCycle(8)),
      CanonicalFingerprint(MakeCycle(9)),   CanonicalFingerprint(MakeStar(8)),
      CanonicalFingerprint(MakeGrid(2, 4)), CanonicalFingerprint(MakeClique(5)),
  };
  for (size_t i = 0; i < prints.size(); ++i) {
    for (size_t j = i + 1; j < prints.size(); ++j) {
      EXPECT_NE(prints[i], prints[j]) << i << " vs " << j;
    }
  }
}

TEST(CanonicalTest, DuplicateEdgeChangesForm) {
  Hypergraph once = FromEdges({{"a", "b"}, {"b", "c"}});
  Hypergraph twice = FromEdges({{"a", "b"}, {"b", "c"}, {"b", "c"}});
  EXPECT_NE(CanonicalFingerprint(once), CanonicalFingerprint(twice));
  EXPECT_EQ(ComputeCanonicalForm(twice).num_edges, 3);
}

TEST(CanonicalTest, CanonicalFormShape) {
  CanonicalForm form = ComputeCanonicalForm(MakeCycle(5));
  EXPECT_EQ(form.num_vertices, 5);
  EXPECT_EQ(form.num_edges, 5);
  ASSERT_EQ(form.edges.size(), 5u);
  EXPECT_TRUE(std::is_sorted(form.edges.begin(), form.edges.end()));
  for (const auto& edge : form.edges) {
    EXPECT_TRUE(std::is_sorted(edge.begin(), edge.end()));
    for (int v : edge) {
      EXPECT_GE(v, 0);
      EXPECT_LT(v, 5);
    }
  }
}

TEST(CanonicalTest, HexRendering) {
  Fingerprint fp{0x0123456789abcdefULL, 0xfedcba9876543210ULL};
  EXPECT_EQ(fp.ToHex(), "0123456789abcdeffedcba9876543210");
  EXPECT_EQ(CanonicalFingerprint(MakeCycle(4)).ToHex().size(), 32u);
}


// Golden values. Fingerprints are a persistent format: result-cache
// snapshots, anti-entropy digests and shard ranges are keyed by them, so a
// change to the refinement that moves any of these values is a cache-format
// break, not a refactor. The constants were recorded from the original
// implementation; a rewrite must reproduce them bit for bit.
TEST(CanonicalGoldenTest, FingerprintsOfFixedFamilies) {
  EXPECT_EQ(CanonicalFingerprint(MakeCycle(8)).ToHex(), "e59b37c525b394c4bdb7ff2595fdf21a");
  EXPECT_EQ(CanonicalFingerprint(MakeGrid(3, 3)).ToHex(), "3893a55d6cac9d09b697156a4a2187c9");
  EXPECT_EQ(CanonicalFingerprint(MakeClique(5)).ToHex(), "a47c32940c31a29c285ec60e6eec4456");
}

TEST(CanonicalGoldenTest, DigestOfTheCacheHitCatalogue) {
  // The first 16 instances of the hdbench warm_hits catalogue, drawn as it
  // draws them and round-tripped through the HyperBench text the server
  // parses, so vertex numbering (and hence every tie-break) matches a
  // server-side fingerprint.
  util::Rng rng(20220612);
  uint64_t digest = 0;
  for (int i = 0; i < 16; ++i) {
    util::Rng child = rng.Fork();
    const int atoms = child.UniformInt(8, 40);
    auto graph = ParseAuto(WriteHyperBench(MakeRandomCq(child, atoms, 4, 0.25)));
    ASSERT_TRUE(graph.ok());
    const Fingerprint fp = CanonicalFingerprint(*graph);
    digest = util::HashCombine(util::HashCombine(digest, fp.hi), fp.lo);
  }
  EXPECT_EQ(digest, 0x387b80730edb63dfULL);
}

TEST(CanonicalGoldenTest, SubhypergraphFingerprintAndPermutation) {
  // A 3x4 grid restricted to ten of its edges, plus one special edge and a
  // two-vertex connector: exercises both seed labels and individualisation.
  Hypergraph grid = MakeGrid(3, 4);
  SpecialEdgeRegistry registry(grid.num_vertices());
  const int special = registry.Add(
      util::DynamicBitset::FromIndices(grid.num_vertices(), {0, 5, 10}), {0, 1});
  ExtendedSubhypergraph comp;
  comp.edges = util::DynamicBitset(grid.num_edges());
  for (int e = 0; e < 10; ++e) comp.edges.Set(e);
  comp.edge_count = 10;
  comp.specials = {special};
  const util::DynamicBitset conn =
      util::DynamicBitset::FromIndices(grid.num_vertices(), {1, 6});

  SubproblemCanonicalForm form =
      FingerprintSubhypergraph(grid, registry, comp, conn);
  EXPECT_EQ(form.fingerprint.ToHex(), "e1a62d218347afdc7979f728a456f514");
  std::string permutation;
  for (int v : form.canonical_vertices) permutation += std::to_string(v) + " ";
  EXPECT_EQ(permutation, "6 7 1 10 5 0 3 4 2 8 ");
}

}  // namespace
}  // namespace htd::service
