#include "service/canonical.h"

#include <algorithm>
#include <cstdio>
#include <functional>
#include <utility>

#include "util/hash.h"
#include "util/logging.h"

namespace htd::service {

namespace {

using util::HashCombine;

/// Flat (CSR) incidence structure, both directions: edge e's members are
/// edge_members[edge_start[e] .. edge_start[e + 1]), vertex v's incident
/// edges are vertex_edges[vertex_start[v] .. vertex_start[v + 1]). Built once
/// per canonicalisation; every refinement round reads only these arrays.
struct Incidence {
  std::vector<int> edge_start{0};
  std::vector<int> edge_members;
  std::vector<int> vertex_start;
  std::vector<int> vertex_edges;

  int num_edges() const { return static_cast<int>(edge_start.size()) - 1; }
  int num_vertices() const { return static_cast<int>(vertex_start.size()) - 1; }
  int edge_size(int e) const { return edge_start[e + 1] - edge_start[e]; }
  int degree(int v) const { return vertex_start[v + 1] - vertex_start[v]; }

  /// Closes the edge being appended to edge_members.
  void EndEdge() { edge_start.push_back(static_cast<int>(edge_members.size())); }

  /// Derives the vertex → edges side from the edge side (counting sort, so
  /// each vertex lists its edges in ascending order).
  void BuildVertexSide(int n) {
    vertex_start.assign(n + 1, 0);
    for (int v : edge_members) ++vertex_start[v + 1];
    for (int v = 0; v < n; ++v) vertex_start[v + 1] += vertex_start[v];
    vertex_edges.resize(edge_members.size());
    std::vector<int> cursor(vertex_start.begin(), vertex_start.end() - 1);
    for (int e = 0; e < num_edges(); ++e) {
      for (int i = edge_start[e]; i < edge_start[e + 1]; ++i) {
        vertex_edges[cursor[edge_members[i]]++] = e;
      }
    }
  }
};

Incidence IncidenceOf(const Hypergraph& graph) {
  Incidence inc;
  inc.edge_start.reserve(graph.num_edges() + 1);
  for (int e = 0; e < graph.num_edges(); ++e) {
    const std::vector<int>& members = graph.edge_vertex_list(e);
    inc.edge_members.insert(inc.edge_members.end(), members.begin(), members.end());
    inc.EndEdge();
  }
  inc.BuildVertexSide(graph.num_vertices());
  return inc;
}

/// Colour refinement to a discrete vertex partition over one Incidence. All
/// working memory lives here and is reused by every round of every
/// refinement, so a canonicalisation allocates a fixed handful of buffers
/// however many rounds and individualisations it needs. One instance per
/// call: nothing survives between canonicalisations.
class Refiner {
 public:
  Refiner(const Incidence& inc, std::vector<uint64_t> vseed,
          std::vector<uint64_t> eseed)
      : inc_(inc), vcolor_(std::move(vseed)), ecolor_(std::move(eseed)) {
    order_.reserve(std::max(vcolor_.size(), ecolor_.size()));
  }

  /// Refines from the seed colours, then individualises until the vertex
  /// partition is discrete. The returned vector is the canonical vertex id
  /// of each vertex. The member choice inside a tied class (lowest original
  /// id) only matters for classes whose members are not automorphic; see
  /// the header caveat.
  std::vector<int> DiscreteVertexIds() {
    const int n = inc_.num_vertices();
    num_vertex_classes_ = Compress(vcolor_);
    num_edge_classes_ = Compress(ecolor_);
    Refine();
    std::vector<int> class_size;
    while (num_vertex_classes_ < n) {
      class_size.assign(num_vertex_classes_, 0);
      for (int v = 0; v < n; ++v) class_size[vcolor_[v]]++;
      int target_class = -1;
      for (int c = 0; c < num_vertex_classes_; ++c) {
        if (class_size[c] > 1) {
          target_class = c;
          break;
        }
      }
      HTD_CHECK(target_class >= 0);
      int chosen = -1;
      for (int v = 0; v < n; ++v) {
        if (static_cast<int>(vcolor_[v]) == target_class) {
          chosen = v;
          break;
        }
      }
      // Both colourings are dense ranks and the new colour is the next
      // unused rank, so they are already compressed: refinement resumes
      // directly.
      vcolor_[chosen] = static_cast<uint64_t>(num_vertex_classes_++);
      Refine();
    }
    return std::vector<int>(vcolor_.begin(), vcolor_.end());
  }

 private:
  /// Replaces arbitrary 64-bit colour hashes by dense ranks in
  /// [0, #distinct). Ranking by sorted hash value keeps the mapping
  /// independent of vertex and edge numbering, which is what makes each
  /// refinement round invariant.
  int Compress(std::vector<uint64_t>& colors) {
    order_.clear();
    for (size_t i = 0; i < colors.size(); ++i) {
      order_.emplace_back(colors[i], static_cast<int>(i));
    }
    SortSmall(order_.data(), order_.data() + order_.size(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    uint64_t rank = 0;
    for (size_t i = 0; i < order_.size(); ++i) {
      if (i > 0 && order_[i].first != order_[i - 1].first) ++rank;
      colors[order_[i].second] = rank;
    }
    return order_.empty() ? 0 : static_cast<int>(rank) + 1;
  }

  /// One-sided update: recolours each element of `out` in place from its own
  /// colour plus the sorted multiset of its neighbours' colours in `other`
  /// (edge ➞ member vertices, vertex ➞ incident edges), then compresses.
  /// In place is safe: element i's hash reads only out[i] of its own side.
  int RecolorSide(std::vector<uint64_t>& out, const std::vector<uint64_t>& other,
                  const std::vector<int>& start, const std::vector<int>& neighbors,
                  uint64_t side_seed) {
    for (size_t i = 0; i < out.size(); ++i) {
      adj_.clear();
      for (int j = start[i]; j < start[i + 1]; ++j) adj_.push_back(other[neighbors[j]]);
      SortSmall(adj_.data(), adj_.data() + adj_.size(), std::less<uint64_t>());
      uint64_t h = HashCombine(side_seed, out[i]);
      for (uint64_t c : adj_) h = HashCombine(h, c);
      out[i] = HashCombine(h, adj_.size());
    }
    return Compress(out);
  }

  /// Insertion sort up to a few dozen elements — edge sizes, vertex degrees
  /// and (hash, index) runs of query-sized instances — where it beats
  /// std::sort's introsort; std::sort above that. Only the order of keys is
  /// used, never the order among equal keys, so the choice of algorithm
  /// cannot change a colour.
  template <typename T, typename Less>
  static void SortSmall(T* first, T* last, Less less) {
    if (last - first > 64) {
      std::sort(first, last, less);
      return;
    }
    for (T* it = first + 1; it < last; ++it) {
      const T value = *it;
      T* hole = it;
      for (; hole > first && less(value, hole[-1]); --hole) *hole = hole[-1];
      *hole = value;
    }
  }

  /// Runs colour refinement from the current (dense) colours to a fixed
  /// point. Colours are invariant under any renaming of vertices or
  /// reordering of edges.
  void Refine() {
    const int n = inc_.num_vertices();
    const int m = inc_.num_edges();
    // Each productive round strictly grows a class count; n + m bounds rounds.
    for (int round = 0; round < n + m + 1; ++round) {
      const int edge_classes = RecolorSide(ecolor_, vcolor_, inc_.edge_start,
                                           inc_.edge_members, /*side_seed=*/0xe5);
      const int vertex_classes = RecolorSide(vcolor_, ecolor_, inc_.vertex_start,
                                             inc_.vertex_edges, /*side_seed=*/0x5e);
      if (edge_classes == num_edge_classes_ &&
          vertex_classes == num_vertex_classes_) {
        break;
      }
      num_edge_classes_ = edge_classes;
      num_vertex_classes_ = vertex_classes;
    }
  }

  const Incidence& inc_;
  std::vector<uint64_t> vcolor_;  // dense vertex colours
  std::vector<uint64_t> ecolor_;  // dense edge colours
  int num_vertex_classes_ = 0;
  int num_edge_classes_ = 0;
  std::vector<uint64_t> adj_;                     // one element's neighbour colours
  std::vector<std::pair<uint64_t, int>> order_;  // (hash, index) for Compress
};

}  // namespace

std::string Fingerprint::ToHex() const {
  char buf[33];
  std::snprintf(buf, sizeof(buf), "%016llx%016llx",
                static_cast<unsigned long long>(hi),
                static_cast<unsigned long long>(lo));
  return std::string(buf);
}

bool Fingerprint::FromHex(std::string_view text, Fingerprint* out) {
  if (text.size() != 32) return false;
  uint64_t words[2] = {0, 0};
  for (int w = 0; w < 2; ++w) {
    for (int i = 0; i < 16; ++i) {
      char c = text[w * 16 + i];
      uint64_t digit;
      if (c >= '0' && c <= '9') {
        digit = static_cast<uint64_t>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        digit = static_cast<uint64_t>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        digit = static_cast<uint64_t>(c - 'A' + 10);
      } else {
        return false;
      }
      words[w] = (words[w] << 4) | digit;
    }
  }
  out->hi = words[0];
  out->lo = words[1];
  return true;
}

CanonicalForm ComputeCanonicalForm(const Hypergraph& graph) {
  const int n = graph.num_vertices();
  const int m = graph.num_edges();
  const Incidence inc = IncidenceOf(graph);

  // Seed colours: vertex degree / edge size (the degree/edge-size refinement).
  std::vector<uint64_t> vcolor(n), ecolor(m);
  for (int v = 0; v < n; ++v) {
    vcolor[v] = static_cast<uint64_t>(graph.edges_of_vertex(v).size());
  }
  for (int e = 0; e < m; ++e) {
    ecolor[e] = static_cast<uint64_t>(graph.edge_vertex_list(e).size());
  }
  // Individualisation makes the partition discrete: vcolor IS the canonical
  // vertex id.
  const std::vector<int> ids =
      Refiner(inc, std::move(vcolor), std::move(ecolor)).DiscreteVertexIds();

  CanonicalForm form;
  form.num_vertices = n;
  form.num_edges = m;
  form.edges.reserve(m);
  for (int e = 0; e < m; ++e) {
    std::vector<int> edge;
    edge.reserve(graph.edge_vertex_list(e).size());
    for (int v : graph.edge_vertex_list(e)) {
      edge.push_back(ids[v]);
    }
    std::sort(edge.begin(), edge.end());
    form.edges.push_back(std::move(edge));
  }
  std::sort(form.edges.begin(), form.edges.end());

  // Two independently seeded mixes over (n, m, canonical edges) = 128 bits.
  uint64_t h1 = 0x6c6f676b64656331ULL;  // "logkdec1"
  uint64_t h2 = 0x6c6f676b64656332ULL;  // "logkdec2"
  auto absorb = [&](uint64_t value) {
    h1 = HashCombine(h1, value);
    h2 = HashCombine(h2, ~value);
  };
  absorb(static_cast<uint64_t>(n));
  absorb(static_cast<uint64_t>(m));
  for (const auto& edge : form.edges) {
    absorb(edge.size());
    for (int v : edge) absorb(static_cast<uint64_t>(v));
  }
  form.fingerprint = Fingerprint{h1, h2};
  return form;
}

Fingerprint CanonicalFingerprint(const Hypergraph& graph) {
  return ComputeCanonicalForm(graph).fingerprint;
}

SubproblemCanonicalForm FingerprintSubhypergraph(const Hypergraph& graph,
                                                 const SpecialEdgeRegistry& registry,
                                                 const ExtendedSubhypergraph& comp,
                                                 const util::DynamicBitset& conn) {
  SubproblemCanonicalForm form;

  // Dense-renumber V(H') = (⋃E') ∪ (⋃Sp) into a local universe. The rank
  // array is filled with local ids first and rewritten to canonical ids
  // after refinement, so only one base-universe-sized array is built. Its
  // O(|V(H)|) zero-fill per probe is a deliberate trade-off: dense lookups
  // beat hashing at corpus scale (revisit for huge, sparse instances).
  const util::DynamicBitset base_vertices = VerticesOf(graph, registry, comp);
  form.base_vertex_rank.assign(graph.num_vertices(), -1);
  std::vector<int>& local_of_base = form.base_vertex_rank;
  std::vector<int> base_of_local;
  base_vertices.ForEach([&](int v) {
    local_of_base[v] = static_cast<int>(base_of_local.size());
    base_of_local.push_back(v);
  });
  const int n = static_cast<int>(base_of_local.size());
  form.num_vertices = n;

  // Build the local incidence structure: component edges first, then special
  // edges (a special edge is its interface vertex set). Member lists need no
  // deduplication: base edges are duplicate-free and special edges are
  // bitsets.
  Incidence local;
  std::vector<int> local_edge_source;  // local edge index → base edge / special id
  comp.edges.ForEach([&](int e) {
    for (int v : graph.edge_vertex_list(e)) local.edge_members.push_back(local_of_base[v]);
    local.EndEdge();
    local_edge_source.push_back(e);
  });
  const int num_component_edges = static_cast<int>(local_edge_source.size());
  for (int s : comp.specials) {
    registry.vertices(s).ForEach(
        [&](int v) { local.edge_members.push_back(local_of_base[v]); });
    local.EndEdge();
    local_edge_source.push_back(s);
  }
  local.BuildVertexSide(n);
  const int m = local.num_edges();

  // Seed colours: (degree, Conn-membership) per vertex, (size, is-special)
  // per edge. Connector vertices outside V(H') cannot occur in solver calls
  // but are ignored if present (the rank filter drops them).
  std::vector<uint64_t> vseed(n), eseed(m);
  for (int v = 0; v < n; ++v) {
    const bool in_conn = conn.Test(base_of_local[v]);
    vseed[v] = HashCombine(static_cast<uint64_t>(local.degree(v)),
                           in_conn ? 0xc0 : 0x0c);
  }
  for (int e = 0; e < m; ++e) {
    const bool is_special = e >= num_component_edges;
    eseed[e] = HashCombine(static_cast<uint64_t>(local.edge_size(e)),
                           is_special ? 0x5b : 0xb5);
  }
  const std::vector<int> ids =
      Refiner(local, std::move(vseed), std::move(eseed)).DiscreteVertexIds();

  // Rewrite the rank array in place: local ids become canonical ids.
  form.canonical_vertices.assign(n, -1);
  for (int v = 0; v < n; ++v) {
    form.canonical_vertices[ids[v]] = base_of_local[v];
    form.base_vertex_rank[base_of_local[v]] = ids[v];
  }

  // Canonical edge order: (label, canonical content) ascending. Ties are
  // content-identical edges of one label — interchangeable, so the original
  // index breaks them.
  struct EdgeRecord {
    int label;  // 0 = component edge, 1 = special edge
    std::vector<int> members;
    int local_index;
  };
  std::vector<EdgeRecord> records;
  records.reserve(m);
  for (int e = 0; e < m; ++e) {
    EdgeRecord record;
    record.label = e >= num_component_edges ? 1 : 0;
    for (int i = local.edge_start[e]; i < local.edge_start[e + 1]; ++i) {
      record.members.push_back(ids[local.edge_members[i]]);
    }
    std::sort(record.members.begin(), record.members.end());
    record.local_index = e;
    records.push_back(std::move(record));
  }
  std::sort(records.begin(), records.end(),
            [](const EdgeRecord& a, const EdgeRecord& b) {
              if (a.label != b.label) return a.label < b.label;
              if (a.members != b.members) return a.members < b.members;
              return a.local_index < b.local_index;
            });
  for (const EdgeRecord& record : records) {
    if (record.label == 1) {
      form.special_order.push_back(local_edge_source[record.local_index]);
    }
  }

  // Fingerprint: two independent mixes over (n, counts, canonical Conn,
  // labelled canonical edges). Conn is absorbed explicitly — the seed
  // colours influence canonical ids, but the edge lists alone need not pin
  // the connector down.
  uint64_t h1 = 0x73756270726f6231ULL;  // "subprob1"
  uint64_t h2 = 0x73756270726f6232ULL;  // "subprob2"
  auto absorb = [&](uint64_t value) {
    h1 = HashCombine(h1, value);
    h2 = HashCombine(h2, ~value);
  };
  absorb(static_cast<uint64_t>(n));
  absorb(static_cast<uint64_t>(num_component_edges));
  absorb(static_cast<uint64_t>(m - num_component_edges));
  std::vector<int> conn_ids;
  conn.ForEach([&](int v) {
    if (form.base_vertex_rank[v] >= 0) conn_ids.push_back(form.base_vertex_rank[v]);
  });
  std::sort(conn_ids.begin(), conn_ids.end());
  absorb(conn_ids.size());
  for (int c : conn_ids) absorb(static_cast<uint64_t>(c));
  for (const EdgeRecord& record : records) {
    absorb(static_cast<uint64_t>(record.label));
    absorb(record.members.size());
    for (int v : record.members) absorb(static_cast<uint64_t>(v));
  }
  form.fingerprint = Fingerprint{h1, h2};
  return form;
}

std::string CanonicalString(const CanonicalForm& form) {
  std::string out = std::to_string(form.num_vertices) + " " +
                    std::to_string(form.num_edges);
  for (const auto& edge : form.edges) {
    out += " |";
    for (int v : edge) {
      out += " " + std::to_string(v);
    }
  }
  return out;
}

}  // namespace htd::service
