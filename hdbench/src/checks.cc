#include "checks.h"

#include <algorithm>
#include <cstdlib>
#include <numeric>

#include "decomp/decomp_reader.h"
#include "decomp/validation.h"

namespace hdbench {

namespace {

/// Position just past `"key": ` in a flat JSON body, or npos. The bodies are
/// the server's own renderings (one space after each colon).
size_t ValueStart(std::string_view body, std::string_view key) {
  std::string needle = "\"";
  needle.append(key).append("\": ");
  const size_t at = body.find(needle);
  return at == std::string_view::npos ? at : at + needle.size();
}

std::optional<std::string> StringField(std::string_view body,
                                       std::string_view key) {
  size_t start = ValueStart(body, key);
  if (start == std::string_view::npos || start >= body.size() ||
      body[start] != '"') {
    return std::nullopt;
  }
  const size_t end = body.find('"', start + 1);
  if (end == std::string_view::npos) return std::nullopt;
  return std::string(body.substr(start + 1, end - start - 1));
}

std::optional<double> NumberField(std::string_view body, std::string_view key) {
  const size_t start = ValueStart(body, key);
  if (start == std::string_view::npos) return std::nullopt;
  const std::string digits(body.substr(start, 32));
  char* end = nullptr;
  const double value = std::strtod(digits.c_str(), &end);
  if (end == digits.c_str()) return std::nullopt;
  return value;
}

std::optional<bool> BoolField(std::string_view body, std::string_view key) {
  const size_t start = ValueStart(body, key);
  if (start == std::string_view::npos) return std::nullopt;
  if (body.substr(start, 4) == "true") return true;
  if (body.substr(start, 5) == "false") return false;
  return std::nullopt;
}

Verdict TransportVerdict(const Reply& reply) {
  if (!reply.transport_ok) return Verdict::kTransport;
  if (reply.status < 200 || reply.status >= 300) return Verdict::kHttpStatus;
  return Verdict::kOk;
}

}  // namespace

const char* VerdictName(Verdict verdict) {
  switch (verdict) {
    case Verdict::kOk: return "ok";
    case Verdict::kTransport: return "transport_error";
    case Verdict::kHttpStatus: return "non_2xx";
    case Verdict::kMissedDeadline: return "missed_deadline";
    case Verdict::kInvalidDecomposition: return "invalid_decomposition";
    case Verdict::kWrongOutcome: return "wrong_outcome";
    case Verdict::kWrongCount: return "wrong_count";
    case Verdict::kMalformed: return "malformed_body";
  }
  return "?";
}

void Tally::Record(Verdict verdict) {
  ++attempted;
  if (verdict != Verdict::kOk) {
    ++failed;
    ++failures[verdict];
  }
}

void Tally::Merge(const Tally& other) {
  attempted += other.attempted;
  failed += other.failed;
  for (const auto& [verdict, n] : other.failures) failures[verdict] += n;
}

std::optional<DecomposeBody> ParseDecomposeBody(std::string_view body) {
  auto outcome = StringField(body, "outcome");
  auto cache_hit = BoolField(body, "cache_hit");
  auto seconds = NumberField(body, "seconds");
  auto threads = NumberField(body, "threads_used");
  if (!outcome || !cache_hit || !seconds || !threads) return std::nullopt;
  DecomposeBody parsed;
  parsed.outcome = *outcome;
  parsed.cache_hit = *cache_hit;
  parsed.seconds = *seconds;
  parsed.threads_used = static_cast<int>(*threads);
  // "decomposition" is the last field: its object runs to the body's final
  // closing brace, exclusive.
  const size_t start = ValueStart(body, "decomposition");
  const size_t end = body.rfind('}');
  if (start != std::string_view::npos && end != std::string_view::npos &&
      end > start) {
    parsed.decomposition = body.substr(start, end - start);
  }
  return parsed;
}

Verdict CheckDecompose(const Reply& reply, const htd::Hypergraph& graph, int k,
                       std::optional<bool> expected_yes,
                       std::optional<int> known_width) {
  if (Verdict v = TransportVerdict(reply); v != Verdict::kOk) return v;
  auto body = ParseDecomposeBody(reply.body);
  if (!body) return Verdict::kMalformed;
  if (body->outcome == "cancelled") return Verdict::kMissedDeadline;
  const bool yes = body->outcome == "yes";
  if (!yes && body->outcome != "no") return Verdict::kWrongOutcome;
  if (expected_yes.has_value() && *expected_yes != yes) {
    return Verdict::kWrongOutcome;
  }
  if (!yes) {
    return known_width.has_value() && k >= *known_width ? Verdict::kWrongOutcome
                                                        : Verdict::kOk;
  }
  if (body->decomposition.empty()) return Verdict::kMalformed;
  auto decomposition = htd::ParseDecompositionJson(graph, body->decomposition);
  if (!decomposition.ok()) return Verdict::kInvalidDecomposition;
  if (!htd::ValidateHdWithWidth(graph, *decomposition, k)) {
    return Verdict::kInvalidDecomposition;
  }
  return Verdict::kOk;
}

std::optional<QueryBody> ParseQueryBody(std::string_view body) {
  auto outcome = StringField(body, "outcome");
  auto probes = NumberField(body, "probes");
  auto cache_hit = BoolField(body, "cache_hit");
  auto decompose = NumberField(body, "decompose_seconds");
  auto pick = NumberField(body, "pick_seconds");
  auto execute = NumberField(body, "execute_seconds");
  if (!outcome || !probes || !cache_hit || !decompose || !pick || !execute) {
    return std::nullopt;
  }
  QueryBody parsed;
  parsed.outcome = *outcome;
  parsed.probes = static_cast<int>(*probes);
  parsed.cache_hit = *cache_hit;
  parsed.decompose_seconds = *decompose;
  parsed.pick_seconds = *pick;
  parsed.execute_seconds = *execute;
  const size_t count_at = ValueStart(body, "count");
  if (count_at != std::string_view::npos) {
    const std::string digits(body.substr(count_at, 24));
    char* end = nullptr;
    parsed.count = std::strtoull(digits.c_str(), &end, 10);
    parsed.counted = end != digits.c_str();
  }
  return parsed;
}

Verdict CheckQuery(const Reply& reply, unsigned long long expected_count) {
  if (Verdict v = TransportVerdict(reply); v != Verdict::kOk) return v;
  auto body = ParseQueryBody(reply.body);
  if (!body) return Verdict::kMalformed;
  if (body->outcome == "deadline") return Verdict::kMissedDeadline;
  if (!body->counted) return Verdict::kMalformed;
  if (body->count != expected_count) return Verdict::kWrongCount;
  const bool satisfiable = body->outcome == "satisfiable";
  if (satisfiable != (expected_count > 0) ||
      (!satisfiable && body->outcome != "unsatisfiable")) {
    return Verdict::kWrongOutcome;
  }
  return Verdict::kOk;
}

Renaming RenameInstance(const htd::Hypergraph& source, htd::util::Rng& rng,
                        int tag) {
  Renaming renaming;
  std::string prefix = "n";
  prefix.append(std::to_string(tag)).append("_");
  std::vector<int> vertex_ids(source.num_vertices());
  std::iota(vertex_ids.begin(), vertex_ids.end(), 0);
  rng.Shuffle(vertex_ids);
  renaming.vertex_names.resize(source.num_vertices());
  for (int v = 0; v < source.num_vertices(); ++v) {
    renaming.vertex_names[v] = prefix + "x" + std::to_string(vertex_ids[v]);
  }
  std::vector<int> edge_order(source.num_edges());
  std::iota(edge_order.begin(), edge_order.end(), 0);
  rng.Shuffle(edge_order);
  renaming.edge_names.resize(source.num_edges());
  for (int e = 0; e < source.num_edges(); ++e) {
    renaming.edge_names[edge_order[e]] = prefix + "r" + std::to_string(e);
  }
  for (size_t i = 0; i < edge_order.size(); ++i) {
    const int e = edge_order[i];
    std::vector<int> vertices = source.edge_vertex_list(e);
    rng.Shuffle(vertices);
    renaming.text += renaming.edge_names[e] + "(";
    for (size_t j = 0; j < vertices.size(); ++j) {
      if (j > 0) renaming.text += ",";
      renaming.text += renaming.vertex_names[vertices[j]];
    }
    renaming.text += i + 1 == edge_order.size() ? ").\n" : "),\n";
  }
  return renaming;
}

}  // namespace hdbench
