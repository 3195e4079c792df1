// Output checking for the benchmark: every reply is classified, and every
// class other than kOk counts as a failed operation.
//
//   /v1/decompose  a kYes decomposition must pass ValidateHdWithWidth for
//                  the REQUESTER's own graph and k (the names in the reply
//                  are resolved against the text the client sent); the
//                  outcome must match the set-up reference when one exists.
//   /v1/query      the count must equal the reference computed at set-up.
//   both           a non-2xx status, a transport error or a missed deadline
//                  (outcome "cancelled" / "deadline") is a failure.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "client.h"
#include "hypergraph/hypergraph.h"
#include "util/rng.h"

namespace hdbench {

enum class Verdict {
  kOk,
  kTransport,             ///< connect/send/recv/parse failed
  kHttpStatus,            ///< non-2xx reply
  kMissedDeadline,        ///< the server gave up at the request's deadline
  kInvalidDecomposition,  ///< rejected by ValidateHdWithWidth (or unparsable)
  kWrongOutcome,          ///< disagrees with the set-up reference
  kWrongCount,            ///< query count differs from the reference
  kMalformed,             ///< 2xx body without the fields the API promises
};

const char* VerdictName(Verdict verdict);

/// Attempted/failed accounting, with failures broken down by verdict.
struct Tally {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::map<Verdict, uint64_t> failures;

  void Record(Verdict verdict);
  void Merge(const Tally& other);
};

/// The fields of a /v1/decompose reply body the benchmark reads.
struct DecomposeBody {
  std::string outcome;  ///< "yes", "no", "cancelled", "error"
  bool cache_hit = false;
  double seconds = 0.0;  ///< the flight's wall time
  int threads_used = 0;
  /// The "decomposition" object's text; empty when absent.
  std::string_view decomposition;
};
std::optional<DecomposeBody> ParseDecomposeBody(std::string_view body);

/// Classifies one /v1/decompose reply for `graph` (the graph the client's
/// text parses to) at width `k`. `expected_yes`, when set, is the reference
/// answer. `known_width`, when set, is the instance's width by construction:
/// a "no" at k >= known_width is wrong.
Verdict CheckDecompose(const Reply& reply, const htd::Hypergraph& graph, int k,
                       std::optional<bool> expected_yes,
                       std::optional<int> known_width = std::nullopt);

/// The fields of a /v1/query reply body the benchmark reads.
struct QueryBody {
  std::string outcome;  ///< "satisfiable", "unsatisfiable", ...
  bool counted = false;
  unsigned long long count = 0;
  int probes = 0;
  bool cache_hit = false;
  double decompose_seconds = 0.0;
  double pick_seconds = 0.0;
  double execute_seconds = 0.0;
};
std::optional<QueryBody> ParseQueryBody(std::string_view body);

/// Classifies one /v1/query reply against the reference count.
Verdict CheckQuery(const Reply& reply, unsigned long long expected_count);

/// An isomorphic copy of an instance as a client would send it: fresh vertex
/// and edge names, shuffled edge order, and each edge's vertices listed in a
/// shuffled order (so vertex ids, assigned by first appearance, shuffle too).
struct Renaming {
  std::string text;  ///< HyperBench text
  std::vector<std::string> vertex_names;  ///< source vertex id → new name
  std::vector<std::string> edge_names;    ///< source edge id → new name
};
Renaming RenameInstance(const htd::Hypergraph& source, htd::util::Rng& rng,
                        int tag);

}  // namespace hdbench
