// Enumeration of k-subsets for separator search.
//
// Separator candidates λ are subsets of an "allowed" edge list with
// 1 ≤ |λ| ≤ k. The search space is partitioned into chunks of the form
// (subset size, fixed first element); chunks are the unit of work handed to
// worker threads (log-k-decomp §D.1: the search space is divided uniformly
// over cores with no inter-thread communication).
//
// All enumerators yield index tuples in strictly increasing order, and the
// overall order is (size asc, lexicographic) — deterministic, so sequential
// and single-threaded-parallel runs explore candidates identically.
#pragma once

#include <cstdint>
#include <vector>

#include "util/logging.h"

namespace htd::util {

/// Number of s-subsets of an n-universe, saturating at int64 max / 4 to keep
/// arithmetic on chunk sizes overflow-free. Exact below the cap; the cap is
/// checked before each multiplication, so no intermediate ever overflows.
int64_t BinomialCapped(int n, int s);

/// Enumerates all subsets of {0..n-1} with min_size ≤ |S| ≤ max_size in
/// (size asc, lexicographic) order.
///
/// Usage:
///   SubsetEnumerator en(n, 1, k);
///   while (en.Next()) use(en.indices());
class SubsetEnumerator {
 public:
  SubsetEnumerator(int n, int min_size, int max_size);

  /// Advances to the next subset; returns false when exhausted.
  bool Next();

  const std::vector<int>& indices() const { return indices_; }
  int size() const { return static_cast<int>(indices_.size()); }

 private:
  bool StartSize(int s);

  int n_;
  int max_size_;
  int current_size_;
  bool started_ = false;
  std::vector<int> indices_;
};

/// Enumerates the s-subsets of {0..n-1} whose smallest element is `first`,
/// in lexicographic order. One FixedFirstEnumerator = one parallel work chunk.
class FixedFirstEnumerator {
 public:
  FixedFirstEnumerator(int n, int s, int first);

  bool Next();
  const std::vector<int>& indices() const { return indices_; }

 private:
  int n_;
  int s_;
  bool started_ = false;
  std::vector<int> indices_;
};

/// A unit of separator-search work: all subsets of size `size` starting at
/// element `first`.
struct SubsetChunk {
  int size;
  int first;
};

/// Builds the chunk list covering all subsets S with 1 ≤ |S| ≤ k of an
/// n-element universe, where additionally the first element must be < first_limit.
///
/// The first-element bound implements the "λ must contain at least one new
/// edge" restriction: if the allowed-edge list is ordered with the component's
/// own edges first (positions 0..first_limit-1), then a lexicographically
/// sorted subset contains a new edge iff its first element is < first_limit.
std::vector<SubsetChunk> MakeSubsetChunks(int n, int k, int first_limit);

}  // namespace htd::util
