// Shared test helper: a recursive pairwise sum written apart from
// util::SumTree, the reference its totals and every sum maintained
// through it (the repair race terms, the online objective) are checked
// against bit for bit (test_util_sum_tree, test_session).
#pragma once

#include <cstddef>
#include <vector>

namespace vdist::testing {

// v[lo, lo + width) with zeros past v's end: the two halves summed
// recursively, then added.
template <typename T>
T pairwise_range(const std::vector<T>& v, std::size_t lo, std::size_t width) {
  if (width == 1) return lo < v.size() ? v[lo] : T{};
  const std::size_t half = width / 2;
  return pairwise_range(v, lo, half) + pairwise_range(v, lo + half, half);
}

// All of v, padded with zeros to the next power of two.
template <typename T>
T pairwise_sum(const std::vector<T>& v) {
  std::size_t width = 1;
  while (width < v.size()) width *= 2;
  return pairwise_range(v, 0, width);
}

}  // namespace vdist::testing
