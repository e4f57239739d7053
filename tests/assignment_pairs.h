// Shared test helpers: an Assignment's (user, stream) pair set in sorted
// order, the canonical form the equivalence suites compare (test_select,
// test_view, test_checkpoint), and its full accounting, for the suites
// that demand bit-identical winners (test_core_greedy, test_checkpoint,
// test_session).
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <utility>
#include <vector>

#include "model/assignment.h"

namespace vdist::testing {

inline std::vector<std::pair<model::UserId, model::StreamId>> pairs(
    const model::Assignment& a) {
  std::vector<std::pair<model::UserId, model::StreamId>> out;
  for (std::size_t u = 0; u < a.instance().num_users(); ++u)
    for (model::StreamId s : a.streams_of(static_cast<model::UserId>(u)))
      out.emplace_back(static_cast<model::UserId>(u), s);
  std::sort(out.begin(), out.end());
  return out;
}

inline std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

// Everything an Assignment reports, utilities and loads as bits, stream
// lists in assignment order.
struct Accounting {
  std::vector<std::vector<model::StreamId>> streams;
  std::vector<std::uint64_t> user_utility;
  std::vector<std::uint64_t> user_load;
  std::uint64_t utility = 0;
  std::uint64_t server_cost = 0;
  std::size_t range_size = 0;
  bool operator==(const Accounting&) const = default;
};

inline Accounting accounting_of(const model::Assignment& a) {
  Accounting out;
  for (std::size_t uu = 0; uu < a.instance().num_users(); ++uu) {
    const auto u = static_cast<model::UserId>(uu);
    const auto streams = a.streams_of(u);
    out.streams.emplace_back(streams.begin(), streams.end());
    out.user_utility.push_back(bits(a.user_utility(u)));
    out.user_load.push_back(bits(a.user_load(u, 0)));
  }
  out.utility = bits(a.utility());
  out.server_cost = bits(a.server_cost(0));
  out.range_size = a.range_size();
  return out;
}

}  // namespace vdist::testing
