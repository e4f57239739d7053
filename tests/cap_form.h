// Shared test helper: a registered scenario's instance in the Section-2
// cap form the greedy family and the overlay speak (test_greedy_row_cache,
// test_core_greedy).
#pragma once

#include <algorithm>
#include <utility>
#include <vector>

#include "model/factory.h"
#include "model/instance.h"

namespace vdist::testing {

// The instance itself when it is a cap form; otherwise the cap form on
// its topology and utilities — costs and budget of measure 0, caps at 60%
// of each user's total utility but no lower than the user's largest
// utility (so no pair is dropped).
inline model::Instance cap_form_of(const model::Instance& inst) {
  if (inst.is_smd() && inst.is_unit_skew()) return inst;
  std::vector<double> costs(inst.num_streams());
  double total_cost = 0.0;
  for (std::size_t s = 0; s < costs.size(); ++s) {
    costs[s] = inst.cost(static_cast<model::StreamId>(s), 0);
    total_cost += costs[s];
  }
  std::vector<double> caps(inst.num_users(), 0.0);
  std::vector<model::CapEdge> edges;
  for (std::size_t s = 0; s < inst.num_streams(); ++s) {
    const auto sid = static_cast<model::StreamId>(s);
    for (model::EdgeId e = inst.first_edge(sid); e < inst.last_edge(sid);
         ++e) {
      edges.push_back({inst.edge_user(e), sid, inst.edge_utility(e)});
      caps[static_cast<std::size_t>(inst.edge_user(e))] +=
          0.6 * inst.edge_utility(e);
    }
  }
  for (const model::CapEdge& e : edges) {
    double& cap = caps[static_cast<std::size_t>(e.user)];
    cap = std::max(cap, e.utility);
  }
  double budget = 0.3 * total_cost;
  for (const double c : costs) budget = std::max(budget, c);
  return model::build_cap_instance(std::move(costs), budget, std::move(caps),
                                   edges);
}

}  // namespace vdist::testing
