// InstanceView (model/view.h): the copy-free cap-form lens. Whole-
// instance views must solve bit-identically to the Instance overloads,
// surrogate (band-style) views must solve identically to materialized
// sub-instances built through InstanceBuilder, and the validation
// contract must reject mismatched spans and non-SMD parents.
#include "model/view.h"

#include <gtest/gtest.h>

#include "assignment_pairs.h"
#include "recorded_picks.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "core/greedy.h"
#include "core/partial_enum.h"
#include "engine/scenario.h"
#include "model/factory.h"
#include "model/instance.h"
#include "util/rng.h"

namespace vdist::model {
namespace {

using core::GreedyResult;
using core::SmdSolveResult;
using engine::ScenarioSpec;

using vdist::testing::pairs;
using vdist::testing::recorded_picks;

Instance cap_scenario(std::uint64_t seed, int streams = 60, int users = 20) {
  ScenarioSpec spec;
  spec.name = "cap";
  spec.params.set("streams", streams).set("users", users);
  spec.seed = seed;
  return engine::build_scenario(spec);
}

// A random surrogate over a parent: a subset of edges keeps a perturbed
// utility, the rest get zero (out of band); caps are rescaled. Mirrors
// exactly what core/skew_bands.cpp feeds the solver family.
struct Surrogate {
  std::vector<double> edge_utility;
  std::vector<double> totals;
  std::vector<double> caps;
};

Surrogate make_surrogate(const Instance& inst, std::uint64_t seed) {
  Surrogate out;
  util::Rng rng(seed);
  out.caps.resize(inst.num_users());
  for (std::size_t u = 0; u < out.caps.size(); ++u)
    out.caps[u] = inst.capacity(static_cast<UserId>(u), 0) *
                  rng.uniform(0.8, 1.2);
  out.edge_utility.assign(inst.num_edges(), 0.0);
  out.totals.assign(inst.num_streams(), 0.0);
  for (std::size_t ss = 0; ss < inst.num_streams(); ++ss) {
    const auto s = static_cast<StreamId>(ss);
    for (EdgeId e = inst.first_edge(s); e < inst.last_edge(s); ++e) {
      if (!rng.bernoulli(0.6)) continue;  // out of band
      const auto u = static_cast<std::size_t>(inst.edge_user(e));
      // Real band surrogates satisfy w_u^i <= W_u^i (the parent builder
      // zeroed over-cap pairs); keep the invariant so the materialized
      // builder keeps the same edge set.
      const double w = std::min(inst.edge_utility(e) * rng.uniform(0.5, 1.5),
                                out.caps[u]);
      out.edge_utility[static_cast<std::size_t>(e)] = w;
      out.totals[ss] += w;
    }
  }
  return out;
}

// The PR-3 band materialization: same streams/costs/budget, caps from
// the surrogate, only in-band (> 0) edges, via the builder round-trip.
Instance materialize(const Instance& parent, const Surrogate& sur) {
  InstanceBuilder b(1, 1);
  b.set_budget(0, parent.budget(0));
  for (std::size_t s = 0; s < parent.num_streams(); ++s)
    b.add_stream({parent.cost(static_cast<StreamId>(s), 0)});
  for (double cap : sur.caps) b.add_user({cap});
  for (std::size_t ss = 0; ss < parent.num_streams(); ++ss) {
    const auto s = static_cast<StreamId>(ss);
    for (EdgeId e = parent.first_edge(s); e < parent.last_edge(s); ++e) {
      const double w = sur.edge_utility[static_cast<std::size_t>(e)];
      if (w > 0.0) b.add_interest_unit_skew(parent.edge_user(e), s, w);
    }
  }
  return std::move(b).build();
}

// --- Whole-instance views ---------------------------------------------

TEST(InstanceView, CapFormSolvesBitIdenticalToInstanceOverloads) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const Instance inst = cap_scenario(seed);
    const InstanceView view = InstanceView::cap_form(inst);

    const GreedyResult by_view = core::greedy_unit_skew(view);
    const GreedyResult by_inst = core::greedy_unit_skew(inst);
    EXPECT_EQ(by_view.capped_utility, by_inst.capped_utility) << seed;
    EXPECT_EQ(recorded_picks(view).pick,
              recorded_picks(inst).pick)
        << seed;
    EXPECT_EQ(pairs(by_view.assignment), pairs(by_inst.assignment)) << seed;

    const SmdSolveResult fixed_view = core::solve_unit_skew(view);
    const SmdSolveResult fixed_inst = core::solve_unit_skew(inst);
    EXPECT_EQ(fixed_view.utility, fixed_inst.utility) << seed;
    EXPECT_EQ(fixed_view.variant, fixed_inst.variant) << seed;
    EXPECT_EQ(pairs(fixed_view.assignment), pairs(fixed_inst.assignment))
        << seed;
  }
}

TEST(InstanceView, CapFormAccessorsMirrorTheParent) {
  const Instance inst = cap_scenario(11);
  const InstanceView view = InstanceView::cap_form(inst);
  ASSERT_EQ(view.num_streams(), inst.num_streams());
  ASSERT_EQ(view.num_users(), inst.num_users());
  ASSERT_EQ(view.num_edges(), inst.num_edges());
  EXPECT_EQ(view.budget(), inst.budget(0));
  EXPECT_EQ(&view.base(), &inst);
  for (std::size_t s = 0; s < inst.num_streams(); ++s) {
    const auto sid = static_cast<StreamId>(s);
    EXPECT_EQ(view.cost(sid), inst.cost(sid, 0));
    EXPECT_EQ(view.total_utility(sid), inst.total_utility(sid));
    EXPECT_EQ(view.first_edge(sid), inst.first_edge(sid));
    EXPECT_EQ(view.last_edge(sid), inst.last_edge(sid));
  }
  for (std::size_t u = 0; u < inst.num_users(); ++u) {
    const auto uid = static_cast<UserId>(u);
    EXPECT_EQ(view.capacity(uid), inst.capacity(uid, 0));
    ASSERT_EQ(view.streams_of(uid).size(), inst.streams_of(uid).size());
    for (StreamId s : view.streams_of(uid))
      EXPECT_EQ(view.pair_utility(uid, s), inst.utility(uid, s));
  }
}

// --- Surrogate (band-style) views -------------------------------------

TEST(InstanceView, SurrogateViewSolvesMatchMaterializedSubInstances) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const Instance parent = cap_scenario(seed, 80, 25);
    const Surrogate sur = make_surrogate(parent, 100 + seed);
    const InstanceView view(parent, sur.edge_utility, sur.totals, sur.caps);
    const Instance mat = materialize(parent, sur);

    // The materialized instance shares stream/user ids with the parent,
    // so pair sets and traces are directly comparable; utilities and
    // every surrogate-side comparison are bit-identical by construction.
    const GreedyResult by_view = core::greedy_unit_skew(view);
    const GreedyResult by_mat = core::greedy_unit_skew(mat);
    EXPECT_EQ(by_view.capped_utility, by_mat.capped_utility) << seed;
    EXPECT_EQ(recorded_picks(view).pick,
              recorded_picks(mat).pick)
        << seed;
    EXPECT_EQ(pairs(by_view.assignment), pairs(by_mat.assignment)) << seed;

    const SmdSolveResult fixed_view = core::solve_unit_skew(view);
    const SmdSolveResult fixed_mat = core::solve_unit_skew(mat);
    EXPECT_EQ(fixed_view.utility, fixed_mat.utility) << seed;
    EXPECT_EQ(fixed_view.variant, fixed_mat.variant) << seed;
    EXPECT_EQ(pairs(fixed_view.assignment), pairs(fixed_mat.assignment))
        << seed;

    core::PartialEnumOptions opts;
    opts.seed_size = 1;
    const auto enum_view = core::partial_enum_unit_skew(view, opts);
    const auto enum_mat = core::partial_enum_unit_skew(mat, opts);
    EXPECT_EQ(enum_view.best.utility, enum_mat.best.utility) << seed;
    EXPECT_EQ(enum_view.candidates_evaluated, enum_mat.candidates_evaluated)
        << seed;
    EXPECT_EQ(pairs(enum_view.best.assignment),
              pairs(enum_mat.best.assignment))
        << seed;
  }
}

// A view-built assignment lives on the parent instance: its Assignment
// accounting reports parent-truth utilities while the solver's objective
// is the surrogate's.
TEST(InstanceView, ViewAssignmentsCarryParentAccounting) {
  const Instance parent = cap_scenario(5, 40, 12);
  const Surrogate sur = make_surrogate(parent, 77);
  const InstanceView view(parent, sur.edge_utility, sur.totals, sur.caps);
  const GreedyResult g = core::greedy_unit_skew(view);
  EXPECT_EQ(&g.assignment.instance(), &parent);
  double parent_w = 0.0;
  for (const auto& [u, s] : pairs(g.assignment))
    parent_w += parent.utility(u, s);
  EXPECT_DOUBLE_EQ(g.assignment.utility(), parent_w);
}

// --- Validation --------------------------------------------------------

TEST(InstanceView, RejectsMismatchedSpansAndWrongForms) {
  const Instance inst = cap_scenario(3, 20, 8);
  const Surrogate sur = make_surrogate(inst, 9);
  const std::vector<double> short_caps(inst.num_users() - 1, 1.0);
  EXPECT_THROW(InstanceView(inst, sur.edge_utility, sur.totals, short_caps),
               std::invalid_argument);
  const std::vector<double> short_edges(inst.num_edges() - 1, 0.0);
  EXPECT_THROW(InstanceView(inst, short_edges, sur.totals, sur.caps),
               std::invalid_argument);

  // cap_form requires the unit-skew cap form.
  const Instance skewed = build_smd_instance(
      {1.0}, 10.0, {5.0}, {{0, 0, /*utility=*/4.0, /*load=*/1.0}});
  EXPECT_THROW((void)InstanceView::cap_form(skewed), std::invalid_argument);

  // Any view requires an SMD parent.
  ScenarioSpec mmd;
  mmd.name = "mmd";
  mmd.seed = 1;
  const Instance multi = engine::build_scenario(mmd);
  ASSERT_FALSE(multi.is_smd());
  EXPECT_THROW((void)InstanceView::cap_form(multi), std::invalid_argument);
}

}  // namespace
}  // namespace vdist::model
