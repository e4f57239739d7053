#include "core/greedy.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "assignment_pairs.h"
#include "cap_form.h"
#include "recorded_picks.h"
#include "core/submodular.h"
#include "engine/scenario.h"
#include "gen/random_instances.h"
#include "model/factory.h"
#include "model/overlay.h"
#include "model/validate.h"
#include "workload/workload.h"

namespace vdist::core {
namespace {

using model::Assignment;
using model::build_cap_instance;
using model::Instance;
using model::InstanceView;
using model::StreamId;
using model::UserId;
using vdist::testing::accounting_of;
using vdist::testing::bits;
using vdist::testing::recorded_picks;

TEST(Greedy, RequiresCapForm) {
  const Instance skewed = model::build_smd_instance(
      {1.0}, 10.0, {5.0}, {{0, 0, 2.0, 1.0}});
  EXPECT_THROW(greedy_unit_skew(skewed), std::invalid_argument);
  model::InstanceBuilder b(2, 1);
  b.set_budget(0, 1.0);
  b.set_budget(1, 1.0);
  const Instance mmd = std::move(b).build();
  EXPECT_THROW(greedy_unit_skew(mmd), std::invalid_argument);
}

TEST(Greedy, PicksByCostEffectivenessOrder) {
  // Effectiveness: s0 = 6/2 = 3, s1 = 5/5 = 1, s2 = 8/4 = 2.
  const Instance inst = build_cap_instance(
      {2.0, 5.0, 4.0}, 100.0, {100.0},
      {{0, 0, 6.0}, {0, 1, 5.0}, {0, 2, 8.0}});
  const GreedyResult g = greedy_unit_skew(inst);
  const CompletionTrace rec = recorded_picks(inst);
  EXPECT_EQ(rec.pick, (std::vector<StreamId>{0, 2, 1}));
  EXPECT_EQ(rec.applied, (std::vector<char>{1, 1, 1}));
  EXPECT_DOUBLE_EQ(g.capped_utility, 19.0);
}

TEST(Greedy, SkipsUnaffordableAndContinues) {
  // s0 (eff 3) then s1 (cost 9 won't fit after s0: 2+9 > 10), then s2 fits.
  const Instance inst = build_cap_instance(
      {2.0, 9.0, 4.0}, 10.0, {100.0},
      {{0, 0, 6.0}, {0, 1, 24.0}, {0, 2, 8.0}});
  const GreedyResult g = greedy_unit_skew(inst);
  EXPECT_EQ(g.trace.skipped_budget, 1u);
  EXPECT_DOUBLE_EQ(g.assignment.server_cost(0), 6.0);
  EXPECT_DOUBLE_EQ(g.capped_utility, 14.0);
  EXPECT_FALSE(g.assignment.has(0, 1));
}

TEST(Greedy, SaturatesUsersAtMostOnce) {
  // Cap 3, each stream worth 2: second assignment overshoots (semi-
  // feasible), third adds nothing and is not assigned.
  const Instance inst = build_cap_instance(
      {1.0, 1.0, 1.0}, 100.0, {3.0},
      {{0, 0, 2.0}, {0, 1, 2.0}, {0, 2, 2.0}});
  const GreedyResult g = greedy_unit_skew(inst);
  EXPECT_DOUBLE_EQ(g.capped_utility, 3.0);
  EXPECT_DOUBLE_EQ(g.assignment.utility(), 4.0) << "raw may exceed the cap";
  EXPECT_EQ(g.assignment.streams_of(0).size(), 2u);
  const auto rep = model::validate(g.assignment);
  EXPECT_EQ(rep.feasibility, model::Feasibility::kSemiFeasible);
}

TEST(Greedy, ZeroCostStreamsTakenFirst) {
  const Instance inst = build_cap_instance(
      {0.0, 1.0}, 1.0, {100.0}, {{0, 0, 0.5}, {0, 1, 50.0}});
  const GreedyResult g = greedy_unit_skew(inst);
  const CompletionTrace rec = recorded_picks(inst);
  ASSERT_FALSE(rec.pick.empty());
  EXPECT_EQ(rec.pick[0], 0);
  EXPECT_TRUE(g.assignment.has(0, 0));
  EXPECT_TRUE(g.assignment.has(0, 1));
}

TEST(Greedy, FractionalResidualDrivesSelection) {
  // Two users. s1 saturates user 0 exactly; afterwards s0's residual
  // utility is zero and s2 is the only stream still worth anything.
  const Instance inst = build_cap_instance(
      {1.0, 2.0, 1.0}, 100.0, {9.0, 10.0},
      {{0, 0, 4.0},               // s0: user 0 only, eff 4
       {0, 1, 9.0}, {1, 1, 1.0},  // s1: eff (9+1)/2 = 5 initially
       {1, 2, 3.0}});             // s2: eff 3
  const GreedyResult g = greedy_unit_skew(inst);
  // First pick: s1 (eff 5). Then user0 rem = 0 => s0 eff 0; s2 eff 3.
  const CompletionTrace rec = recorded_picks(inst);
  ASSERT_GE(rec.pick.size(), 2u);
  EXPECT_EQ(rec.pick[0], 1);
  EXPECT_EQ(rec.pick[1], 2);
  EXPECT_DOUBLE_EQ(g.capped_utility, 9.0 + 1.0 + 3.0);
}

TEST(Greedy, ServerBudgetNeverViolated) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    gen::RandomCapConfig cfg;
    cfg.num_streams = 30;
    cfg.num_users = 12;
    cfg.budget_fraction = 0.25;
    cfg.seed = seed;
    const Instance inst = gen::random_cap_instance(cfg);
    const GreedyResult g = greedy_unit_skew(inst);
    EXPECT_TRUE(model::validate(g.assignment).server_feasible());
    EXPECT_LE(g.assignment.server_cost(0), inst.budget(0) * (1 + 1e-9));
  }
}

TEST(Greedy, MatchesSubmodularSetFunctionGreedy) {
  // Algorithm 1's fractional residual w̄(S) equals the marginal of the
  // capped set function (Lemma 2.1); both greedy paths must agree.
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    gen::RandomCapConfig cfg;
    cfg.num_streams = 18;
    cfg.num_users = 7;
    cfg.seed = seed * 31 + 5;
    const Instance inst = gen::random_cap_instance(cfg);
    const GreedyResult g = greedy_unit_skew(inst);
    CapUtilityOracle oracle(inst);
    std::vector<double> costs(inst.num_streams());
    for (std::size_t s = 0; s < costs.size(); ++s)
      costs[s] = inst.cost(static_cast<model::StreamId>(s), 0);
    const SubmodularResult sub =
        knapsack_greedy(oracle, costs, inst.budget(0), {.lazy = false});
    EXPECT_NEAR(g.capped_utility, sub.value, 1e-9)
        << "seed " << cfg.seed;
  }
}

TEST(BestSingleStream, PicksMaxTotalUtility) {
  const Instance inst = build_cap_instance(
      {1.0, 1.0}, 10.0, {10.0, 10.0},
      {{0, 0, 2.0}, {1, 0, 2.0}, {0, 1, 3.0}});
  const model::Assignment amax = best_single_stream(inst);
  EXPECT_TRUE(amax.has(0, 0));
  EXPECT_TRUE(amax.has(1, 0));
  EXPECT_DOUBLE_EQ(amax.utility(), 4.0);
}

TEST(FixedGreedy, BlockingExampleOfSection22) {
  // The paper's weakness example: a tiny high-effectiveness stream blocks
  // a budget-filling stream of much larger absolute utility. Plain greedy
  // gets 1.1; the fix returns the single big stream (10).
  const Instance inst = build_cap_instance(
      {1.0, 10.0}, 10.0, {100.0},
      {{0, 0, 1.1}, {0, 1, 10.0}});
  const GreedyResult g = greedy_unit_skew(inst);
  EXPECT_DOUBLE_EQ(g.capped_utility, 1.1);
  const SmdSolveResult fixed = solve_unit_skew(inst, SmdMode::kFeasible);
  EXPECT_DOUBLE_EQ(fixed.utility, 10.0);
  EXPECT_EQ(fixed.variant, "Amax");
}

TEST(SplitLastStream, PartitionsPerUserAssignments) {
  const Instance inst = build_cap_instance(
      {1.0, 1.0, 1.0}, 100.0, {3.0},
      {{0, 0, 2.0}, {0, 1, 2.0}, {0, 2, 2.0}});
  const GreedyResult g = greedy_unit_skew(inst);
  const FeasibleSplit split = split_last_stream(inst, g.assignment);
  // w(A1) + w(A2) >= w(A) (raw), and both are feasible.
  EXPECT_GE(split.w1 + split.w2 + 1e-12, g.assignment.utility());
  EXPECT_TRUE(model::validate(split.a1).feasible());
  EXPECT_TRUE(model::validate(split.a2).feasible());
  EXPECT_EQ(split.a2.streams_of(0).size(), 1u);
}

TEST(SolveUnitSkew, FeasibleModeAlwaysFeasible) {
  for (std::uint64_t seed = 1; seed <= 25; ++seed) {
    gen::RandomCapConfig cfg;
    cfg.num_streams = 25;
    cfg.num_users = 10;
    cfg.cap_fraction = 0.4;  // binding caps
    cfg.seed = seed * 7;
    const Instance inst = gen::random_cap_instance(cfg);
    const SmdSolveResult r = solve_unit_skew(inst, SmdMode::kFeasible);
    EXPECT_TRUE(model::validate(r.assignment).feasible()) << "seed " << seed;
    EXPECT_NEAR(r.utility, r.assignment.utility(), 1e-9);
  }
}

TEST(SolveUnitSkew, AugmentedModeIsSemiFeasibleAndNoWorse) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    gen::RandomCapConfig cfg;
    cfg.num_streams = 20;
    cfg.num_users = 8;
    cfg.cap_fraction = 0.4;
    cfg.seed = seed * 13;
    const Instance inst = gen::random_cap_instance(cfg);
    const SmdSolveResult feas = solve_unit_skew(inst, SmdMode::kFeasible);
    const SmdSolveResult aug = solve_unit_skew(inst, SmdMode::kAugmented);
    EXPECT_TRUE(model::validate(aug.assignment).server_feasible());
    // The augmented candidate set dominates the feasible one in capped
    // utility (greedy >= max(A1, A2) because w(A1)+w(A2) >= w(A) splits).
    EXPECT_GE(aug.utility + 1e-9, feas.utility * 0.5);
  }
}

// --- solve_unit_skew against the composition it replaced ------------------

// The oracle: the §2.2 race composed from the public pieces, every
// candidate materialized — the greedy's assignment, both split sides,
// Amax — and the winner moved out.
SmdSolveResult composed_solve(const InstanceView& view, SmdMode mode,
                              const GreedyOptions& opts) {
  GreedyResult g = greedy_unit_skew(view, opts);
  Assignment amax = best_single_stream(view);
  const double w_amax = view_capped_utility(view, amax);
  std::optional<FeasibleSplit> split;
  if (mode == SmdMode::kFeasible) split = split_last_stream(view, g.assignment);
  const RaceOutcome won =
      race_winner(mode, g.capped_utility,
                  split ? SplitValues{split->w1, split->w2} : SplitValues{},
                  w_amax);
  const std::string_view v = won.variant;
  Assignment winner = v == "greedy" ? std::move(g.assignment)
                      : v == "A1"   ? std::move(split->a1)
                      : v == "A2"   ? std::move(split->a2)
                                    : std::move(amax);
  return {std::move(winner), won.value, won.variant, g.select};
}

void expect_same_counters(const SelectStats& got, const SelectStats& want,
                          const std::string& where) {
  EXPECT_EQ(got.picks, want.picks) << where;
  EXPECT_EQ(got.evaluations, want.evaluations) << where;
  EXPECT_EQ(got.pairs_touched, want.pairs_touched) << where;
  EXPECT_EQ(got.rows_walked, want.rows_walked) << where;
  EXPECT_EQ(got.heap_sifts, want.heap_sifts) << where;
  EXPECT_EQ(got.rows_sorted, want.rows_sorted) << where;
}


// One workspace per solve path, each fed the same sequence of views, so
// their row caches (and rows_sorted) stay in step.
struct RaceWorkspaces {
  SolveWorkspace race;
  SolveWorkspace composed;
  SolveWorkspace values;
};

// Solves `view` in both modes through solve_unit_skew, the oracle, and
// the value-only solve; returns the variants that won.
std::vector<std::string> expect_race_equals_composition(
    const InstanceView& view, RaceWorkspaces& ws, const std::string& where) {
  std::vector<std::string> variants;
  for (const SmdMode mode : {SmdMode::kFeasible, SmdMode::kAugmented}) {
    const std::string at =
        where + (mode == SmdMode::kFeasible ? " feasible" : " augmented");
    GreedyOptions opts;
    opts.workspace = &ws.race;
    const SmdSolveResult got = solve_unit_skew(view, mode, opts);
    opts.workspace = &ws.composed;
    const SmdSolveResult want = composed_solve(view, mode, opts);
    EXPECT_EQ(bits(got.utility), bits(want.utility)) << at;
    EXPECT_EQ(got.variant, want.variant) << at;
    expect_same_counters(got.select, want.select, at);
    EXPECT_TRUE(accounting_of(got.assignment) == accounting_of(want.assignment))
        << at << " (" << want.variant << ")";

    opts.workspace = &ws.values;
    opts.build_assignment = false;
    const SmdSolveResult values = solve_unit_skew(view, mode, opts);
    EXPECT_EQ(bits(values.utility), bits(want.utility)) << at << " values";
    EXPECT_EQ(values.variant, want.variant) << at << " values";
    expect_same_counters(values.select, want.select, at + " values");
    EXPECT_EQ(values.assignment.num_assigned_pairs(), 0u) << at << " values";
    EXPECT_EQ(values.assignment.range_size(), 0u) << at << " values";
    variants.push_back(want.variant);
  }
  return variants;
}

// Every registered scenario (in cap form) at seeds 1-4, and one instance
// Amax wins: bit for bit the composition's utility, variant, stream
// lists, accounting and counters, with every variant winning somewhere.
TEST(SolveUnitSkew, RaceEqualsComposedSplitOnEveryScenario) {
  std::set<std::string> won;
  RaceWorkspaces ws;
  for (const std::string& name : engine::ScenarioRegistry::global().names()) {
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      engine::ScenarioSpec spec;
      spec.name = name;
      spec.seed = seed;
      const Instance inst = testing::cap_form_of(engine::build_scenario(spec));
      for (const std::string& v : expect_race_equals_composition(
               InstanceView::cap_form(inst), ws,
               name + " seed " + std::to_string(seed)))
        won.insert(v);
    }
  }
  // §2.2's blocking example, where Amax wins in both modes.
  const Instance blocking = build_cap_instance(
      {1.0, 10.0}, 10.0, {100.0}, {{0, 0, 1.1}, {0, 1, 10.0}});
  for (const std::string& v : expect_race_equals_composition(
           InstanceView::cap_form(blocking), ws, "blocking"))
    won.insert(v);
  EXPECT_EQ(won, (std::set<std::string>{"A1", "A2", "Amax", "greedy"}));
}

// Overlay views: tombstoned streams and users, pairs clipped by a cap
// that fell below them or a utility that rose above the cap, then churn
// on top — the race reads the view's utilities, the winner's accounting
// the base's declared ones, and both must match the composition.
TEST(SolveUnitSkew, RaceEqualsComposedSplitOnOverlayViews) {
  std::set<std::string> won;
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    gen::RandomCapConfig cfg;
    cfg.num_streams = 60;
    cfg.num_users = 20;
    cfg.cap_fraction = 0.4;
    cfg.seed = seed;
    const Instance inst = gen::random_cap_instance(cfg);
    model::InstanceOverlay overlay(inst);
    RaceWorkspaces ws;
    overlay.stream_remove(0);
    overlay.user_leave(1);
    double top = 0.0;
    for (const model::EdgeId e : inst.edges_of(2))
      top = std::max(top, inst.edge_utility(e));
    overlay.set_capacity(2, 0.5 * top);
    overlay.set_utility(3, inst.streams_of(3).front(),
                        2.0 * overlay.capacity(3) + 1.0);
    std::size_t clipped = 0;
    for (const model::EdgeId e : inst.edges_of(2))
      clipped += overlay.view().edge_utility(e) == 0.0 ? 1 : 0;
    ASSERT_GT(clipped, 0u);
    const std::string world = "seed " + std::to_string(seed);
    for (const std::string& v :
         expect_race_equals_composition(overlay.view(), ws, world + " setup"))
      won.insert(v);
    const std::vector<model::InstanceEvent> trace =
        workload::WorkloadRegistry::global().generate(
            "churn", inst,
            {{"events", "40"}, {"seed", std::to_string(seed + 10)}});
    for (std::size_t i = 0; i < trace.size(); ++i) {
      overlay.apply(trace[i]);
      for (const std::string& v : expect_race_equals_composition(
               overlay.view(), ws, world + " event " + std::to_string(i)))
        won.insert(v);
    }
  }
  EXPECT_TRUE(won.count("A1") == 1 && won.count("greedy") == 1);
}

TEST(GreedySeeded, SeedsAreForceAssignedFirst) {
  const Instance inst = build_cap_instance(
      {5.0, 1.0}, 6.0, {100.0}, {{0, 0, 1.0}, {0, 1, 3.0}});
  const model::StreamId seeds[] = {0};
  const GreedyResult g = greedy_unit_skew_seeded(inst, seeds);
  EXPECT_TRUE(g.assignment.has(0, 0));
  EXPECT_TRUE(g.assignment.has(0, 1));
  // The seed went in before the completion, which picks only stream 1.
  const CompletionTrace rec =
      recorded_picks(inst, SelectStrategy::kDelta, seeds);
  EXPECT_EQ(rec.pick, std::vector<StreamId>{1});
}

// A seed with zero total utility never enters the selection pool (dead-
// stream pruning), but seeding it must still force-add and charge it —
// pool membership is not the duplicate check.
TEST(GreedySeeded, ZeroUtilitySeedIsStillChargedOnce) {
  // Stream 0 has no interested users; cost 5 of budget 6.
  const Instance inst = build_cap_instance(
      {5.0, 1.0, 1.0}, 6.0, {10.0}, {{0, 1, 4.0}, {0, 2, 3.0}});
  const model::StreamId seeds[] = {0, 0};  // duplicate dead seed
  const GreedyResult g = greedy_unit_skew_seeded(inst, seeds);
  // The charge leaves room for exactly one of streams 1/2: the greedy
  // adds stream 1 (higher effectiveness) and budget-skips stream 2.
  EXPECT_EQ(g.trace.num_considered, 3u);
  EXPECT_EQ(g.trace.skipped_budget, 1u);
  EXPECT_EQ(g.capped_utility, 4.0);
  EXPECT_EQ(g.assignment.range_size(), 1u);
  EXPECT_TRUE(g.assignment.has(0, 1));
}

TEST(GreedySeeded, OversizedSeedThrows) {
  const Instance inst = build_cap_instance(
      {5.0, 6.0}, 6.0, {100.0}, {{0, 0, 1.0}, {0, 1, 3.0}});
  const model::StreamId seeds[] = {0, 1};  // 5 + 6 > 6
  EXPECT_THROW(greedy_unit_skew_seeded(inst, seeds), std::invalid_argument);
}

TEST(Greedy, EmptyInstanceDegenerates) {
  model::InstanceBuilder b(1, 1);
  b.set_budget(0, 5.0);
  const Instance inst = std::move(b).build();
  const GreedyResult g = greedy_unit_skew(inst);
  EXPECT_EQ(g.capped_utility, 0.0);
  EXPECT_EQ(g.trace.num_considered, 0u);
  EXPECT_TRUE(recorded_picks(inst).pick.empty());
}

}  // namespace
}  // namespace vdist::core
