// GreedyEngine checkpointing (core/greedy.h) and the checkpointed §2.3
// enumeration (core/partial_enum.h): restoring a frame and continuing
// must equal a fresh solve, scoring-mode results must match the
// materializing path, and the whole checkpointed enumeration must equal
// a from-scratch reference that re-solves every seed set independently
// (the PR-3 formulation).
#include <gtest/gtest.h>

#include "assignment_pairs.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "core/greedy.h"
#include "core/partial_enum.h"
#include "engine/scenario.h"
#include "model/instance.h"
#include "model/view.h"
#include "util/float_cmp.h"

namespace vdist::core {
namespace {

using engine::ScenarioSpec;
using model::Assignment;
using model::Instance;
using model::InstanceView;
using model::StreamId;
using model::UserId;

using vdist::testing::pairs;

Instance cap_scenario(std::uint64_t seed, int streams, int users,
                      double budget_fraction = 0.3) {
  ScenarioSpec spec;
  spec.name = "cap";
  spec.params.set("streams", streams)
      .set("users", users)
      .set("budget-fraction", budget_fraction);
  spec.seed = seed;
  return engine::build_scenario(spec);
}

// Restoring the pristine frame and re-running with different seeds must
// reproduce exactly what fresh from-scratch solves produce.
TEST(GreedyCheckpoint, RestoreThenSeedEqualsFreshSeededSolve) {
  const Instance inst = cap_scenario(7, 50, 15, 0.4);
  const InstanceView view = InstanceView::cap_form(inst);
  SolveWorkspace ws;
  GreedyEngine engine(view, ws, {SelectStrategy::kDelta, &ws});
  GreedyCheckpoint frame;
  engine.save(frame);

  // Exercise the engine, then rewind and run seeded completions.
  engine.run();
  for (const StreamId seed_stream : {StreamId{0}, StreamId{3}, StreamId{11}}) {
    engine.restore(frame);
    engine.add_seed(seed_stream);
    engine.run();
    const GreedyResult& through_checkpoint = engine.result();
    const StreamId seeds[] = {seed_stream};
    const GreedyResult fresh = greedy_unit_skew_seeded(inst, seeds);
    EXPECT_EQ(through_checkpoint.capped_utility, fresh.capped_utility)
        << "seed " << seed_stream;
    EXPECT_EQ(pairs(through_checkpoint.assignment), pairs(fresh.assignment))
        << "seed " << seed_stream;
  }

  // And rewinding to the pristine frame reproduces the plain greedy.
  engine.restore(frame);
  engine.run();
  const GreedyResult fresh_plain = greedy_unit_skew(inst);
  EXPECT_EQ(engine.result().capped_utility, fresh_plain.capped_utility);
  EXPECT_EQ(pairs(engine.result().assignment), pairs(fresh_plain.assignment));
}

// Mid-run frames work too: save after a forced seed, complete, rewind,
// complete differently.
TEST(GreedyCheckpoint, MidRunFrameSharesThePrefix) {
  const Instance inst = cap_scenario(9, 40, 12, 0.5);
  const InstanceView view = InstanceView::cap_form(inst);
  SolveWorkspace ws;
  GreedyEngine engine(view, ws, {SelectStrategy::kDelta, &ws});
  engine.add_seed(2);
  GreedyCheckpoint after_first;
  engine.save(after_first);

  engine.add_seed(5);
  engine.run();
  const StreamId seeds_25[] = {2, 5};
  const GreedyResult fresh_25 = greedy_unit_skew_seeded(inst, seeds_25);
  EXPECT_EQ(engine.result().capped_utility, fresh_25.capped_utility);
  EXPECT_EQ(pairs(engine.result().assignment), pairs(fresh_25.assignment));

  engine.restore(after_first);
  engine.add_seed(9);
  engine.run();
  const StreamId seeds_29[] = {2, 9};
  const GreedyResult fresh_29 = greedy_unit_skew_seeded(inst, seeds_29);
  EXPECT_EQ(engine.result().capped_utility, fresh_29.capped_utility);
  EXPECT_EQ(pairs(engine.result().assignment), pairs(fresh_29.assignment));
}

// Scoring mode (build_assignment = false): the accumulator-backed split
// values and the replay materializers must equal what the bookkeeping
// path computes.
TEST(GreedyCheckpoint, ScoringModeMatchesMaterializingMode) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const Instance inst = cap_scenario(seed, 45, 14, 0.35);
    const InstanceView view = InstanceView::cap_form(inst);
    SolveWorkspace ws;
    GreedyOptions scoring{SelectStrategy::kDelta, &ws, /*record_trace=*/false,
                          /*build_assignment=*/false};
    GreedyEngine engine(view, ws, scoring);
    engine.run();

    const GreedyResult reference = greedy_unit_skew(inst);
    EXPECT_EQ(engine.capped_utility(), reference.capped_utility);
    EXPECT_EQ(pairs(engine.materialize_assignment()),
              pairs(reference.assignment));

    const SplitValues values = engine.split_values();
    const FeasibleSplit split = split_last_stream(inst, reference.assignment);
    // Same decisions; the accumulator arithmetic may differ by rounding.
    EXPECT_TRUE(util::approx_eq(values.w1, split.w1)) << seed;
    EXPECT_TRUE(util::approx_eq(values.w2, split.w2)) << seed;
    EXPECT_EQ(pairs(engine.materialize_split(/*keep_rest=*/true)),
              pairs(split.a1))
        << seed;
    EXPECT_EQ(pairs(engine.materialize_split(/*keep_rest=*/false)),
              pairs(split.a2))
        << seed;
  }
}

// --- The checkpointed enumeration vs a from-scratch reference ----------

// PR-3 semantics, reimplemented naively: every seed set of cardinality
// seed_size gets its own fresh seeded greedy; smaller sets are evaluated
// directly; the best candidate (after the Theorem 2.8 split) wins.
SmdSolveResult reference_partial_enum(const Instance& inst, int seed_size,
                                      SmdMode mode) {
  const InstanceView view = InstanceView::cap_form(inst);
  SmdSolveResult best{Assignment(inst), -1.0, "none", {}};
  auto consider = [&](Assignment&& a, double utility,
                      const std::string& variant) {
    if (utility > best.utility) best = {std::move(a), utility, variant, {}};
  };
  auto offer = [&](GreedyResult&& g) {
    if (mode == SmdMode::kAugmented) {
      consider(std::move(g.assignment), g.capped_utility, "greedy");
      return;
    }
    FeasibleSplit split = split_last_stream(inst, g.assignment);
    if (split.w1 >= split.w2)
      consider(std::move(split.a1), split.w1, "A1");
    else
      consider(std::move(split.a2), split.w2, "A2");
  };

  offer(greedy_unit_skew(inst));
  {
    Assignment amax = best_single_stream(inst);
    const double w = view_capped_utility(view, amax);
    consider(std::move(amax), w, "Amax");
  }

  const auto S = static_cast<StreamId>(inst.num_streams());
  const double B = inst.budget(0);
  std::vector<StreamId> current;
  auto enumerate = [&](auto&& self, StreamId start, double cost,
                       int target) -> void {
    if (static_cast<int>(current.size()) == target) {
      if (target < seed_size) {
        // Directly evaluated small set: the same saturation rule.
        Assignment a(inst);
        std::vector<double> rem(inst.num_users());
        for (std::size_t u = 0; u < rem.size(); ++u)
          rem[u] = inst.capacity(static_cast<UserId>(u), 0);
        double capped = 0.0;
        for (StreamId s : current) {
          for (model::EdgeId e = inst.first_edge(s); e < inst.last_edge(s);
               ++e) {
            const UserId u = inst.edge_user(e);
            const double w = inst.edge_utility(e);
            if (rem[static_cast<std::size_t>(u)] <= util::kAbsEps || w <= 0.0)
              continue;
            a.assign(u, s);
            capped += std::min(w, rem[static_cast<std::size_t>(u)]);
            rem[static_cast<std::size_t>(u)] -= w;
          }
        }
        GreedyResult g{std::move(a), capped, {}, {}};
        offer(std::move(g));
      } else {
        offer(greedy_unit_skew_seeded(inst, current));
      }
      return;
    }
    for (StreamId s = start; s < S; ++s) {
      const double c = inst.cost(s, 0);
      if (!util::approx_le(cost + c, B)) continue;
      current.push_back(s);
      self(self, s + 1, cost + c, target);
      current.pop_back();
    }
  };
  for (int k = 1; k <= seed_size; ++k) enumerate(enumerate, 0, 0.0, k);
  return best;
}

TEST(PartialEnumCheckpointed, MatchesFromScratchReference) {
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    for (const int depth : {1, 2}) {
      for (const SmdMode mode : {SmdMode::kFeasible, SmdMode::kAugmented}) {
        const Instance inst = cap_scenario(seed, 16, 6, 0.5);
        PartialEnumOptions opts;
        opts.seed_size = depth;
        opts.mode = mode;
        const PartialEnumResult fast = partial_enum_unit_skew(inst, opts);
        const SmdSolveResult reference =
            reference_partial_enum(inst, depth, mode);
        EXPECT_TRUE(util::approx_eq(fast.best.utility, reference.utility))
            << "seed " << seed << " depth " << depth << " fast "
            << fast.best.utility << " ref " << reference.utility;
        EXPECT_EQ(fast.best.variant, reference.variant)
            << "seed " << seed << " depth " << depth;
        EXPECT_EQ(pairs(fast.best.assignment), pairs(reference.assignment))
            << "seed " << seed << " depth " << depth;
      }
    }
  }
}

// Depth 0 degenerates to best-of(plain greedy, Amax) exactly as before.
TEST(PartialEnumCheckpointed, DepthZeroDegeneratesToFixedGreedy) {
  const Instance inst = cap_scenario(4, 30, 10, 0.4);
  PartialEnumOptions opts;
  opts.seed_size = 0;
  const PartialEnumResult r = partial_enum_unit_skew(inst, opts);
  EXPECT_EQ(r.candidates_evaluated, 2u);
  const SmdSolveResult fixed = solve_unit_skew(inst);
  EXPECT_TRUE(util::approx_eq(r.best.utility, fixed.utility));
}

// The candidate safety valve still truncates the walk.
TEST(PartialEnumCheckpointed, MaxCandidatesTruncates) {
  const Instance inst = cap_scenario(2, 20, 8, 0.6);
  PartialEnumOptions opts;
  opts.seed_size = 2;
  opts.max_candidates = 5;
  const PartialEnumResult r = partial_enum_unit_skew(inst, opts);
  EXPECT_TRUE(r.truncated);
  EXPECT_LE(r.candidates_evaluated, 2u + 5u + 1u);
}

// Workspace reuse across enumerations (the checkpoint arena persists in
// the workspace) must not change results.
TEST(PartialEnumCheckpointed, WorkspaceReuseAcrossSolvesIsInvariant) {
  SolveWorkspace ws;
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    const Instance inst = cap_scenario(seed, 25, 8, 0.4);
    PartialEnumOptions with_ws;
    with_ws.seed_size = 2;
    with_ws.workspace = &ws;
    PartialEnumOptions fresh = with_ws;
    fresh.workspace = nullptr;
    const PartialEnumResult a = partial_enum_unit_skew(inst, with_ws);
    const PartialEnumResult b = partial_enum_unit_skew(inst, fresh);
    EXPECT_EQ(a.best.utility, b.best.utility) << seed;
    EXPECT_EQ(a.best.variant, b.best.variant) << seed;
    EXPECT_EQ(a.candidates_evaluated, b.candidates_evaluated) << seed;
    EXPECT_EQ(pairs(a.best.assignment), pairs(b.best.assignment)) << seed;
  }
}

// Both selection strategies drive the checkpointed walk to the same
// answer.
TEST(PartialEnumCheckpointed, StrategiesAgree) {
  const Instance inst = cap_scenario(6, 30, 10, 0.35);
  PartialEnumOptions opts;
  opts.seed_size = 2;
  opts.strategy = SelectStrategy::kNaiveScan;
  const PartialEnumResult naive = partial_enum_unit_skew(inst, opts);
  opts.strategy = SelectStrategy::kDelta;
  const PartialEnumResult delta = partial_enum_unit_skew(inst, opts);
  EXPECT_EQ(delta.best.utility, naive.best.utility);
  EXPECT_EQ(delta.best.variant, naive.best.variant);
  EXPECT_EQ(pairs(delta.best.assignment), pairs(naive.best.assignment));
}

}  // namespace
}  // namespace vdist::core
