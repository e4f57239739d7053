// GreedyEngine checkpointing (core/greedy.h) and the checkpointed §2.3
// enumeration (core/partial_enum.h): restoring a frame and continuing
// must equal a fresh solve, scoring-mode results must match the
// materializing path, and the whole checkpointed enumeration must equal
// a from-scratch reference that re-solves every seed set independently
// (the PR-3 formulation).
#include <gtest/gtest.h>

#include "assignment_pairs.h"
#include "recorded_picks.h"

#include <algorithm>
#include <span>
#include <string>
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

using vdist::testing::accounting_of;
using vdist::testing::bits;
using vdist::testing::pairs;
using vdist::testing::recorded_picks;

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

// The engine's winner() for all four variants, in scoring mode (the
// picks replayed into the pair log) and in building mode (the live log):
// stream lists in per-user order and every accounting total, bit for
// bit, equal the reference greedy's assignment, split_last_stream's
// sides and best_single_stream. The log's split values are
// split_last_stream's bits; the accumulator-backed ones agree up to
// rounding.
TEST(GreedyCheckpoint, ScoringModeMatchesMaterializingMode) {
  std::size_t peeled = 0;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const Instance inst = cap_scenario(seed, 45, 14, 0.35);
    const InstanceView view = InstanceView::cap_form(inst);
    const GreedyResult reference = greedy_unit_skew(inst);
    const FeasibleSplit split = split_last_stream(inst, reference.assignment);
    const Assignment amax = best_single_stream(inst);
    const std::pair<const char*, const Assignment*> oracles[] = {
        {"greedy", &reference.assignment},
        {"A1", &split.a1},
        {"A2", &split.a2},
        {"Amax", &amax}};
    if (split.a1.num_assigned_pairs() < reference.assignment.num_assigned_pairs())
      ++peeled;
    for (const bool build : {false, true}) {
      const std::string where = "seed " + std::to_string(seed) +
                                (build ? " building" : " scoring");
      SolveWorkspace ws;
      GreedyEngine engine(view, ws, {SelectStrategy::kDelta, &ws, build});
      engine.run();
      EXPECT_EQ(engine.capped_utility(), reference.capped_utility) << where;
      const SplitValues values = engine.split_values();
      EXPECT_TRUE(util::approx_eq(values.w1, split.w1)) << where;
      EXPECT_TRUE(util::approx_eq(values.w2, split.w2)) << where;
      for (const auto& [variant, oracle] : oracles)
        EXPECT_TRUE(accounting_of(engine.winner(variant)) ==
                    accounting_of(*oracle))
            << where << " " << variant;
      const SplitValues logged = split_pair_log(view, ws);
      EXPECT_EQ(bits(logged.w1), bits(split.w1)) << where;
      EXPECT_EQ(bits(logged.w2), bits(split.w2)) << where;
    }
  }
  EXPECT_GT(peeled, 0u) << "no seed exercised the A1 peel";
}

// --- The checkpointed enumeration vs a from-scratch reference ----------

// A directly evaluated seed set, built from scratch: the streams handed
// out in order under the greedy's saturation rule, with its capped
// utility.
GreedyResult seed_only(const Instance& inst, std::span<const StreamId> set) {
  GreedyResult g{Assignment(inst), 0.0, {}, {}};
  std::vector<double> rem(inst.num_users());
  for (std::size_t u = 0; u < rem.size(); ++u)
    rem[u] = inst.capacity(static_cast<UserId>(u), 0);
  for (StreamId s : set) {
    for (model::EdgeId e = inst.first_edge(s); e < inst.last_edge(s); ++e) {
      const UserId u = inst.edge_user(e);
      const double w = inst.edge_utility(e);
      if (rem[static_cast<std::size_t>(u)] <= util::kAbsEps || w <= 0.0)
        continue;
      g.assignment.assign(u, s);
      g.capped_utility += std::min(w, rem[static_cast<std::size_t>(u)]);
      rem[static_cast<std::size_t>(u)] -= w;
    }
  }
  return g;
}

// The enumeration scores its seed-only sets on the workspace of a live
// scoring-mode engine. The pair log of such a set must leave the
// engine's state alone, and each user's peel must follow the set's own
// pairs, not the engine's accumulators: the greedy's picks without the
// first one give many users other sums than the engine holds. Capped
// utility, split values and the winners of all three semi-feasible
// variants equal the from-scratch set and split_last_stream, bit for bit.
TEST(GreedyCheckpoint, SeedOnlySetsScoreOnALiveEngineWorkspace) {
  std::size_t peels_differ = 0;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const Instance inst = cap_scenario(seed, 45, 14, 0.35);
    const InstanceView view = InstanceView::cap_form(inst);
    const GreedyResult reference = greedy_unit_skew(inst);
    const CompletionTrace picks = recorded_picks(view);
    std::vector<StreamId> set;
    for (std::size_t i = 1; i < picks.num_picks(); ++i)
      if (picks.applied[i] != 0) set.push_back(picks.pick[i]);
    const GreedyResult want = seed_only(inst, set);
    const FeasibleSplit split = split_last_stream(inst, want.assignment);

    SolveWorkspace ws;
    GreedyEngine engine(view, ws, {SelectStrategy::kDelta, &ws, false});
    engine.run();
    const std::vector<double> rem = ws.rem;
    const std::vector<double> user_w = ws.user_w;
    const std::string where = "seed " + std::to_string(seed);
    EXPECT_EQ(bits(log_fresh_pairs(view, set, ws)),
              bits(want.capped_utility))
        << where;
    const SplitValues got = split_pair_log(view, ws);
    EXPECT_EQ(bits(got.w1), bits(split.w1)) << where;
    EXPECT_EQ(bits(got.w2), bits(split.w2)) << where;
    const std::pair<const char*, const Assignment*> oracles[] = {
        {"greedy", &want.assignment}, {"A1", &split.a1}, {"A2", &split.a2}};
    for (const auto& [variant, oracle] : oracles)
      EXPECT_TRUE(accounting_of(build_winner(view, ws, variant)) ==
                  accounting_of(*oracle))
          << where << " " << variant;
    EXPECT_EQ(ws.rem, rem) << where;
    EXPECT_EQ(ws.user_w, user_w) << where;
    EXPECT_TRUE(accounting_of(engine.winner("greedy")) ==
                accounting_of(reference.assignment))
        << where;
    for (std::size_t uu = 0; uu < inst.num_users(); ++uu) {
      const auto u = static_cast<UserId>(uu);
      if (want.assignment.streams_of(u).empty()) continue;
      const double cap = view.capacity(u);
      if (split_peels_last(user_w[uu], cap) !=
          split_peels_last(want.assignment.user_utility(u), cap))
        ++peels_differ;
    }
  }
  EXPECT_GT(peels_differ, 0u) << "the engine's sums decide every peel alike";
}

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
        offer(seed_only(inst, current));
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
    // Depth 3 evaluates seed-only sets of two streams, where a user can
    // hold two streams and the A1 peel fires.
    for (const int depth : {1, 2, 3}) {
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
