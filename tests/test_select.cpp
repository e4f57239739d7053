// The selection kernel (core/select.h): differential equivalence of the
// delta (winner-tree) and naive-scan strategies, the deterministic
// tie-break contract, exact delta propagation via update(), and
// SolveWorkspace reuse.
#include "core/select.h"

#include <gtest/gtest.h>

#include "assignment_pairs.h"
#include "recorded_picks.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "core/greedy.h"
#include "core/partial_enum.h"
#include "engine/registry.h"
#include "engine/scenario.h"
#include "model/factory.h"
#include "model/instance.h"
#include "model/view.h"
#include "util/rng.h"

namespace vdist::core {
namespace {

using engine::ScenarioRegistry;
using engine::ScenarioSpec;
using engine::SolveRequest;
using engine::SolveResult;
using model::Instance;
using model::StreamId;
using model::UserId;

using vdist::testing::pairs;
using vdist::testing::recorded_picks;

SolveResult solve_with(const Instance& inst, const std::string& algorithm,
                       const char* select, SolveWorkspace* ws = nullptr) {
  SolveRequest req;
  req.instance = &inst;
  req.algorithm = algorithm;
  req.options.set("select", select);
  if (algorithm == "enum") req.options.set("depth", 2);
  req.strict = true;
  req.workspace = ws;
  return engine::solve(req);
}

// Every algorithm that funnels through the kernel, applicable to `inst`.
std::vector<std::string> kernel_algorithms(const Instance& inst) {
  std::vector<std::string> algos = {"pipeline"};
  if (inst.is_smd()) algos.push_back("bands");
  if (inst.is_smd() && inst.is_unit_skew()) {
    algos.push_back("greedy");
    algos.push_back("greedy-plain");
    algos.push_back("greedy-augmented");
    algos.push_back("enum");
  }
  return algos;
}

// The headline differential guarantee: on every registered scenario, for
// several seeds, every kernel-backed algorithm produces the identical
// assignment, objective, variant and pick count under both strategies
// (exact delta propagation, naive rescan).
TEST(SelectKernel, AllStrategiesMatchOnEveryRegisteredScenario) {
  const ScenarioRegistry& registry = ScenarioRegistry::global();
  for (const std::string& name : registry.names()) {
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      ScenarioSpec spec;
      spec.name = name;
      spec.seed = seed;
      const Instance inst = engine::build_scenario(spec);
      for (const std::string& algo : kernel_algorithms(inst)) {
        const SolveResult naive = solve_with(inst, algo, "naive");
        ASSERT_TRUE(naive.ok) << name << "/" << algo << ": " << naive.error;
        const SolveResult delta = solve_with(inst, algo, "delta");
        ASSERT_TRUE(delta.ok) << name << "/" << algo << ": " << delta.error;
        EXPECT_EQ(delta.objective, naive.objective)
            << name << "/" << algo << " seed " << seed;
        EXPECT_EQ(delta.variant, naive.variant)
            << name << "/" << algo << " seed " << seed;
        // Work counters match across strategies except under "enum",
        // where the shared-prefix replay (delta only) scores most
        // leaves without touching the kernel — fewer picks, same bits.
        if (algo != "enum") {
          EXPECT_EQ(delta.stat("select_picks"), naive.stat("select_picks"))
              << name << "/" << algo << " seed " << seed;
        }
        EXPECT_EQ(pairs(delta.solution()), pairs(naive.solution()))
            << name << "/" << algo << " seed " << seed;
      }
    }
  }
}

// Traces — the exact pick order, and which picks fit the budget — must
// match too, not just the final assignment.
TEST(SelectKernel, GreedyTracesIdenticalAcrossStrategies) {
  for (const char* scenario : {"cap", "trace"}) {
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
      ScenarioSpec spec;
      spec.name = scenario;
      spec.seed = seed;
      const Instance inst = engine::build_scenario(spec);
      const GreedyResult naive =
          greedy_unit_skew(inst, {SelectStrategy::kNaiveScan, nullptr});
      const GreedyResult delta =
          greedy_unit_skew(inst, {SelectStrategy::kDelta, nullptr});
      const CompletionTrace naive_picks =
          recorded_picks(inst, SelectStrategy::kNaiveScan);
      const CompletionTrace delta_picks =
          recorded_picks(inst, SelectStrategy::kDelta);
      EXPECT_EQ(delta_picks.pick, naive_picks.pick)
          << scenario << " seed " << seed;
      EXPECT_EQ(delta_picks.applied, naive_picks.applied)
          << scenario << " seed " << seed;
      EXPECT_EQ(delta.trace.num_considered, naive.trace.num_considered);
      EXPECT_EQ(delta.trace.skipped_budget, naive.trace.skipped_budget);
      EXPECT_EQ(delta.capped_utility, naive.capped_utility);
      EXPECT_EQ(delta.select.picks, naive.select.picks);
    }
  }
}

// The delta strategy must be equivalent *and* cheaper: far fewer
// effectiveness evaluations than the rescan.
TEST(SelectKernel, DeltaEvaluatesFarLessThanNaive) {
  ScenarioSpec spec;
  spec.name = "cap";
  spec.params.set("streams", 300).set("users", 80);
  spec.seed = 7;
  const Instance inst = engine::build_scenario(spec);
  const GreedyResult delta =
      greedy_unit_skew(inst, {SelectStrategy::kDelta, nullptr});
  const GreedyResult naive =
      greedy_unit_skew(inst, {SelectStrategy::kNaiveScan, nullptr});
  EXPECT_EQ(delta.capped_utility, naive.capped_utility);
  EXPECT_LT(delta.select.evaluations * 10, naive.select.evaluations);
}

// Exact effectiveness tie: the larger residual utility w̄ wins.
TEST(SelectKernel, TieBreakPrefersLargerResidual) {
  // eff(s0) = 4/2 = 2, eff(s1) = 6/3 = 2 (tie), eff(s2) = 1.
  const Instance inst = model::build_cap_instance(
      {2.0, 3.0, 1.0}, 100.0, {100.0},
      {{0, 0, 4.0}, {0, 1, 6.0}, {0, 2, 1.0}});
  for (const SelectStrategy strategy :
       {SelectStrategy::kDelta, SelectStrategy::kNaiveScan}) {
    const CompletionTrace rec = recorded_picks(inst, strategy);
    ASSERT_GE(rec.pick.size(), 2u) << to_string(strategy);
    EXPECT_EQ(rec.pick[0], 1) << to_string(strategy);
    EXPECT_EQ(rec.pick[1], 0) << to_string(strategy);
  }
}

// Near-tie (within the library tolerance): both effectiveness values and
// residuals count as tied, so the lowest stream id wins — even though
// stream 1's effectiveness is bit-wise larger. An exact `==` tie-break
// would pick stream 1 here.
TEST(SelectKernel, NearTieFallsBackToLowestStreamId) {
  const double w0 = 5.0;
  const double w1 = 5.0 + 5e-12;  // relative difference 1e-12 << 1e-9
  const Instance inst = model::build_cap_instance(
      {1.0, 1.0}, 100.0, {100.0}, {{0, 0, w0}, {0, 1, w1}});
  for (const SelectStrategy strategy :
       {SelectStrategy::kDelta, SelectStrategy::kNaiveScan}) {
    const CompletionTrace rec = recorded_picks(inst, strategy);
    ASSERT_FALSE(rec.pick.empty());
    EXPECT_EQ(rec.pick[0], 0) << to_string(strategy);
  }
}

// Zero-cost streams have infinite effectiveness; infinities tie only
// with each other and then fall back to w̄ and id like everything else.
TEST(SelectKernel, ZeroCostStreamsRankFirstUnderBothStrategies) {
  const Instance inst = model::build_cap_instance(
      {0.0, 0.0, 1.0}, 1.0, {100.0},
      {{0, 0, 0.5}, {0, 1, 2.0}, {0, 2, 50.0}});
  for (const SelectStrategy strategy :
       {SelectStrategy::kDelta, SelectStrategy::kNaiveScan}) {
    const CompletionTrace rec = recorded_picks(inst, strategy);
    ASSERT_GE(rec.pick.size(), 3u);
    EXPECT_EQ(rec.pick[0], 1) << "larger w̄ among the two infs";
    EXPECT_EQ(rec.pick[1], 0);
    EXPECT_EQ(rec.pick[2], 2);
  }
}

// The StreamSelector itself: pops drain the pool in effectiveness order,
// remove() excludes streams, stats count picks.
TEST(StreamSelector, PopsInEffectivenessOrderAndHonorsRemove) {
  SolveWorkspace ws;
  ws.wbar = {10.0, 30.0, 20.0, 5.0};
  ws.cost = {1.0, 1.0, 1.0, 1.0};
  for (const SelectStrategy strategy :
       {SelectStrategy::kDelta, SelectStrategy::kNaiveScan}) {
    StreamSelector sel;
    sel.reset(ws, ws.wbar, ws.cost, strategy);
    EXPECT_EQ(sel.pool_size(), 4u);
    sel.remove(2);
    EXPECT_FALSE(sel.contains(2));
    EXPECT_EQ(sel.pop_best(), 1);
    EXPECT_EQ(sel.pop_best(), 0);
    EXPECT_EQ(sel.pop_best(), 3);
    EXPECT_EQ(sel.pop_best(), model::kInvalidStream);
    EXPECT_EQ(sel.stats().picks, 3u);
  }
}

// Exact delta propagation: update(s, w̄) demotes exactly the touched
// stream; untouched entries stay fresh and are never re-evaluated.
TEST(StreamSelector, DeltaUpdateDemotesExactlyLikeARescan) {
  SolveWorkspace ws;
  ws.wbar = {8.0, 10.0, 6.0, 7.0};
  ws.cost = {1.0, 1.0, 1.0, 1.0};
  StreamSelector sel;
  sel.reset(ws, ws.wbar, ws.cost, SelectStrategy::kDelta);
  const std::size_t evals_after_reset = sel.stats().evaluations;
  EXPECT_EQ(sel.pop_best(), 1);
  // Demote stream 0 below everything; streams 2 and 3 stay fresh.
  ws.wbar[0] = 0.5;
  sel.update(0, ws.wbar[0]);
  EXPECT_EQ(sel.pop_best(), 3);
  EXPECT_EQ(sel.pop_best(), 2);
  EXPECT_EQ(sel.pop_best(), 0);
  EXPECT_EQ(sel.pop_best(), model::kInvalidStream);
  // Only the one touched stream ever re-evaluated.
  EXPECT_EQ(sel.stats().evaluations, evals_after_reset + 1);
}

// A selector kept alive across many rounds (the serving engine's repair
// completion) sees pops, removes, w̄ decreases, w̄ increases with
// readmission, and over-budget skips that rejoin at the end of their
// completion — interleaved with save()/restore() of the whole state,
// w̄ included, as the §2.3 enumeration's frames do. After every operation
// it must pop exactly what a selector reset() from scratch on the same
// pool pops, under both strategies. The coarse value grids make exact
// and tolerance ties common; the probe pop is readmitted at once.
TEST(StreamSelector, PersistentSelectorMatchesAFreshResetAfterEveryOp) {
  constexpr std::size_t n = 48;
  for (const SelectStrategy strategy :
       {SelectStrategy::kDelta, SelectStrategy::kNaiveScan}) {
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      util::Rng rng(seed);
      std::vector<double> wbar(n);
      std::vector<double> cost(n);
      for (std::size_t s = 0; s < n; ++s) {
        wbar[s] = 0.5 * static_cast<double>(rng.uniform_int(1, 12));
        cost[s] = static_cast<double>(rng.uniform_int(0, 4));
      }
      SolveWorkspace ws;
      SolveWorkspace scratch;
      StreamSelector sel;
      sel.reset(ws, wbar, cost, strategy);
      std::vector<char> member(n, 1);
      std::vector<StreamId> skipped;
      // The last save(): the selector's checkpoint plus the model state
      // it was taken with.
      SelectorCheckpoint cp;
      bool saved = false;
      std::vector<double> saved_wbar;
      std::vector<char> saved_member;
      std::vector<StreamId> saved_skipped;

      const auto probe = [&](int step) {
        StreamSelector fresh;
        fresh.reset(scratch, wbar, cost, strategy);
        std::size_t pool = 0;
        for (std::size_t s = 0; s < n; ++s) {
          if (member[s] == 0) fresh.remove(static_cast<StreamId>(s));
          pool += member[s] != 0 ? 1 : 0;
        }
        ASSERT_EQ(sel.pool_size(), pool)
            << to_string(strategy) << " step " << step;
        const StreamId want = fresh.pop_best();
        const StreamId got = sel.pop_best();
        ASSERT_EQ(got, want) << to_string(strategy) << " seed " << seed
                             << " step " << step;
        if (got != model::kInvalidStream) sel.readmit(got);
      };

      for (int step = 0; step < 600; ++step) {
        const auto t = static_cast<StreamId>(
            rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
        const auto tt = static_cast<std::size_t>(t);
        switch (rng.uniform_int(0, 7)) {
          case 0: {  // pop: the stream is taken and leaves the pool
            const StreamId s = sel.pop_best();
            if (s != model::kInvalidStream)
              member[static_cast<std::size_t>(s)] = 0;
            break;
          }
          case 1:  // remove: the stream died
            sel.remove(t);
            member[tt] = 0;
            break;
          case 2:  // w̄ decrease
            wbar[tt] *= 0.25 * static_cast<double>(rng.uniform_int(1, 3));
            if (member[tt] != 0) sel.update(t, wbar[tt]);
            break;
          case 3:  // w̄ increase, or a re-entry
            wbar[tt] += 0.5 * static_cast<double>(rng.uniform_int(1, 6));
            sel.readmit(t);
            member[tt] = 1;
            break;
          case 4: {  // over-budget skip: out for this completion only
            const StreamId s = sel.pop_best();
            if (s != model::kInvalidStream) {
              member[static_cast<std::size_t>(s)] = 0;
              skipped.push_back(s);
            }
            break;
          }
          case 5:  // the completion ends: skipped streams rejoin
            for (const StreamId s : skipped) {
              if (member[static_cast<std::size_t>(s)] != 0) continue;
              sel.readmit(s);
              member[static_cast<std::size_t>(s)] = 1;
            }
            skipped.clear();
            break;
          case 6:  // save a frame
            sel.save(cp);
            saved = true;
            saved_wbar = wbar;
            saved_member = member;
            saved_skipped = skipped;
            break;
          default:  // rewind to the last frame
            if (!saved) break;
            // w̄ is restored in place: the selector borrows the array.
            sel.restore(cp);
            std::copy(saved_wbar.begin(), saved_wbar.end(), wbar.begin());
            member = saved_member;
            skipped = saved_skipped;
            break;
        }
        probe(step);
        if (::testing::Test::HasFatalFailure()) return;
      }
    }
  }
}

// Selector checkpointing: save/restore rewinds the pool and tree so the
// same pops replay identically; the stats keep counting monotonically.
TEST(StreamSelector, SaveRestoreReplaysPops) {
  SolveWorkspace ws;
  ws.wbar = {8.0, 10.0, 6.0};
  ws.cost = {1.0, 1.0, 1.0};
  StreamSelector sel;
  sel.reset(ws, ws.wbar, ws.cost, SelectStrategy::kDelta);
  SelectorCheckpoint cp;
  sel.save(cp);
  EXPECT_EQ(sel.pop_best(), 1);
  EXPECT_EQ(sel.pop_best(), 0);
  const std::size_t picks_before = sel.stats().picks;
  sel.restore(cp);
  EXPECT_EQ(sel.pool_size(), 3u);
  EXPECT_EQ(sel.pop_best(), 1);
  EXPECT_EQ(sel.pop_best(), 0);
  EXPECT_EQ(sel.pop_best(), 2);
  EXPECT_EQ(sel.stats().picks, picks_before + 3);
}

// A checkpoint taken AFTER updates must carry the tree verbatim —
// including the stale key left by update() (the delta strategy defers
// the re-evaluation to pop time, so the saved tree and dirty bytes hold
// a lazy key whose refresh must replay identically after restore).
TEST(StreamSelector, SaveAfterUpdatesRestoresStaleState) {
  SolveWorkspace ws;
  ws.wbar = {8.0, 10.0, 6.0, 4.0};
  ws.cost = {1.0, 1.0, 1.0, 1.0};
  StreamSelector sel;
  sel.reset(ws, ws.wbar, ws.cost, SelectStrategy::kDelta);
  EXPECT_EQ(sel.pop_best(), 1);
  // Demote stream 0 below 2 and 3 without touching the tree: the stale
  // key 8.0 still sits at the top until a pop refreshes it.
  ws.wbar[0] = 0.5;
  sel.update(0, ws.wbar[0]);
  SelectorCheckpoint cp;
  sel.save(cp);
  EXPECT_EQ(sel.pop_best(), 2);
  EXPECT_EQ(sel.pop_best(), 3);
  EXPECT_EQ(sel.pop_best(), 0);
  const std::size_t evals_first_drain = sel.stats().evaluations;
  sel.restore(cp);
  EXPECT_EQ(sel.pool_size(), 3u);
  EXPECT_EQ(sel.pop_best(), 2);
  EXPECT_EQ(sel.pop_best(), 3);
  EXPECT_EQ(sel.pop_best(), 0);
  EXPECT_EQ(sel.pop_best(), model::kInvalidStream);
  // The replay re-evaluates exactly what the first drain did: one lazy
  // refresh of the demoted stream 0.
  EXPECT_EQ(sel.stats().evaluations, evals_first_drain + 1);
}

// The naive strategy's checkpoint is just the pool: save/restore must
// replay the scan picks (and their evaluation counts) identically.
TEST(StreamSelector, NaiveSaveRestoreReplaysScans) {
  SolveWorkspace ws;
  ws.wbar = {8.0, 10.0, 6.0};
  ws.cost = {1.0, 1.0, 1.0};
  StreamSelector sel;
  sel.reset(ws, ws.wbar, ws.cost, SelectStrategy::kNaiveScan);
  EXPECT_EQ(sel.pop_best(), 1);
  SelectorCheckpoint cp;
  sel.save(cp);
  EXPECT_EQ(sel.pop_best(), 0);
  const std::size_t evals_before = sel.stats().evaluations;
  sel.restore(cp);
  EXPECT_EQ(sel.pool_size(), 2u);
  EXPECT_EQ(sel.pop_best(), 0);
  EXPECT_EQ(sel.pop_best(), 2);
  EXPECT_EQ(sel.pop_best(), model::kInvalidStream);
  // Two scans over a 2- then 1-entry pool.
  EXPECT_EQ(sel.stats().evaluations, evals_before + 3);
}

// Drains a delta and a naive selector side by side, checking every pop
// and, before it, the exact top effectiveness (settle_top_eff) for
// identity; returns the pop order.
std::vector<StreamId> drain_in_lockstep(StreamSelector& delta,
                                        StreamSelector& naive) {
  std::vector<StreamId> order;
  for (;;) {
    EXPECT_EQ(delta.pool_size(), naive.pool_size());
    EXPECT_EQ(delta.settle_top_eff(), naive.settle_top_eff());
    const StreamId d = delta.pop_best();
    const StreamId n = naive.pop_best();
    EXPECT_EQ(d, n) << "pop " << order.size();
    if (d == model::kInvalidStream || d != n) return order;
    order.push_back(d);
  }
}

std::vector<StreamId> drain_both(std::vector<double> wbar,
                                 std::vector<double> cost) {
  SolveWorkspace dws;
  SolveWorkspace nws;
  StreamSelector delta;
  StreamSelector naive;
  delta.reset(dws, wbar, cost, SelectStrategy::kDelta);
  naive.reset(nws, wbar, cost, SelectStrategy::kNaiveScan);
  return drain_in_lockstep(delta, naive);
}

// Kernel edge cases, each popped in lockstep with the naive scan: pool
// sizes at and around powers of two (the tree pads its leaf row to one),
// all-equal keys (the lowest id wins), equal effectiveness with
// different w̄ (the larger residual wins), and zero-cost streams (a
// positive residual keys +inf, infinities tie with each other and then
// w̄ decides; a dead one keys 0).
TEST(StreamSelector, EdgeCasesMatchTheNaiveScanPopForPop) {
  for (const std::size_t n : {0u, 1u, 2u, 3u, 5u, 8u, 9u}) {
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      util::Rng rng(seed);
      std::vector<double> wbar(n);
      std::vector<double> cost(n);
      for (std::size_t s = 0; s < n; ++s) {
        wbar[s] = 0.5 * static_cast<double>(rng.uniform_int(0, 6));
        cost[s] = static_cast<double>(rng.uniform_int(0, 3));
      }
      EXPECT_EQ(drain_both(wbar, cost).size(), n)
          << "n " << n << " seed " << seed;
    }
  }
  struct Case {
    std::vector<double> wbar;
    std::vector<double> cost;
    std::vector<StreamId> order;
  };
  const Case cases[] = {
      {std::vector<double>(9, 3.0), std::vector<double>(9, 1.0),
       {0, 1, 2, 3, 4, 5, 6, 7, 8}},
      {{2.0, 4.0, 6.0, 1.0}, {1.0, 2.0, 3.0, 0.5}, {2, 1, 0, 3}},
      {{1.0, 5.0, 0.0, 5.0, 2.0}, {0.0, 0.0, 0.0, 1.0, 1.0}, {1, 0, 3, 4, 2}},
  };
  for (const Case& c : cases) EXPECT_EQ(drain_both(c.wbar, c.cost), c.order);
}

// readmit() of a stream that left the pool while its leaf still held a
// stale key (update() then remove(), never surfaced) replaces that key —
// upward and downward — and so does readmit() of a popped stream.
TEST(StreamSelector, ReadmitReplacesAStaleLeafOfARemovedStream) {
  for (const double back : {7.0, 5.0, 11.0}) {
    std::vector<double> wbar = {8.0, 10.0, 6.0, 4.0};
    const std::vector<double> cost(4, 1.0);
    SolveWorkspace dws;
    SolveWorkspace nws;
    StreamSelector delta;
    StreamSelector naive;
    delta.reset(dws, wbar, cost, SelectStrategy::kDelta);
    naive.reset(nws, wbar, cost, SelectStrategy::kNaiveScan);
    wbar[1] = 1.0;  // stream 1's key 10 goes stale at the root
    for (StreamSelector* sel : {&delta, &naive}) {
      sel->update(1, wbar[1]);
      sel->remove(1);
    }
    wbar[1] = back;
    for (StreamSelector* sel : {&delta, &naive}) sel->readmit(1);
    // Pop the best, then readmit it with a smaller residual.
    const StreamId first = delta.pop_best();
    EXPECT_EQ(naive.pop_best(), first) << "back " << back;
    wbar[static_cast<std::size_t>(first)] = 4.5;
    for (StreamSelector* sel : {&delta, &naive}) sel->readmit(first);
    EXPECT_EQ(drain_in_lockstep(delta, naive).size(), 4u) << "back " << back;
  }
}

// The §2.3 recorder's CompletionTrace is the same under both strategies,
// field for field — including each pick's settled runner-up, which the
// naive strategy computes with a pool scan.
TEST(SelectKernel, CompletionTracesIdenticalAcrossStrategies) {
  const ScenarioRegistry& registry = ScenarioRegistry::global();
  std::size_t recorded = 0;
  for (const std::string& name : registry.names()) {
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      ScenarioSpec spec;
      spec.name = name;
      spec.seed = seed;
      const Instance inst = engine::build_scenario(spec);
      if (!inst.is_smd() || !inst.is_unit_skew()) continue;
      const model::InstanceView view = model::InstanceView::cap_form(inst);
      CompletionTrace trace[2];
      const SelectStrategy strategies[2] = {SelectStrategy::kDelta,
                                            SelectStrategy::kNaiveScan};
      for (int k = 0; k < 2; ++k) {
        SolveWorkspace ws;
        GreedyOptions opts;
        opts.strategy = strategies[k];
        opts.workspace = &ws;
        opts.build_assignment = false;
        GreedyEngine engine(view, ws, opts);
        engine.run(trace[k]);
      }
      const CompletionTrace& d = trace[0];
      const CompletionTrace& n = trace[1];
      const std::string what = name + " seed " + std::to_string(seed);
      EXPECT_EQ(d.pick, n.pick) << what;
      EXPECT_EQ(d.applied, n.applied) << what;
      EXPECT_EQ(d.runner_up, n.runner_up) << what;
      EXPECT_EQ(d.pick_eff, n.pick_eff) << what;
      EXPECT_EQ(d.margin_clear, n.margin_clear) << what;
      EXPECT_EQ(d.tie_begin, n.tie_begin) << what;
      EXPECT_EQ(d.tie_member, n.tie_member) << what;
      EXPECT_EQ(d.assign_begin, n.assign_begin) << what;
      EXPECT_EQ(d.assign_user, n.assign_user) << what;
      EXPECT_EQ(d.assign_w, n.assign_w) << what;
      EXPECT_EQ(d.assign_umask, n.assign_umask) << what;
      EXPECT_EQ(d.touch_begin, n.touch_begin) << what;
      EXPECT_EQ(d.touch_stream, n.touch_stream) << what;
      EXPECT_EQ(d.touch_wbar, n.touch_wbar) << what;
      EXPECT_EQ(d.death_begin, n.death_begin) << what;
      EXPECT_EQ(d.death_stream, n.death_stream) << what;
      EXPECT_EQ(d.ended_on_budget, n.ended_on_budget) << what;
      EXPECT_EQ(d.end_used, n.end_used) << what;
      EXPECT_EQ(d.final_user_w, n.final_user_w) << what;
      EXPECT_EQ(d.final_user_last_w, n.final_user_last_w) << what;
      EXPECT_EQ(d.final_w1_add, n.final_w1_add) << what;
      EXPECT_EQ(d.final_w2_add, n.final_w2_add) << what;
      EXPECT_EQ(d.user_tl_begin, n.user_tl_begin) << what;
      EXPECT_EQ(d.tl_pick, n.tl_pick) << what;
      EXPECT_EQ(d.tl_w, n.tl_w) << what;
      ++recorded;
    }
  }
  EXPECT_GT(recorded, 0u);
}

// Two sequential solves on one workspace must equal two fresh solves —
// across different instances, sizes, and algorithms.
TEST(SolveWorkspace, SequentialSolvesMatchFreshSolves) {
  ScenarioSpec big;
  big.name = "cap";
  big.params.set("streams", 60).set("users", 20);
  big.seed = 11;
  ScenarioSpec small;
  small.name = "cap";
  small.params.set("streams", 25).set("users", 8);
  small.seed = 12;
  const Instance inst_big = engine::build_scenario(big);
  const Instance inst_small = engine::build_scenario(small);

  SolveWorkspace ws;
  // Big then small: shrinking buffers must not leak state.
  const GreedyResult reused_big =
      greedy_unit_skew(inst_big, {SelectStrategy::kDelta, &ws});
  const CompletionTrace reused_big_picks =
      recorded_picks(inst_big, SelectStrategy::kDelta, {}, &ws);
  const GreedyResult reused_small =
      greedy_unit_skew(inst_small, {SelectStrategy::kDelta, &ws});
  const CompletionTrace reused_small_picks =
      recorded_picks(inst_small, SelectStrategy::kDelta, {}, &ws);
  const GreedyResult fresh_big = greedy_unit_skew(inst_big);
  const GreedyResult fresh_small = greedy_unit_skew(inst_small);

  EXPECT_EQ(reused_big.capped_utility, fresh_big.capped_utility);
  EXPECT_EQ(reused_big_picks.pick, recorded_picks(inst_big).pick);
  EXPECT_EQ(pairs(reused_big.assignment), pairs(fresh_big.assignment));
  EXPECT_EQ(reused_small.capped_utility, fresh_small.capped_utility);
  EXPECT_EQ(reused_small_picks.pick, recorded_picks(inst_small).pick);
  EXPECT_EQ(pairs(reused_small.assignment), pairs(fresh_small.assignment));

  // And across algorithms: an enum solve after the greedy ones.
  PartialEnumOptions opts;
  opts.seed_size = 2;
  opts.workspace = &ws;
  const PartialEnumResult reused_enum =
      partial_enum_unit_skew(inst_small, opts);
  opts.workspace = nullptr;
  const PartialEnumResult fresh_enum =
      partial_enum_unit_skew(inst_small, opts);
  EXPECT_EQ(reused_enum.best.utility, fresh_enum.best.utility);
  EXPECT_EQ(pairs(reused_enum.best.assignment),
            pairs(fresh_enum.best.assignment));
}

// The registry path: an explicit workspace on the request changes
// nothing about the result.
TEST(SolveWorkspace, RegistrySolvesAreWorkspaceInvariant) {
  ScenarioSpec spec;
  spec.name = "mmd";
  spec.seed = 3;
  const Instance inst = engine::build_scenario(spec);
  SolveWorkspace ws;
  const SolveResult with_ws = solve_with(inst, "pipeline", "delta", &ws);
  const SolveResult fresh = solve_with(inst, "pipeline", "delta");
  ASSERT_TRUE(with_ws.ok) << with_ws.error;
  ASSERT_TRUE(fresh.ok) << fresh.error;
  EXPECT_EQ(with_ws.objective, fresh.objective);
  EXPECT_EQ(pairs(with_ws.solution()), pairs(fresh.solution()));
}

// Option plumbing: `select` is declared (strict mode accepts it) and
// validated (a bogus value is an error result, not silence).
TEST(SelectKernel, SelectOptionIsDeclaredAndValidated) {
  ScenarioSpec spec;
  spec.name = "cap";
  spec.seed = 1;
  const Instance inst = engine::build_scenario(spec);
  for (const char* algo :
       {"greedy", "greedy-plain", "greedy-augmented", "enum", "bands",
        "pipeline"}) {
    const SolveResult ok = solve_with(inst, algo, "naive");
    EXPECT_TRUE(ok.ok) << algo << ": " << ok.error;
    const SolveResult bad = solve_with(inst, algo, "bogus");
    EXPECT_FALSE(bad.ok) << algo;
    EXPECT_NE(bad.error.find("select"), std::string::npos) << bad.error;
  }
  EXPECT_THROW(parse_select_strategy("fastest"), std::invalid_argument);
  EXPECT_EQ(parse_select_strategy("delta"), SelectStrategy::kDelta);
  EXPECT_EQ(parse_select_strategy("naive"), SelectStrategy::kNaiveScan);
  // The vocabulary is exactly delta|naive; any other name is refused
  // with that list.
  for (const char* retired : {"lazy", "heap", "scan"}) {
    const SolveResult r = solve_with(inst, "greedy", retired);
    EXPECT_FALSE(r.ok) << retired;
    EXPECT_NE(r.error.find("delta|naive"), std::string::npos) << r.error;
  }
}

// Seeded greedy through the kernel: seeds leave the pool, duplicates are
// ignored, and both strategies continue identically after the seeds.
TEST(SelectKernel, SeededGreedyIdenticalAcrossStrategies) {
  ScenarioSpec spec;
  spec.name = "cap";
  spec.params.set("streams", 40).set("users", 12)
      .set("budget-fraction", 0.5);
  spec.seed = 21;
  const Instance inst = engine::build_scenario(spec);
  const StreamId seeds[] = {3, 7, 3};  // duplicate on purpose
  const GreedyResult naive = greedy_unit_skew_seeded(
      inst, seeds, {SelectStrategy::kNaiveScan, nullptr});
  const GreedyResult delta = greedy_unit_skew_seeded(
      inst, seeds, {SelectStrategy::kDelta, nullptr});
  const CompletionTrace naive_picks =
      recorded_picks(inst, SelectStrategy::kNaiveScan, seeds);
  const CompletionTrace delta_picks =
      recorded_picks(inst, SelectStrategy::kDelta, seeds);
  EXPECT_EQ(delta_picks.pick, naive_picks.pick);
  EXPECT_EQ(delta_picks.applied, naive_picks.applied);
  EXPECT_EQ(delta.capped_utility, naive.capped_utility);
  EXPECT_EQ(delta.trace.num_considered, naive.trace.num_considered);
  // The seeds left the pool: the completion never picks them.
  ASSERT_FALSE(naive_picks.pick.empty());
  EXPECT_EQ(std::count(naive_picks.pick.begin(), naive_picks.pick.end(),
                       StreamId{3}),
            0);
  EXPECT_EQ(std::count(naive_picks.pick.begin(), naive_picks.pick.end(),
                       StreamId{7}),
            0);
  // The duplicate seed was dropped: the run is the one seeded {3, 7}.
  const StreamId distinct[] = {3, 7};
  const GreedyResult once = greedy_unit_skew_seeded(
      inst, distinct, {SelectStrategy::kNaiveScan, nullptr});
  EXPECT_EQ(naive.trace.num_considered, once.trace.num_considered);
  EXPECT_EQ(naive.capped_utility, once.capped_utility);
  EXPECT_EQ(pairs(naive.assignment), pairs(once.assignment));
  EXPECT_EQ(naive_picks.pick,
            recorded_picks(inst, SelectStrategy::kNaiveScan, distinct).pick);
}

}  // namespace
}  // namespace vdist::core
