// engine::Session — the serving-session parity suite of ISSUE 5:
//   * the resolve policy is bit-identical to a one-shot from-scratch
//     solve of the materialized overlay after EVERY event (objective and
//     assignment pairs);
//   * the repair policy stays within the configured quality bound of a
//     from-scratch solve at every prefix when drift checks run per event;
//   * `serve` sweeps are deterministic across BatchRunner thread counts.
#include "engine/session.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>

#include "core/greedy.h"
#include "engine/batch.h"
#include "engine/registry.h"
#include "engine/scenario.h"
#include "gen/events.h"
#include "gen/random_instances.h"
#include "model/factory.h"
#include "model/overlay.h"
#include "model/validate.h"
#include "workload/workload.h"

namespace vdist::engine {
namespace {

using model::EventType;
using model::Instance;
using model::InstanceEvent;
using model::StreamId;
using model::UserId;

Instance churn_base(std::uint64_t seed, std::size_t streams = 40,
                    std::size_t users = 16) {
  gen::RandomCapConfig cfg;
  cfg.num_streams = streams;
  cfg.num_users = users;
  cfg.seed = seed;
  return gen::random_cap_instance(cfg);
}

std::vector<InstanceEvent> churn_trace(const Instance& inst,
                                       std::size_t events,
                                       std::uint64_t seed) {
  gen::EventTraceConfig cfg;
  cfg.num_events = events;
  cfg.seed = seed;
  return gen::make_event_trace(inst, cfg);
}

// Pair set of an assignment as sorted (user, stream) tuples, comparable
// across assignments built on different (id-compatible) instances.
std::vector<std::pair<UserId, StreamId>> pairs_of(const model::Assignment& a,
                                                  std::size_t num_users) {
  std::vector<std::pair<UserId, StreamId>> out;
  for (std::size_t u = 0; u < num_users; ++u)
    for (const StreamId s : a.streams_of(static_cast<UserId>(u)))
      out.emplace_back(static_cast<UserId>(u), s);
  std::sort(out.begin(), out.end());
  return out;
}

TEST(Session, RequiresCapForm) {
  model::InstanceBuilder b(2, 1);
  b.set_budget(0, 1.0);
  b.set_budget(1, 1.0);
  const Instance mmd = std::move(b).build();
  EXPECT_THROW(Session{mmd}, std::invalid_argument);
}

TEST(Session, ParsePolicyNamesRoundTrip) {
  EXPECT_EQ(parse_serve_policy("repair"), ServePolicy::kRepair);
  EXPECT_EQ(parse_serve_policy("resolve"), ServePolicy::kResolve);
  EXPECT_EQ(parse_serve_policy("online"), ServePolicy::kOnline);
  EXPECT_THROW(parse_serve_policy("rapair"), std::invalid_argument);
  EXPECT_STREQ(to_string(ServePolicy::kRepair), "repair");
}

// The differential anchor of the whole API: replaying any event trace
// under the resolve policy must equal solving the materialized snapshot
// from scratch — bit-identical objective, identical pair set — at every
// prefix, across seeds.
TEST(Session, ResolveBitIdenticalToFromScratchAtEveryPrefix) {
  for (const std::uint64_t seed : {3u, 17u}) {
    const Instance inst = churn_base(seed);
    const auto trace = churn_trace(inst, 80, seed + 100);
    SessionOptions opts;
    opts.policy = ServePolicy::kResolve;
    Session session(inst, opts);
    std::size_t step = 0;
    for (const InstanceEvent& event : trace) {
      session.apply(event);
      ++step;
      const Instance snap = session.overlay().materialize();
      const core::SmdSolveResult fresh = core::solve_unit_skew(snap);
      ASSERT_EQ(session.objective(), fresh.utility)
          << "seed " << seed << " event " << step;
      ASSERT_EQ(pairs_of(session.assignment(), inst.num_users()),
                pairs_of(fresh.assignment, snap.num_users()))
          << "seed " << seed << " event " << step;
    }
    EXPECT_EQ(session.counters().events, trace.size());
    EXPECT_EQ(session.counters().full_resolves, trace.size() + 1);
  }
}

// With per-event drift checks the repair policy must stay within the
// configured bound of a from-scratch solve at every prefix.
TEST(Session, RepairStaysWithinQualityBoundAtEveryPrefix) {
  for (const std::uint64_t seed : {5u, 23u}) {
    const Instance inst = churn_base(seed);
    const auto trace = churn_trace(inst, 120, seed + 7);
    SessionOptions opts;
    opts.policy = ServePolicy::kRepair;
    opts.quality_bound = 0.05;
    opts.refresh_interval = 1;  // check (and self-correct) every event
    Session session(inst, opts);
    for (const InstanceEvent& event : trace) {
      session.apply(event);
      const Instance snap = session.overlay().materialize();
      const core::SmdSolveResult fresh = core::solve_unit_skew(snap);
      const double drift = (fresh.utility - session.objective()) /
                           std::max(fresh.utility, 1.0);
      ASSERT_LE(drift, opts.quality_bound + 1e-9)
          << "seed " << seed << " after " << session.counters().events
          << " events";
    }
    // Local repair must actually carry most events — a session that
    // resolves everything is not exercising the incremental path.
    EXPECT_GT(session.counters().local_repairs,
              session.counters().full_resolves);
    EXPECT_EQ(session.counters().drift_checks, trace.size());
  }
}

// The repair policy's maintained winner is a genuinely feasible solution
// for the world it serves (the materialized overlay).
TEST(Session, RepairAssignmentFeasibleOnTheMaterializedWorld) {
  const Instance inst = churn_base(9);
  const auto trace = churn_trace(inst, 100, 31);
  SessionOptions opts;
  opts.policy = ServePolicy::kRepair;
  Session session(inst, opts);
  for (const InstanceEvent& event : trace) session.apply(event);
  const Instance snap = session.overlay().materialize();
  model::Assignment on_snap(snap);
  for (const auto& [u, s] : pairs_of(session.assignment(), inst.num_users()))
    on_snap.assign(u, s);
  EXPECT_TRUE(model::validate(on_snap).feasible());
}

TEST(Session, RepairStatsReportWhatHappened) {
  const Instance inst = model::build_cap_instance(
      {2.0, 3.0, 4.0}, 6.0, {10.0, 12.0},
      {{0, 0, 4.0}, {1, 0, 5.0}, {0, 1, 6.0}, {1, 2, 7.0}});
  SessionOptions opts;
  opts.policy = ServePolicy::kRepair;
  opts.refresh_interval = 0;  // isolate the local path
  Session session(inst, opts);
  const double opening = session.objective();
  EXPECT_GT(opening, 0.0);
  EXPECT_EQ(session.counters().full_resolves, 1u);  // the opening solve

  // Removing an added stream must release it and let the completion
  // spend the freed budget: dropping stream 1 (cost 3) leaves cost 2
  // committed, so stream 2 (cost 4) now fits B = 6.
  InstanceEvent remove;
  remove.type = EventType::kStreamRemove;
  remove.stream = 1;
  const RepairStats stats = session.apply(remove);
  EXPECT_EQ(stats.action, RepairAction::kLocalRepair);
  EXPECT_EQ(stats.streams_released, 1u);
  EXPECT_GE(stats.users_refreshed, 1u);
  EXPECT_GE(stats.streams_added, 1u);  // stream 2 now fits
  EXPECT_GT(stats.objective, 0.0);
  EXPECT_GE(stats.wall_ms, 0.0);

  InstanceEvent leave;
  leave.type = EventType::kUserLeave;
  leave.user = 1;
  const RepairStats leave_stats = session.apply(leave);
  EXPECT_EQ(leave_stats.streams_added, 0u)
      << "a departure frees nothing; no completion should run";
  EXPECT_LT(leave_stats.objective, stats.objective);
}

TEST(Session, AppendEventsGrowTheWorldUnderResolveParity) {
  const Instance inst = churn_base(13, 20, 8);
  SessionOptions opts;
  opts.policy = ServePolicy::kResolve;
  Session session(inst, opts);

  InstanceEvent join;
  join.type = EventType::kUserJoin;
  join.user = static_cast<UserId>(inst.num_users());  // append
  join.value = 25.0;
  join.interests = {{/*stream=*/0, model::kInvalidUser, 5.0},
                    {/*stream=*/3, model::kInvalidUser, 4.0}};
  session.apply(join);
  EXPECT_EQ(session.overlay().num_users(), inst.num_users() + 1);
  EXPECT_EQ(session.overlay().generation(), 1u);

  InstanceEvent add;
  add.type = EventType::kStreamAdd;
  add.stream = static_cast<StreamId>(inst.num_streams());  // append
  add.value = 1.0;  // cost
  add.interests = {{model::kInvalidStream, /*user=*/0, 3.0},
                   {model::kInvalidStream, join.user, 2.0}};
  session.apply(add);
  EXPECT_EQ(session.overlay().num_streams(), inst.num_streams() + 1);

  const Instance snap = session.overlay().materialize();
  const core::SmdSolveResult fresh = core::solve_unit_skew(snap);
  EXPECT_EQ(session.objective(), fresh.utility);
  EXPECT_EQ(pairs_of(session.assignment(), snap.num_users()),
            pairs_of(fresh.assignment, snap.num_users()));
}

TEST(Session, AppendEventsRepairStaysBounded) {
  const Instance inst = churn_base(29, 20, 8);
  SessionOptions opts;
  opts.policy = ServePolicy::kRepair;
  opts.refresh_interval = 1;
  Session session(inst, opts);
  InstanceEvent join;
  join.type = EventType::kUserJoin;
  join.user = static_cast<UserId>(inst.num_users());
  join.value = 30.0;
  join.interests = {{/*stream=*/1, model::kInvalidUser, 6.0}};
  session.apply(join);
  const Instance snap = session.overlay().materialize();
  const core::SmdSolveResult fresh = core::solve_unit_skew(snap);
  EXPECT_LE((fresh.utility - session.objective()) /
                std::max(fresh.utility, 1.0),
            opts.quality_bound + 1e-9);
}

TEST(Session, OnlinePolicyServesAndReleases) {
  const Instance inst = churn_base(7, 30, 12);
  SessionOptions opts;
  opts.policy = ServePolicy::kOnline;
  Session session(inst, opts);
  const SessionCounters& counters = session.counters();
  EXPECT_EQ(counters.online_accepts + counters.online_rejects,
            inst.num_streams())
      << "the opening pass offers every alive stream once";
  const double before = session.objective();
  EXPECT_GT(before, 0.0);

  // A departure drops the departed user's served utility from the
  // ground-truth objective without revoking any decision.
  InstanceEvent leave;
  leave.type = EventType::kUserLeave;
  UserId served = model::kInvalidUser;
  for (std::size_t u = 0; u < inst.num_users() && served < 0; ++u)
    if (!session.assignment().streams_of(static_cast<UserId>(u)).empty())
      served = static_cast<UserId>(u);
  ASSERT_GE(served, 0);
  leave.user = served;
  const RepairStats stats = session.apply(leave);
  EXPECT_EQ(stats.action, RepairAction::kOnlineStep);
  EXPECT_LT(session.objective(), before);

  // Removing an accepted stream releases its budget and loads.
  InstanceEvent remove;
  remove.type = EventType::kStreamRemove;
  StreamId carried = model::kInvalidStream;
  for (std::size_t s = 0; s < inst.num_streams() && carried < 0; ++s)
    if (session.assignment().in_range(static_cast<StreamId>(s)))
      carried = static_cast<StreamId>(s);
  ASSERT_GE(carried, 0);
  remove.stream = carried;
  const RepairStats rstats = session.apply(remove);
  EXPECT_EQ(rstats.streams_released, 1u);
  EXPECT_FALSE(session.assignment().in_range(carried));
}

TEST(Session, OpenEmptyStartsWithNothingServed) {
  const Instance inst = churn_base(3, 15, 6);
  SessionOptions opts;
  opts.policy = ServePolicy::kRepair;
  opts.open_empty = true;
  Session session(inst, opts);
  EXPECT_EQ(session.objective(), 0.0);
  EXPECT_EQ(session.assignment().num_assigned_pairs(), 0u);
  InstanceEvent add;
  add.type = EventType::kStreamAdd;
  add.stream = 0;
  session.apply(add);
  EXPECT_TRUE(session.objective() > 0.0 ||
              session.assignment().num_assigned_pairs() == 0);
}

TEST(Session, InvalidEventIdsThrowAndLeaveStateIntact) {
  const Instance inst = churn_base(5, 10, 5);
  for (const ServePolicy policy :
       {ServePolicy::kRepair, ServePolicy::kResolve, ServePolicy::kOnline}) {
    SessionOptions opts;
    opts.policy = policy;
    Session session(inst, opts);
    const double before = session.objective();
    InstanceEvent bad;
    bad.type = EventType::kUserLeave;
    bad.user = 999;
    EXPECT_THROW(session.apply(bad), std::invalid_argument);
    InstanceEvent bad_stream;
    bad_stream.type = EventType::kStreamAdd;
    bad_stream.stream = 999;
    EXPECT_THROW(session.apply(bad_stream), std::invalid_argument);
    // A utility change names BOTH ids; a bad stream on a valid user must
    // be rejected before any pre-event snapshot reads the pair.
    InstanceEvent bad_pair;
    bad_pair.type = EventType::kUtilityChange;
    bad_pair.user = 0;
    bad_pair.stream = 999;
    bad_pair.value = 1.0;
    EXPECT_THROW(session.apply(bad_pair), std::invalid_argument);
    EXPECT_EQ(session.counters().events, 0u);
    EXPECT_EQ(session.objective(), before);
  }
}

// --- registry integration ---------------------------------------------------

TEST(ServeSolver, RegisteredAndStrictAboutOptions) {
  const SolverRegistry& registry = SolverRegistry::global();
  ASSERT_TRUE(registry.contains("serve"));
  const Instance inst = churn_base(2, 25, 10);
  SolveRequest req;
  req.instance = &inst;
  req.algorithm = "serve";
  req.options.set("policy", "resolve").set("events", 40);
  req.strict = true;
  const SolveResult r = engine::solve(req);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_GT(r.objective, 0.0);
  EXPECT_EQ(r.stat("events"), 40.0);
  EXPECT_EQ(r.stat("full_resolves"), 41.0);  // opening + per event
  EXPECT_GT(r.stat("select_picks"), 0.0);

  SolveRequest typo = req;
  typo.options.set("polcy", "resolve");
  const SolveResult bad = engine::solve(typo);
  EXPECT_FALSE(bad.ok);
  EXPECT_NE(bad.error.find("polcy"), std::string::npos);
}

TEST(ServeSolver, RepairTracksResolveObjectiveWithinBound) {
  const Instance inst = churn_base(8, 30, 12);
  SolveRequest req;
  req.instance = &inst;
  req.algorithm = "serve";
  req.seed = 5;
  req.options.set("events", 150).set("bound", 0.05).set("refresh", 1);
  req.options.set("policy", "repair");
  const SolveResult repair = engine::solve(req);
  req.options.set("policy", "resolve");
  const SolveResult resolve = engine::solve(req);
  ASSERT_TRUE(repair.ok) << repair.error;
  ASSERT_TRUE(resolve.ok) << resolve.error;
  // Same derived trace (same seed), so the end states are comparable.
  EXPECT_NEAR(repair.objective, resolve.objective,
              0.06 * std::max(resolve.objective, 1.0));
  EXPECT_GT(repair.stat("local_repairs"), repair.stat("full_resolves"));
}

TEST(ServeSolver, DeterministicAcrossBatchRunnerThreadCounts) {
  const Instance inst = churn_base(4, 30, 12);
  std::vector<SolveRequest> requests;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    for (const char* policy : {"repair", "resolve", "online"}) {
      SolveRequest req;
      req.instance = &inst;
      req.algorithm = "serve";
      req.seed = seed;
      req.options.set("policy", policy).set("events", 60);
      requests.push_back(std::move(req));
    }
  }
  std::vector<std::vector<SolveResult>> runs;
  for (const unsigned threads : {1u, 4u})
    runs.push_back(solve_batch(requests, {.num_threads = threads}));
  ASSERT_EQ(runs[0].size(), requests.size());
  for (std::size_t i = 0; i < runs[0].size(); ++i) {
    ASSERT_TRUE(runs[0][i].ok) << runs[0][i].error;
    EXPECT_EQ(runs[0][i].objective, runs[1][i].objective) << i;
    EXPECT_EQ(runs[0][i].assignment->num_assigned_pairs(),
              runs[1][i].assignment->num_assigned_pairs())
        << i;
  }
}

TEST(ChurnScenario, RegisteredAndLayersOverUnitSkewBases) {
  const ScenarioRegistry& registry = ScenarioRegistry::global();
  ASSERT_TRUE(registry.contains("churn"));
  ScenarioSpec spec;
  spec.name = "churn";
  spec.params.set("base", "cap").set("set", "streams=18,users=7");
  spec.params.set("events", 50);
  spec.seed = 6;
  const Instance churned = build_scenario(spec);
  EXPECT_EQ(churned.num_streams(), 18u);
  EXPECT_EQ(churned.num_users(), 7u);
  EXPECT_TRUE(churned.is_unit_skew());
  // Deterministic function of the spec.
  const Instance again = build_scenario(spec);
  EXPECT_EQ(churned.utility_upper_bound(), again.utility_upper_bound());
  // And genuinely different from the unchurned base.
  ScenarioSpec base;
  base.name = "cap";
  base.params.set("streams", 18).set("users", 7);
  base.seed = 6;
  const Instance plain = build_scenario(base);
  EXPECT_NE(churned.utility_upper_bound(), plain.utility_upper_bound());

  ScenarioSpec bad = spec;
  bad.params.set("base", "mmd");  // not unit-skew
  EXPECT_THROW(build_scenario(bad), std::invalid_argument);
}

// RepairCore keeps the Theorem 2.8 race terms incrementally: the per-user
// sums as per-block partials, the Amax argmax over the streams an event
// touched. At every event of a flash-crowd, a hetero-cap and a churn
// trace they must match a full winner_partial + amax_partial pass (the
// argmax exactly, the sums to 1e-12 relative), and winner_objective
// must equal race() over that pass. The world spans several user
// blocks; its loose budget lets completions add streams (and the churn
// trace releases them); the check runs in every build type, not only
// under the debug assert.
TEST(RepairCore, MaintainedRaceTermsMatchAFullPassAtEveryEvent) {
  const auto close = [](double a, double b) {
    return std::abs(a - b) <= 1e-12 * std::max(std::abs(a), std::abs(b));
  };
  gen::RandomCapConfig cfg;
  cfg.num_streams = 300;
  cfg.num_users = 600;
  cfg.interest_per_stream = 12.0;
  cfg.budget_fraction = 0.85;
  cfg.seed = 9;
  const Instance inst = gen::random_cap_instance(cfg);
  for (const std::string family : {"flash-crowd", "hetero-cap", "churn"}) {
    for (const core::SmdMode mode :
         {core::SmdMode::kFeasible, core::SmdMode::kAugmented}) {
      const std::vector<InstanceEvent> trace =
          workload::WorkloadRegistry::global().generate(
              family, inst, {{"events", "300"}, {"seed", "4"}});
      model::InstanceOverlay overlay(inst);
      const auto world = [&] {
        return WorldRef{&overlay.instance(), overlay.edge_utilities(),
                        overlay.total_utilities(), overlay.capacities(),
                        overlay.stream_alive_flags()};
      };
      core::SolveWorkspace ws;
      core::SelectStats select;
      RepairCore repair;
      const RepairCore::Context ctx{&ws, core::SelectStrategy::kDeltaHeap,
                                    mode};
      repair.resolve(world(), ctx, select);
      std::size_t added = 0;
      for (std::size_t i = 0; i < trace.size(); ++i) {
        const RepairCore::PreEvent pre = repair.pre_event(world(), trace[i]);
        overlay.apply(trace[i]);
        RepairStats stats;
        repair.post_event(world(), trace[i], pre, ctx, select, stats);
        added += stats.streams_added;
        if (i % 100 == 99) repair.resolve(world(), ctx, select);

        const WorldRef w = world();
        const RepairCore::RaceTerms& kept = repair.race_terms();
        const RepairCore::WinnerPartial full =
            repair.winner_partial(w, 0, w.num_users());
        const RepairCore::AmaxPartial amax =
            RepairCore::amax_partial(w, 0, w.num_streams());
        const std::string where = family + " event " + std::to_string(i);
        ASSERT_EQ(kept.amax.best, amax.best) << where;
        ASSERT_EQ(kept.amax.total, amax.total) << where;
        ASSERT_TRUE(close(kept.winner.capped, full.capped)) << where;
        ASSERT_TRUE(close(kept.winner.split.w1, full.split.w1)) << where;
        ASSERT_TRUE(close(kept.winner.split.w2, full.split.w2)) << where;
        const char* kept_variant = "";
        const char* full_variant = "";
        const double value = repair.winner_objective(w, mode, &kept_variant);
        const double expect = RepairCore::race(
            full, RepairCore::amax_value(w, amax), mode, &full_variant);
        ASSERT_TRUE(close(value, expect)) << where;
        ASSERT_STREQ(kept_variant, full_variant) << where;
      }
      EXPECT_GT(added, 0u) << family << ": no completion added a stream";
    }
  }
}

// The maintained Amax argmax keeps amax_partial's first-max rule on
// exact ties: when a stream returns with a total equal to the current
// argmax's, the lower id wins.
TEST(RepairCore, MaintainedAmaxBreaksExactTiesByLowestId) {
  // Streams 0 and 1 both total 5; stream 2 totals 3.
  const Instance inst = model::build_cap_instance(
      {1.0, 1.0, 1.0}, 1.0, {10.0, 10.0},
      {{0, 0, 2.0}, {1, 0, 3.0}, {0, 1, 5.0}, {1, 2, 3.0}});
  model::InstanceOverlay overlay(inst);
  const auto world = [&] {
    return WorldRef{&overlay.instance(), overlay.edge_utilities(),
                    overlay.total_utilities(), overlay.capacities(),
                    overlay.stream_alive_flags()};
  };
  core::SolveWorkspace ws;
  core::SelectStats select;
  RepairCore repair;
  const RepairCore::Context ctx{&ws, core::SelectStrategy::kDeltaHeap,
                                core::SmdMode::kFeasible};
  repair.resolve(world(), ctx, select);
  EXPECT_EQ(repair.race_terms().amax.best, 0);
  InstanceEvent event;
  for (const EventType type : {EventType::kStreamRemove,
                               EventType::kStreamAdd}) {
    event.type = type;
    event.stream = 0;
    const RepairCore::PreEvent pre = repair.pre_event(world(), event);
    overlay.apply(event);
    RepairStats stats;
    repair.post_event(world(), event, pre, ctx, select, stats);
    const RepairCore::AmaxPartial full =
        RepairCore::amax_partial(world(), 0, inst.num_streams());
    EXPECT_EQ(repair.race_terms().amax.best, full.best);
    EXPECT_EQ(repair.race_terms().amax.total, full.total);
  }
  EXPECT_EQ(repair.race_terms().amax.best, 0);  // 0 ties 1 and wins
}

}  // namespace
}  // namespace vdist::engine
