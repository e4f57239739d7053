// engine::Session — the serving-session parity suite of ISSUE 5:
//   * the resolve policy is bit-identical to a one-shot from-scratch
//     solve of the materialized overlay after EVERY event (objective and
//     assignment pairs);
//   * the repair policy stays within the configured quality bound of a
//     from-scratch solve at every prefix when drift checks run per event;
//   * `serve` sweeps are deterministic across BatchRunner thread counts.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <climits>
#include <cstdint>
#include <cmath>
#include <limits>
#include <map>
#include <set>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "assignment_pairs.h"
#include "pairwise_sum.h"
#include "core/greedy.h"
#include "engine/batch.h"
#include "engine/registry.h"
#include "engine/scenario.h"
#include "engine/serving.h"
#include "gen/random_instances.h"
#include "io/event_io.h"
#include "io/instance_io.h"
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
  return workload::WorkloadRegistry::global().generate(
      "churn", inst,
      {{"events", std::to_string(events)}, {"seed", std::to_string(seed)}});
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
  EXPECT_THROW((void)parse_serve_policy("rapair"), std::invalid_argument);
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
    ServeConfig opts;
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
    ServeConfig opts;
    opts.policy = ServePolicy::kRepair;
    opts.bound = 0.05;
    opts.refresh = 1;  // check (and self-correct) every event
    Session session(inst, opts);
    for (const InstanceEvent& event : trace) {
      session.apply(event);
      const Instance snap = session.overlay().materialize();
      const core::SmdSolveResult fresh = core::solve_unit_skew(snap);
      const double drift = (fresh.utility - session.objective()) /
                           std::max(fresh.utility, 1.0);
      ASSERT_LE(drift, opts.bound + 1e-9)
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
  ServeConfig opts;
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
  ServeConfig opts;
  opts.policy = ServePolicy::kRepair;
  opts.refresh = 0;  // isolate the local path
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
  ServeConfig opts;
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
  ServeConfig opts;
  opts.policy = ServePolicy::kRepair;
  opts.refresh = 1;
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
            opts.bound + 1e-9);
}

TEST(Session, OnlinePolicyServesAndReleases) {
  const Instance inst = churn_base(7, 30, 12);
  ServeConfig opts;
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
  ServeConfig opts;
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
    ServeConfig opts;
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

// The overlay's canonical messages reach the caller, rejected events
// leave no trace in the counters, and the session keeps serving with
// parity afterwards — for the two policies that keep a maintained winner.
TEST(Session, RejectedEventsNameTheOverlayErrorAndServingContinues) {
  const Instance inst = churn_base(71, 25, 12);
  for (const ServePolicy policy :
       {ServePolicy::kResolve, ServePolicy::kRepair}) {
    ServeConfig opts;
    opts.policy = policy;
    opts.refresh = 1;
    Session session(inst, opts);
    const double before = session.objective();

    InstanceEvent bad;
    bad.type = EventType::kUserLeave;
    bad.user = 999;
    try {
      session.apply(bad);
      ADD_FAILURE() << "unknown user must throw";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("user_leave: unknown user 999"),
                std::string::npos)
          << e.what();
    }
    bad.type = EventType::kStreamRemove;
    bad.stream = -1;
    EXPECT_THROW(session.apply(bad), std::invalid_argument);
    InstanceEvent bad_cap;
    bad_cap.type = EventType::kCapacityChange;
    bad_cap.user = 0;
    bad_cap.value = -2.0;
    EXPECT_THROW(session.apply(bad_cap), std::invalid_argument);

    EXPECT_EQ(session.counters().events, 0u);
    EXPECT_EQ(session.objective(), before);
    InstanceEvent ok;
    ok.type = EventType::kUserLeave;
    ok.user = 0;
    session.apply(ok);
    EXPECT_EQ(session.counters().events, 1u);
    const ParityReport parity = session.check_parity();
    EXPECT_TRUE(parity.ok) << to_string(policy) << ": " << parity.detail;
  }
}

// --- Replay determinism and the parity report ----------------------------

// Two sessions fed the same trace agree at every prefix: same objective,
// same pair set, same race winner, same counters. Serving has no hidden
// state beyond (instance, options, events).
TEST(Session, ReplayIsDeterministicAcrossSessions) {
  const Instance inst = churn_base(23, 25, 12);
  const auto trace = churn_trace(inst, 60, 7);
  for (const ServePolicy policy :
       {ServePolicy::kRepair, ServePolicy::kResolve, ServePolicy::kOnline}) {
    ServeConfig opts;
    opts.policy = policy;
    opts.refresh = 8;
    Session a(inst, opts);
    Session b(inst, opts);
    for (std::size_t i = 0; i < trace.size(); ++i) {
      a.apply(trace[i]);
      b.apply(trace[i]);
      ASSERT_EQ(a.objective(), b.objective())
          << to_string(policy) << " event " << i;
      ASSERT_EQ(pairs_of(a.assignment(), a.instance().num_users()),
                pairs_of(b.assignment(), b.instance().num_users()))
          << to_string(policy) << " event " << i;
      ASSERT_STREQ(a.variant(), b.variant())
          << to_string(policy) << " event " << i;
    }
    EXPECT_EQ(a.counters().local_repairs, b.counters().local_repairs);
    EXPECT_EQ(a.counters().full_resolves, b.counters().full_resolves);
    EXPECT_EQ(a.counters().drift_checks, b.counters().drift_checks);
    EXPECT_EQ(a.counters().online_accepts, b.counters().online_accepts);
    EXPECT_EQ(a.select_stats().picks, b.select_stats().picks);
  }
}

// check_parity() under resolve reports zero drift and a fresh value equal
// to the maintained one after every event; the snapshot it solves keeps
// the world's shape.
TEST(Session, CheckParityHoldsAfterEveryResolveEvent) {
  const Instance inst = churn_base(31, 25, 12);
  ServeConfig cfg;
  cfg.policy = ServePolicy::kResolve;
  const auto backend = make_backend(inst, cfg);
  for (const InstanceEvent& event : churn_trace(inst, 25, 13)) {
    backend->apply(event);
    const ParityReport parity = backend->check_parity();
    EXPECT_TRUE(parity.ok) << parity.detail;
    EXPECT_EQ(parity.current, backend->objective());
    EXPECT_EQ(parity.current, parity.fresh);
    EXPECT_EQ(parity.drift, 0.0);
  }
  const Instance snap = backend->snapshot();
  EXPECT_EQ(snap.num_users(), inst.num_users());
  EXPECT_EQ(snap.num_streams(), inst.num_streams());
}

// The same gate under repair with a drift check per event, driven through
// ServeConfig and make_backend: every event passes the bound, every event
// is drift-checked, and the maintained assignment is feasible on the
// maintained world.
TEST(Session, CheckParityHoldsUnderRepairWithPerEventRefresh) {
  const Instance inst = churn_base(41, 25, 12);
  ServeConfig cfg;
  cfg.policy = ServePolicy::kRepair;
  cfg.refresh = 1;
  cfg.bound = 0.05;
  const auto backend = make_backend(inst, cfg);
  const auto trace = churn_trace(inst, 30, 19);
  for (const InstanceEvent& event : trace) {
    backend->apply(event);
    const ParityReport parity = backend->check_parity();
    EXPECT_TRUE(parity.ok) << parity.detail;
    EXPECT_LE(parity.drift, cfg.bound + 1e-9);
  }
  EXPECT_EQ(backend->counters().drift_checks, trace.size());
  const Instance snap = backend->snapshot();
  model::Assignment on_snap(snap);
  for (const auto& [u, s] : pairs_of(backend->assignment(), snap.num_users()))
    on_snap.assign(u, s);
  EXPECT_TRUE(model::validate(on_snap).feasible());
}

// Events no generator emits, because they push pairs across their cap: a
// cap below a user's pairs, a utility above its cap, then the caps lifted
// again. View and snapshot give such a pair one meaning, so resolve stays
// bit-equal to the from-scratch solve, repair stays within its bound, and
// the repair assignment stays feasible on the snapshot.
TEST(Session, CapCrossingEventsKeepParityUnderEveryPolicy) {
  const Instance inst = churn_base(2, 20, 10);
  std::vector<InstanceEvent> trace;
  for (UserId u = 0; u < 5; ++u) {
    const auto edges = inst.edges_of(u);
    if (edges.empty()) continue;
    const double cap = inst.capacity(u, 0);
    double top = 0.0;
    for (const model::EdgeId e : edges) top = std::max(top, inst.edge_utility(e));
    trace.push_back({.type = EventType::kCapacityChange, .user = u,
                     .value = 0.5 * top, .interests = {}});
    trace.push_back({.type = EventType::kUtilityChange, .user = u,
                     .stream = inst.streams_of(u).front(), .value = 3.0 * cap,
                     .interests = {}});
  }
  for (UserId u = 0; u < 5; ++u)
    trace.push_back({.type = EventType::kCapacityChange, .user = u,
                     .value = 4.0 * inst.capacity(u, 0), .interests = {}});
  for (const ServePolicy policy : {ServePolicy::kResolve, ServePolicy::kRepair}) {
    ServeConfig cfg;
    cfg.policy = policy;
    cfg.refresh = 1;
    const auto backend = make_backend(inst, cfg);
    for (std::size_t i = 0; i < trace.size(); ++i) {
      backend->apply(trace[i]);
      const ParityReport parity = backend->check_parity();
      EXPECT_TRUE(parity.ok) << to_string(policy) << " event " << i << ": "
                             << parity.detail;
      const Instance snap = backend->snapshot();
      model::Assignment on_snap(snap);
      for (const auto& [u, s] :
           pairs_of(backend->assignment(), snap.num_users()))
        on_snap.assign(u, s);
      EXPECT_TRUE(model::validate(on_snap).feasible())
          << to_string(policy) << " event " << i;
    }
  }
}

#ifndef VDIST_TESTS_DIR
#define VDIST_TESTS_DIR "tests"
#endif

// check_parity's solve is value-only (no assignment built): after every
// event of a churn trace and of the committed cap-crossing trace its
// fresh value is, bit for bit, the full solve_unit_skew of the snapshot,
// under both policies that check against it; resolve parity stays ok.
TEST(Session, ValueOnlyParitySolveEqualsTheFullSolveAfterEveryEvent) {
  struct World {
    std::string name;
    Instance inst;
    std::vector<InstanceEvent> trace;
  };
  const std::string traces = VDIST_TESTS_DIR "/../bench/traces/";
  std::vector<World> worlds;
  worlds.push_back({"churn", churn_base(29, 30, 14), {}});
  worlds.back().trace = churn_trace(worlds.back().inst, 40, 129);
  worlds.push_back({"contract_breakers",
                    io::load_instance_file(traces + "contract_breakers.vd"),
                    io::load_events_file(traces + "contract_breakers.events")});
  for (const World& world : worlds) {
    for (const ServePolicy policy :
         {ServePolicy::kRepair, ServePolicy::kResolve}) {
      ServeConfig cfg;
      cfg.policy = policy;
      Session session(world.inst, cfg);
      for (std::size_t i = 0; i < world.trace.size(); ++i) {
        session.apply(world.trace[i]);
        const std::string where = world.name + " " + to_string(policy) +
                                  " event " + std::to_string(i);
        const ParityReport parity = session.check_parity();
        const Instance snap = session.snapshot();
        core::GreedyOptions full;
        full.build_assignment = true;
        const core::SmdSolveResult fresh =
            core::solve_unit_skew(snap, cfg.mode, full);
        EXPECT_EQ(std::bit_cast<std::uint64_t>(parity.fresh),
                  std::bit_cast<std::uint64_t>(fresh.utility))
            << where;
        if (policy == ServePolicy::kResolve) {
          EXPECT_TRUE(parity.ok) << where << ": " << parity.detail;
        }
      }
    }
  }
}

// Under repair the parity check derives the snapshot's rows from the
// repair core's. After every event of a churn trace, of the committed
// cap-crossing trace and of the committed append trace, no row falls
// back to a sort — the repair's maintained rows are exact — and the
// fresh value is, bit for bit, a from-scratch solve of snapshot() on a
// fresh workspace. refresh 0 leaves every stale row to the check itself.
TEST(Session, RepairParityDerivesExactRowsAfterEveryEvent) {
  struct World {
    std::string name;
    Instance inst;
    std::vector<InstanceEvent> trace;
  };
  const std::string traces = VDIST_TESTS_DIR "/../bench/traces/";
  std::vector<World> worlds;
  worlds.push_back({"churn", churn_base(31, 30, 14), {}});
  worlds.back().trace = churn_trace(worlds.back().inst, 60, 131);
  worlds.push_back({"contract_breakers",
                    io::load_instance_file(traces + "contract_breakers.vd"),
                    io::load_events_file(traces + "contract_breakers.events")});
  worlds.push_back({"serve_appends",
                    io::load_instance_file(traces + "serve_smoke.vd"),
                    io::load_events_file(traces + "serve_appends.events")});
  for (const World& world : worlds) {
    for (const int refresh : {1, 0}) {
      ServeConfig cfg;
      cfg.policy = ServePolicy::kRepair;
      cfg.refresh = refresh;
      cfg.bound = refresh == 1 ? 0.05 : 1.0;
      Session session(world.inst, cfg);
      for (std::size_t i = 0; i < world.trace.size(); ++i) {
        session.apply(world.trace[i]);
        const std::string where = world.name + " refresh " +
                                  std::to_string(refresh) + " event " +
                                  std::to_string(i);
        const ParityReport parity = session.check_parity();
        EXPECT_EQ(parity.fallback_rows, 0u) << where;
        const core::SmdSolveResult fresh =
            core::solve_unit_skew(session.snapshot(), cfg.mode);
        EXPECT_EQ(std::bit_cast<std::uint64_t>(parity.fresh),
                  std::bit_cast<std::uint64_t>(fresh.utility))
            << where;
      }
    }
  }
}

// A parity check does not evict the drift check's rows: the drift check
// right after one sorts no more rows than the same drift check in a
// session that never checks parity, and the two sessions agree on every
// objective.
TEST(Session, DriftCheckAfterAParityCheckSortsNoMoreRows) {
  const Instance inst = churn_base(37, 30, 14);
  const auto trace = churn_trace(inst, 64, 137);
  ServeConfig cfg;
  cfg.policy = ServePolicy::kRepair;
  cfg.refresh = 4;
  Session checked(inst, cfg);
  Session plain(inst, cfg);
  std::size_t drift_checks = 0;
  for (std::size_t i = 0; i < trace.size(); ++i) {
    const std::size_t checked_before = checked.select_stats().rows_sorted;
    const std::size_t plain_before = plain.select_stats().rows_sorted;
    const RepairStats stats = checked.apply(trace[i]);
    (void)plain.apply(trace[i]);
    const std::string where = "event " + std::to_string(i);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(checked.objective()),
              std::bit_cast<std::uint64_t>(plain.objective()))
        << where;
    if (stats.drift_checked) {
      ++drift_checks;
      EXPECT_LE(checked.select_stats().rows_sorted - checked_before,
                plain.select_stats().rows_sorted - plain_before)
          << where;
    }
    // The event before each drift check ends on a parity check (whose
    // drift may still exceed the bound: that is the drift check's call).
    if ((i + 2) % 4 == 0) (void)checked.check_parity();
  }
  EXPECT_EQ(drift_checks, trace.size() / 4);
}

// A join with a NaN cap is rejected under every policy and leaves the
// session as it was: snapshot(), objective() and assignment() unchanged.
TEST(Session, NaNJoinCapIsRejectedWithTheSessionUnchanged) {
  const Instance inst = churn_base(43, 20, 10);
  const auto bits_of = [](std::span<const double> values) {
    std::vector<std::uint64_t> out;
    for (const double v : values)
      out.push_back(std::bit_cast<std::uint64_t>(v));
    return out;
  };
  for (const ServePolicy policy :
       {ServePolicy::kRepair, ServePolicy::kResolve, ServePolicy::kOnline}) {
    ServeConfig cfg;
    cfg.policy = policy;
    Session session(inst, cfg);
    for (const InstanceEvent& event : churn_trace(inst, 12, 143))
      session.apply(event);
    InstanceEvent leave;
    leave.type = EventType::kUserLeave;
    leave.user = 2;
    session.apply(leave);
    for (const bool departed : {true, false}) {
      const std::string where =
          std::string(to_string(policy)) + (departed ? " departed" : " alive");
      const Instance before = session.snapshot();
      const double objective = session.objective();
      const auto pairs = pairs_of(session.assignment(), inst.num_users());
      const std::size_t events = session.counters().events;
      InstanceEvent join;
      join.type = EventType::kUserJoin;
      join.user = 2;
      join.value = std::numeric_limits<double>::quiet_NaN();
      EXPECT_THROW(session.apply(join), std::invalid_argument) << where;
      const Instance after = session.snapshot();
      EXPECT_EQ(bits_of(after.edge_utilities()),
                bits_of(before.edge_utilities()))
          << where;
      EXPECT_EQ(bits_of(after.capacities_single_measure()),
                bits_of(before.capacities_single_measure()))
          << where;
      EXPECT_EQ(bits_of(after.stream_total_utilities()),
                bits_of(before.stream_total_utilities()))
          << where;
      EXPECT_EQ(std::bit_cast<std::uint64_t>(session.objective()),
                std::bit_cast<std::uint64_t>(objective))
          << where;
      EXPECT_EQ(pairs_of(session.assignment(), inst.num_users()), pairs)
          << where;
      EXPECT_EQ(session.counters().events, events) << where;
      join.value = 0.0;  // a real join goes through
      if (departed) session.apply(join);
    }
  }
}

// Under repair, assignment() is the race winner variant() names, built
// from the maintained pairs. A RepairCore mirrors the session event for
// event (and resolves when a drift check made the session resolve); from
// its pair log the test builds the semi-feasible assignment and then the
// oracle the variant names: the semi itself, split_last_stream's A1 or
// A2, or best_single_stream. At open and after every event of a churn
// trace and of the committed cap-crossing trace, under both modes, the
// session's assignment equals it: stream lists in per-user order and
// every accounting total, bit for bit. Two two-stream worlds make A2 and
// Amax win at open.
TEST(Session, RepairAssignmentIsTheWinnerBuiltFromThePairLog) {
  struct World {
    std::string name;
    Instance inst;
    std::vector<InstanceEvent> trace;
  };
  const std::string traces = VDIST_TESTS_DIR "/../bench/traces/";
  std::vector<World> worlds;
  worlds.push_back({"churn", churn_base(37, 30, 14), {}});
  worlds.back().trace = churn_trace(worlds.back().inst, 60, 137);
  worlds.push_back({"contract_breakers",
                    io::load_instance_file(traces + "contract_breakers.vd"),
                    io::load_events_file(traces + "contract_breakers.events")});
  // The greedy takes the small stream, then the big one past the cap:
  // A1 keeps the small one, A2 (tied with Amax, and first) the big one.
  worlds.push_back({"peel",
                    model::build_cap_instance({1.0, 9.0}, 10.0, {10.0},
                                              {{0, 0, 2.0}, {0, 1, 9.5}}),
                    {}});
  // §2.2's blocking example: the small stream leaves no budget for the
  // big one, which Amax serves.
  worlds.push_back({"blocking",
                    model::build_cap_instance({1.0, 10.0}, 10.0, {100.0},
                                              {{0, 0, 1.1}, {0, 1, 10.0}}),
                    {}});
  std::set<std::string> won;
  for (const World& world : worlds) {
    for (const core::SmdMode mode :
         {core::SmdMode::kFeasible, core::SmdMode::kAugmented}) {
      ServeConfig cfg;
      cfg.policy = ServePolicy::kRepair;
      cfg.mode = mode;
      Session session(world.inst, cfg);
      model::InstanceOverlay overlay(world.inst);
      const auto mirror_world = [&] {
        return WorldRef{&overlay.instance(), overlay.edge_utilities(),
                        overlay.total_utilities(), overlay.capacities(),
                        overlay.stream_alive_flags()};
      };
      core::SolveWorkspace ws;
      core::SelectStats select;
      RepairCore mirror;
      const RepairCore::Context ctx{&ws, cfg.strategy, mode};
      mirror.resolve(mirror_world(), ctx, select);
      for (std::size_t i = 0; i <= world.trace.size(); ++i) {
        // i == 0 checks the opening solve; i > 0 the state after event i - 1.
        if (i > 0) {
          const InstanceEvent& event = world.trace[i - 1];
          const RepairStats stats = session.apply(event);
          const RepairCore::PreEvent pre =
              mirror.pre_event(mirror_world(), event);
          overlay.apply(event);
          RepairStats mirrored;
          mirror.post_event(mirror_world(), event, pre, ctx, select, mirrored);
          if (stats.action == RepairAction::kFullResolve)
            mirror.resolve(mirror_world(), ctx, select);
        }
        const std::string where =
            world.name +
            (mode == core::SmdMode::kFeasible ? " feasible" : " augmented") +
            (i == 0 ? std::string(" at open")
                    : " after event " + std::to_string(i - 1));
        const char* variant = "";
        const double objective =
            mirror.winner_objective(mirror_world(), mode, &variant);
        ASSERT_EQ(testing::bits(objective), testing::bits(session.objective()))
            << where;
        ASSERT_STREQ(variant, session.variant()) << where;

        mirror.log_pairs(mirror_world(), ws);
        model::Assignment semi(overlay.instance());
        for (const core::AssignedPair& p : ws.pair_log)
          semi.assign_edge(p.user, p.stream, p.edge);
        const model::InstanceView view = overlay.view();
        const std::string_view v = variant;
        const model::Assignment oracle =
            v == "greedy" ? semi
            : v == "Amax" ? core::best_single_stream(view)
            : v == "A1"   ? core::split_last_stream(view, semi).a1
                          : core::split_last_stream(view, semi).a2;
        EXPECT_TRUE(testing::accounting_of(session.assignment()) ==
                    testing::accounting_of(oracle))
            << where << " (" << variant << ")";
        won.insert(variant);
      }
    }
  }
  EXPECT_EQ(won, (std::set<std::string>{"A1", "A2", "Amax", "greedy"}));
}

// The online policy has no per-event bound against the offline optimum:
// its parity report recomputes the objective from the snapshot, which
// equals the maintained one.
TEST(Session, OnlineCheckParityEchoesTheMaintainedObjective) {
  const Instance inst = churn_base(43, 25, 12);
  ServeConfig opts;
  opts.policy = ServePolicy::kOnline;
  Session session(inst, opts);
  for (const InstanceEvent& event : churn_trace(inst, 30, 11)) {
    session.apply(event);
    const ParityReport parity = session.check_parity();
    EXPECT_TRUE(parity.ok);
    EXPECT_EQ(parity.current, session.objective());
    EXPECT_EQ(parity.fresh, session.objective());
    EXPECT_STREQ(session.variant(), "online");
  }
  EXPECT_EQ(session.counters().events, 30u);
}

// The online objective from scratch, written apart from the session's:
// per user, the snapshot's row (ascending streams, w > 0 pairs only)
// filtered to the pairs the assignment serves, summed and capped; the
// capped terms are then summed pairwise in user order, padded with zeros
// to a power of two (the shape the session's sum tree keeps, by the
// test's own recursion).
double online_oracle(const Instance& snap, const model::Assignment& served) {
  std::vector<double> capped(snap.num_users(), 0.0);
  for (std::size_t uu = 0; uu < snap.num_users(); ++uu) {
    const auto u = static_cast<UserId>(uu);
    const auto streams = snap.streams_of(u);
    const auto edges = snap.edges_of(u);
    double acc = 0.0;
    for (std::size_t i = 0; i < streams.size(); ++i)
      if (served.has(u, streams[i])) acc += snap.edge_utility(edges[i]);
    if (acc > 0.0) capped[uu] = std::min(snap.capacity(u, 0), acc);
  }
  return testing::pairwise_sum(capped);
}

// The maintained online objective is the oracle's bit for bit, and
// check_parity agrees.
void expect_online_objective_exact(Session& session,
                                   const std::string& where) {
  const double want = online_oracle(session.snapshot(), session.assignment());
  ASSERT_EQ(std::bit_cast<std::uint64_t>(session.objective()),
            std::bit_cast<std::uint64_t>(want))
      << where << ": " << session.objective() << " vs " << want;
  const ParityReport parity = session.check_parity();
  EXPECT_TRUE(parity.ok) << where << ": " << parity.detail;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(parity.fresh),
            std::bit_cast<std::uint64_t>(want))
      << where;
}

// The online objective is maintained per event (only the users an event
// can move are re-summed); after every event of every workload family's
// trace and of the committed cap-crossing trace it equals the from-scratch
// value bit for bit.
TEST(Session, OnlineObjectiveEqualsTheRecomputationAfterEveryEvent) {
  struct World {
    std::string name;
    Instance inst;
    std::vector<InstanceEvent> trace;
  };
  const std::string traces = VDIST_TESTS_DIR "/../bench/traces/";
  std::vector<World> worlds;
  const workload::WorkloadRegistry& registry =
      workload::WorkloadRegistry::global();
  for (const std::string& family : registry.names()) {
    worlds.push_back({family, churn_base(61, 40, 18), {}});
    worlds.back().trace = registry.generate(
        family, worlds.back().inst, {{"events", "250"}, {"seed", "8"}});
  }
  worlds.push_back({"contract_breakers",
                    io::load_instance_file(traces + "contract_breakers.vd"),
                    io::load_events_file(traces + "contract_breakers.events")});
  for (const World& world : worlds) {
    ServeConfig cfg;
    cfg.policy = ServePolicy::kOnline;
    Session session(world.inst, cfg);
    expect_online_objective_exact(session, world.name + " open");
    std::size_t released = 0;
    for (std::size_t i = 0; i < world.trace.size(); ++i) {
      released += session.apply(world.trace[i]).streams_released;
      expect_online_objective_exact(
          session, world.name + " event " + std::to_string(i));
      if (HasFatalFailure()) return;
    }
    if (world.name == "churn") {
      EXPECT_GT(released, 0u) << "the churn trace releases no served stream";
    }
  }
}

// Each event kind the per-user update must get right, on one world: a
// user and a stream append (the base is rebuilt and edge ids renumbered),
// a leave and a rejoin, a capacity drop below a served pair (the
// overlay's cap rule zeroes it), a utility change on a served and on an
// unserved pair, and a remove and a restore of a served stream.
TEST(Session, OnlineObjectiveFollowsEveryEventKind) {
  const Instance inst = churn_base(71, 30, 12);
  ServeConfig cfg;
  cfg.policy = ServePolicy::kOnline;
  Session session(inst, cfg);
  expect_online_objective_exact(session, "open");
  const auto event = [](EventType type, UserId u, StreamId s, double v) {
    InstanceEvent ev;
    ev.type = type;
    ev.user = u;
    ev.stream = s;
    ev.value = v;
    return ev;
  };

  const auto new_user = static_cast<UserId>(inst.num_users());
  InstanceEvent user_append =
      event(EventType::kUserJoin, new_user, model::kInvalidStream, 40.0);
  user_append.interests = {{.stream = 1, .utility = 4.0},
                           {.stream = 5, .utility = 6.0}};
  session.apply(user_append);
  expect_online_objective_exact(session, "user append");
  InstanceEvent stream_append =
      event(EventType::kStreamAdd, model::kInvalidUser,
            static_cast<StreamId>(inst.num_streams()), 0.5);
  stream_append.interests = {{.user = 0, .utility = 2.0},
                             {.user = new_user, .utility = 7.0}};
  session.apply(stream_append);
  expect_online_objective_exact(session, "stream append");
  ASSERT_EQ(session.overlay().generation(), 2u);

  // A served pair (u, s) and an unserved interest pair (u, t) of the
  // same user, found on the rebuilt base.
  UserId u = model::kInvalidUser;
  StreamId s = model::kInvalidStream;
  StreamId t = model::kInvalidStream;
  for (std::size_t uu = 0; uu < session.overlay().num_users(); ++uu) {
    const auto cand = static_cast<UserId>(uu);
    const auto served = session.assignment().streams_of(cand);
    if (served.empty()) continue;
    for (const StreamId x : session.instance().streams_of(cand))
      if (std::find(served.begin(), served.end(), x) == served.end() &&
          session.overlay().pair_utility(cand, x) > 0.0) {
        u = cand;
        s = served.front();
        t = x;
        break;
      }
    if (u != model::kInvalidUser) break;
  }
  ASSERT_NE(u, model::kInvalidUser) << "no user with a served and an "
                                       "unserved pair";

  const double w = session.overlay().pair_utility(u, s);
  session.apply(event(EventType::kUtilityChange, u, s, 0.5 * w));
  expect_online_objective_exact(session, "utility change on a served pair");
  double before = session.objective();
  session.apply(event(EventType::kUtilityChange, u, t,
                      0.5 * session.overlay().pair_utility(u, t)));
  expect_online_objective_exact(session, "utility change on an unserved pair");
  EXPECT_EQ(session.objective(), before)
      << "an unserved pair moved the objective";

  const double cap = session.overlay().capacity(u);
  session.apply(event(EventType::kCapacityChange, u, model::kInvalidStream,
                      0.25 * w));
  EXPECT_EQ(session.overlay().pair_utility(u, s), 0.0)
      << "the cap rule should zero the served pair";
  expect_online_objective_exact(session, "capacity drop below a served pair");
  session.apply(event(EventType::kCapacityChange, u, model::kInvalidStream,
                      cap));
  expect_online_objective_exact(session, "capacity restored");

  before = session.objective();
  session.apply(event(EventType::kUserLeave, u, model::kInvalidStream, 0.0));
  expect_online_objective_exact(session, "leave");
  EXPECT_LT(session.objective(), before);
  session.apply(event(EventType::kUserJoin, u, model::kInvalidStream, 0.0));
  expect_online_objective_exact(session, "rejoin");
  EXPECT_EQ(session.objective(), before)
      << "a rejoin restores the user's served pairs";

  const RepairStats removed = session.apply(
      event(EventType::kStreamRemove, model::kInvalidUser, s, 0.0));
  EXPECT_EQ(removed.streams_released, 1u);
  expect_online_objective_exact(session, "remove a served stream");
  session.apply(event(EventType::kStreamAdd, model::kInvalidUser, s, 0.0));
  expect_online_objective_exact(session, "restore it");
}

// Appending a user and a stream rebases the overlay; churn over the grown
// world keeps resolve parity at every event.
TEST(Session, AppendsThenChurnKeepResolveParity) {
  const Instance inst = churn_base(53, 15, 8);
  ServeConfig opts;
  opts.policy = ServePolicy::kResolve;
  Session session(inst, opts);

  InstanceEvent user_append;
  user_append.type = EventType::kUserJoin;
  user_append.user = static_cast<UserId>(inst.num_users());
  user_append.value = 12.0;
  user_append.interests = {{.stream = 0, .utility = 3.0},
                           {.stream = 4, .utility = 2.5}};
  InstanceEvent stream_append;
  stream_append.type = EventType::kStreamAdd;
  stream_append.stream = static_cast<StreamId>(inst.num_streams());
  stream_append.value = 4.0;
  stream_append.interests = {{.user = 1, .utility = 2.0},
                             {.user = user_append.user, .utility = 1.5}};
  for (const InstanceEvent& event : {user_append, stream_append}) {
    session.apply(event);
    EXPECT_TRUE(session.check_parity().ok);
  }
  EXPECT_EQ(session.instance().num_users(), inst.num_users() + 1);
  EXPECT_EQ(session.instance().num_streams(), inst.num_streams() + 1);
  EXPECT_EQ(session.overlay().generation(), 2u);

  const Instance grown = session.snapshot();
  for (const InstanceEvent& event : churn_trace(grown, 20, 61)) {
    session.apply(event);
    const Instance snap = session.snapshot();
    const core::SmdSolveResult fresh = core::solve_unit_skew(snap);
    ASSERT_EQ(session.objective(), fresh.utility);
    ASSERT_EQ(pairs_of(session.assignment(), snap.num_users()),
              pairs_of(fresh.assignment, snap.num_users()));
  }
}

// --- Options that shape the event loop -------------------------------------

// refresh is the drift-check cadence: 0 never checks, k checks
// on every k-th event, and RepairStats flags exactly those events.
TEST(Session, RefreshIntervalSetsTheDriftCheckCadence) {
  const Instance inst = churn_base(47, 25, 12);
  const auto trace = churn_trace(inst, 50, 3);
  for (const int refresh : {0, 1, 10}) {
    ServeConfig opts;
    opts.policy = ServePolicy::kRepair;
    opts.refresh = refresh;
    Session session(inst, opts);
    std::size_t flagged = 0;
    for (std::size_t i = 0; i < trace.size(); ++i) {
      const RepairStats stats = session.apply(trace[i]);
      const bool due = refresh > 0 && (i + 1) % refresh == 0;
      EXPECT_EQ(stats.drift_checked, due) << "refresh " << refresh
                                          << " event " << i;
      flagged += stats.drift_checked ? 1 : 0;
    }
    const std::size_t expected =
        refresh > 0 ? trace.size() / static_cast<std::size_t>(refresh) : 0;
    EXPECT_EQ(session.counters().drift_checks, expected);
    EXPECT_EQ(flagged, expected);
  }
}

// The two selection kernels are pick-for-pick equivalent, so resolve
// sessions that differ only in the kernel agree bit-for-bit at every
// prefix — objective and pair set.
TEST(Session, EverySelectStrategyResolvesBitIdentically) {
  const Instance inst = churn_base(59, 30, 12);
  const auto trace = churn_trace(inst, 40, 21);
  ServeConfig opts;
  opts.policy = ServePolicy::kResolve;
  opts.strategy = core::SelectStrategy::kDelta;
  Session delta(inst, opts);
  opts.strategy = core::SelectStrategy::kNaiveScan;
  Session naive(inst, opts);
  for (std::size_t i = 0; i < trace.size(); ++i) {
    delta.apply(trace[i]);
    naive.apply(trace[i]);
    ASSERT_EQ(delta.objective(), naive.objective()) << "event " << i;
    const auto pairs = pairs_of(delta.assignment(), inst.num_users());
    ASSERT_EQ(pairs, pairs_of(naive.assignment(), inst.num_users()))
        << "event " << i;
  }
}

// Under the augmented (Corollary 2.7) winner, resolve is bit-identical to
// a from-scratch augmented solve of the materialized world.
TEST(Session, AugmentedModeResolveMatchesTheFromScratchSolve) {
  const Instance inst = churn_base(61, 25, 12);
  ServeConfig opts;
  opts.policy = ServePolicy::kResolve;
  opts.mode = core::SmdMode::kAugmented;
  Session session(inst, opts);
  for (const InstanceEvent& event : churn_trace(inst, 40, 5)) {
    session.apply(event);
    const core::SmdSolveResult fresh =
        core::solve_unit_skew(session.snapshot(), core::SmdMode::kAugmented);
    ASSERT_EQ(session.objective(), fresh.utility);
    ASSERT_TRUE(session.check_parity().ok);
  }
}

// fresh_objective() — the drift checks' yardstick — is the value of a
// from-scratch solve of the current world, however far the maintained
// winner has drifted. It scores the live world in scoring mode rather
// than solving the materialized snapshot, so the two sums agree to
// rounding, not bit-for-bit.
TEST(Session, FreshObjectiveMatchesAFromScratchSolve) {
  const Instance inst = churn_base(67, 25, 12);
  ServeConfig opts;
  opts.policy = ServePolicy::kRepair;
  opts.refresh = 0;  // let the maintained winner drift freely
  Session session(inst, opts);
  for (const InstanceEvent& event : churn_trace(inst, 40, 9)) {
    session.apply(event);
    const double fresh = core::solve_unit_skew(session.snapshot()).utility;
    ASSERT_NEAR(session.fresh_objective(), fresh,
                1e-9 * std::max(fresh, 1.0));
  }
}

// --- ServeConfig -------------------------------------------------------

TEST(Session, ServeConfigValidatesEveryDeclaredOption) {
  EXPECT_EQ(ServeConfig::declared().size(), 10u);
  // Defaults round-trip through from_options.
  const ServeConfig defaults = ServeConfig::from_options({});
  EXPECT_EQ(defaults.policy, ServePolicy::kRepair);
  EXPECT_EQ(defaults.refresh, 64);
  EXPECT_EQ(defaults.family, "churn");

  const auto from = [](const std::string& key, const std::string& value) {
    SolveOptions opts;
    opts.set(key, value);
    return ServeConfig::from_options(opts);
  };
  EXPECT_THROW(from("bound", "-0.1"), std::invalid_argument);
  EXPECT_THROW(from("policy", "rapair"), std::invalid_argument);

  // refresh is an int in [0, INT_MAX]: a negative value must not
  // silently disable drift checks, nor a huge one wrap around.
  EXPECT_EQ(from("refresh", "0").refresh, 0);
  EXPECT_EQ(from("refresh", "2147483647").refresh, INT_MAX);
  for (const char* bad : {"-5", "-1", "2147483648", "4294967297"}) {
    try {
      (void)from("refresh", bad);
      ADD_FAILURE() << "refresh " << bad << " must throw";
    } catch (const std::invalid_argument& e) {
      EXPECT_EQ(std::string(e.what()),
                std::string("option --refresh expects an integer in "
                            "[0, 2147483647], got '") +
                    bad + "'");
    }
  }

  // make_backend opens the session the config describes.
  const Instance inst = churn_base(79, 25, 12);
  SolveOptions opts;
  opts.set("policy", "resolve");
  const auto backend = make_backend(inst, ServeConfig::from_options(opts));
  EXPECT_EQ(backend->policy(), ServePolicy::kResolve);
}

// from_options fills every declared key's field from its text.
TEST(ServeConfig, FromOptionsReadsEveryDeclaredKey) {
  SolveOptions opts;
  opts.set("policy", "online").set("bound", "0.125").set("refresh", "7");
  opts.set("mode", "augmented").set("select", "naive").set("mu", "2.5");
  opts.set("guard", "off").set("events", "33").set("trace", "seed=4");
  opts.set("family", "zipf-drift");
  ASSERT_EQ(opts.raw().size(), ServeConfig::declared().size());
  const ServeConfig cfg = ServeConfig::from_options(opts);
  EXPECT_EQ(cfg.policy, ServePolicy::kOnline);
  EXPECT_EQ(cfg.bound, 0.125);
  EXPECT_EQ(cfg.refresh, 7);
  EXPECT_EQ(cfg.mode, core::SmdMode::kAugmented);
  EXPECT_EQ(cfg.strategy, core::SelectStrategy::kNaiveScan);
  EXPECT_EQ(cfg.mu, 2.5);
  EXPECT_FALSE(cfg.guard);
  EXPECT_EQ(cfg.events, 33u);
  EXPECT_EQ(cfg.trace, "seed=4");
  EXPECT_EQ(cfg.family, "zipf-drift");
}

TEST(ServeConfig, FromOptionsRejectsNegativeEventCounts) {
  SolveOptions opts;
  opts.set("events", "-1");
  EXPECT_THROW((void)ServeConfig::from_options(opts), std::invalid_argument);
  opts.set("events", "0");
  EXPECT_EQ(ServeConfig::from_options(opts).events, 0u);
}

// A Session opens straight on a ServeConfig; it borrows its parent, so
// opening on a temporary Instance does not compile.
TEST(ServeConfig, IsWhatASessionOpensOn) {
  static_assert(
      std::is_constructible_v<Session, const Instance&, ServeConfig>);
  static_assert(std::is_constructible_v<Session, const Instance&>);
  static_assert(!std::is_constructible_v<Session, Instance&&, ServeConfig>);
  static_assert(!std::is_constructible_v<Session, Instance&&>);

  const Instance inst = churn_base(83, 20, 8);
  ServeConfig cfg;
  cfg.policy = ServePolicy::kOnline;
  cfg.open_empty = true;
  Session session(inst, cfg);
  EXPECT_EQ(session.policy(), ServePolicy::kOnline);
  EXPECT_EQ(session.objective(), 0.0);
}

// --- Declared event-trace params ---------------------------------------

TEST(Session, EventTraceParamsRoundTrip) {
  const workload::WorkloadRegistry& registry =
      workload::WorkloadRegistry::global();
  const workload::WorkloadModel& churn = registry.model("churn");
  EXPECT_EQ(churn.info().params.size(), 12u);
  // The canonical line reproduces the defaults.
  const std::string defaults =
      workload::workload_param_line(churn, registry.resolve("churn", {}));
  for (const workload::WorkloadParam& p : churn.info().params)
    EXPECT_NE(defaults.find(std::string(p.key) + "="), std::string::npos)
        << p.key;

  std::map<std::string, std::string> overrides;
  workload::apply_workload_overrides(
      overrides, "events=42,seed=5,w-user-leave=3,cap-scale-min=0.5",
      "trace");
  const workload::Params params = registry.resolve("churn", overrides);
  EXPECT_EQ(params.get_count("events"), 42u);
  EXPECT_EQ(params.get_count("seed"), 5u);
  EXPECT_EQ(params.get_double("w-user-leave"), 3.0);
  EXPECT_EQ(params.get_double("cap-scale-min"), 0.5);
  const std::string line = workload::workload_param_line(churn, params);
  EXPECT_NE(line.find("events=42"), std::string::npos);
  EXPECT_NE(line.find("w-user-leave=3"), std::string::npos);
  // Feeding the line back (minus its family= head) reproduces the params
  // (the reproduction handle a BENCH report or plan cell carries).
  std::map<std::string, std::string> replay;
  workload::apply_workload_overrides(replay, line, "trace");
  replay.erase("family");
  EXPECT_EQ(workload::workload_param_line(churn,
                                          registry.resolve("churn", replay)),
            line);

  const Instance inst = churn_base(3, 12, 5);
  const auto generate = [&](const std::string& spec) {
    std::map<std::string, std::string> o;
    workload::apply_workload_overrides(o, spec, "trace");
    return registry.generate("churn", inst, o);
  };
  EXPECT_THROW(generate("bogus=1"), std::invalid_argument);
  EXPECT_THROW(generate("events=-3"), std::invalid_argument);
  EXPECT_THROW(generate("w-utility=abc"), std::invalid_argument);
  EXPECT_THROW(generate("events"), std::invalid_argument);
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

// There is one serving engine: the declared option surface is exactly
// ServeConfig's, and the former sharding knobs are undeclared keys that
// a strict solve rejects by name.
TEST(ServeSolver, RejectsTheRemovedShardsAndQueueOptions) {
  const std::vector<std::string> keys = ServeConfig::option_keys();
  ASSERT_EQ(keys.size(), ServeConfig::declared().size());
  for (std::size_t i = 0; i < keys.size(); ++i)
    EXPECT_EQ(keys[i], ServeConfig::declared()[i].key);
  for (const std::string removed : {"shards", "queue"}) {
    EXPECT_EQ(std::find(keys.begin(), keys.end(), removed), keys.end())
        << removed;
    const Instance inst = churn_base(2, 20, 8);
    SolveRequest req;
    req.instance = &inst;
    req.algorithm = "serve";
    req.options.set("events", 10).set(removed, 2);
    req.strict = true;
    const SolveResult r = engine::solve(req);
    EXPECT_FALSE(r.ok) << removed;
    EXPECT_NE(r.error.find(removed), std::string::npos) << r.error;
  }
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
// sums in a pairwise sum tree, the Amax argmax over the streams an event
// touched. At every event of a flash-crowd, a hetero-cap and a churn
// trace they must equal, bit for bit, a pairwise fold of the one-user
// terms winner_partial(w, u, u + 1), added in user order within each
// leaf of RepairCore::kRaceLeafUsers users; match a full sequential
// winner_partial + amax_partial pass (the argmax exactly, the sums to
// 1e-12 relative), and winner_objective must equal core::race_winner over
// that pass. User appends spread over each trace carry the world from
// 510 to 514 users: from 64 leaves, the last one partial, to 65, past
// the tree's power-of-two width. The loose budget lets completions add
// streams (and the churn trace releases them); the check runs in every
// build type, not only under the debug assert.
TEST(RepairCore, MaintainedRaceTermsMatchAFullPassAtEveryEvent) {
  const auto close = [](double a, double b) {
    return std::abs(a - b) <= 1e-12 * std::max(std::abs(a), std::abs(b));
  };
  gen::RandomCapConfig cfg;
  cfg.num_streams = 300;
  cfg.num_users = 510;
  cfg.interest_per_stream = 12.0;
  cfg.budget_fraction = 0.85;
  cfg.seed = 9;
  const Instance inst = gen::random_cap_instance(cfg);
  for (const std::string family : {"flash-crowd", "hetero-cap", "churn"}) {
    for (const core::SmdMode mode :
         {core::SmdMode::kFeasible, core::SmdMode::kAugmented}) {
      std::vector<InstanceEvent> trace =
          workload::WorkloadRegistry::global().generate(
              family, inst, {{"events", "300"}, {"seed", "4"}});
      for (std::size_t k = 4; k-- > 0;) {
        InstanceEvent append;
        append.type = EventType::kUserJoin;
        append.user = static_cast<UserId>(inst.num_users() + k);
        append.value = 20.0 + 5.0 * static_cast<double>(k);
        append.interests = {
            {.stream = static_cast<StreamId>(3 * k), .utility = 6.0},
            {.stream = static_cast<StreamId>(3 * k + 40), .utility = 11.0}};
        trace.insert(trace.begin() + static_cast<std::ptrdiff_t>(60 * k + 30),
                     append);
      }
      model::InstanceOverlay overlay(inst);
      const auto world = [&] {
        return WorldRef{&overlay.instance(), overlay.edge_utilities(),
                        overlay.total_utilities(), overlay.capacities(),
                        overlay.stream_alive_flags()};
      };
      core::SolveWorkspace ws;
      core::SelectStats select;
      RepairCore repair;
      const RepairCore::Context ctx{&ws, core::SelectStrategy::kDelta, mode};
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
        // Leaves of kRaceLeafUsers one-user terms added in user order.
        std::vector<RepairCore::WinnerPartial> leaves;
        for (std::size_t uu = 0; uu < w.num_users(); ++uu) {
          if (uu % RepairCore::kRaceLeafUsers == 0) leaves.emplace_back();
          leaves.back() =
              leaves.back() + repair.winner_partial(w, uu, uu + 1);
        }
        const RepairCore::WinnerPartial folded = testing::pairwise_sum(leaves);
        ASSERT_EQ(testing::bits(kept.winner.capped),
                  testing::bits(folded.capped))
            << where;
        ASSERT_EQ(testing::bits(kept.winner.split.w1),
                  testing::bits(folded.split.w1))
            << where;
        ASSERT_EQ(testing::bits(kept.winner.split.w2),
                  testing::bits(folded.split.w2))
            << where;
        ASSERT_EQ(kept.amax.best, amax.best) << where;
        ASSERT_EQ(kept.amax.total, amax.total) << where;
        ASSERT_TRUE(close(kept.winner.capped, full.capped)) << where;
        ASSERT_TRUE(close(kept.winner.split.w1, full.split.w1)) << where;
        ASSERT_TRUE(close(kept.winner.split.w2, full.split.w2)) << where;
        const char* kept_variant = "";
        const double value = repair.winner_objective(w, mode, &kept_variant);
        const core::RaceOutcome expect = core::race_winner(
            mode, full.capped, full.split, RepairCore::amax_value(w, amax));
        ASSERT_TRUE(close(value, expect.value)) << where;
        ASSERT_STREQ(kept_variant, expect.variant) << where;
      }
      EXPECT_GT(added, 0u) << family << ": no completion added a stream";
      EXPECT_EQ(overlay.num_users(), inst.num_users() + 4) << family;
    }
  }
}

// RepairCore keeps its prepared rows current per event: it marks stale
// only the rows an event changed (the user of a user event, every user of
// a pulled or restored stream), re-sorts those when walked, and prepares
// them afresh on appends and at resolve(). After every event of a trace from each
// workload family — with a user and a stream appended mid-trace, and
// events that clip pairs at their cap and lift the clip again — the rows
// and the cost order must equal a cold prepare_rows of the overlay's
// view, bit for bit.
TEST(RepairCore, MaintainedRowsEqualAColdPrepAfterEveryEvent) {
  gen::RandomCapConfig cfg;
  cfg.num_streams = 120;
  cfg.num_users = 80;
  cfg.interest_per_stream = 8.0;
  cfg.budget_fraction = 0.6;
  cfg.seed = 11;
  const Instance inst = gen::random_cap_instance(cfg);
  const auto new_user = static_cast<UserId>(inst.num_users());
  const auto new_stream = static_cast<StreamId>(inst.num_streams());
  const UserId u0 = inst.edge_user(inst.first_edge(0));
  const auto same_bits = [](std::span<const double> a,
                            std::span<const double> b) {
    return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                      [](double x, double y) {
                        return std::bit_cast<std::uint64_t>(x) ==
                               std::bit_cast<std::uint64_t>(y);
                      });
  };
  for (const std::string family :
       {"churn", "zipf-drift", "flash-crowd", "diurnal", "hetero-cap"}) {
    std::vector<InstanceEvent> trace =
        workload::WorkloadRegistry::global().generate(
            family, inst, {{"events", "200"}, {"seed", "5"}});
    InstanceEvent user_append;
    user_append.type = EventType::kUserJoin;
    user_append.user = new_user;
    user_append.value = 30.0;
    user_append.interests = {{.stream = 0, .utility = 4.0},
                             {.stream = 7, .utility = 9.0}};
    InstanceEvent stream_append;
    stream_append.type = EventType::kStreamAdd;
    stream_append.stream = new_stream;
    stream_append.value = 1.0;
    stream_append.interests = {{.user = 2, .utility = 3.0},
                               {.user = new_user, .utility = 5.0}};
    // Cap-crossing events no generator emits: a cap below u0's pairs, a
    // pair above the new user's cap, then both lifted again.
    const auto event = [](EventType type, UserId u, StreamId s, double v) {
      InstanceEvent ev;
      ev.type = type;
      ev.user = u;
      ev.stream = s;
      ev.value = v;
      return ev;
    };
    const InstanceEvent clip_cap =
        event(EventType::kCapacityChange, u0, model::kInvalidStream, 0.05);
    const InstanceEvent clip_pair =
        event(EventType::kUtilityChange, new_user, 7, 45.0);
    const InstanceEvent lift_cap =
        event(EventType::kCapacityChange, u0, model::kInvalidStream, 80.0);
    const InstanceEvent lift_pair = event(EventType::kCapacityChange,
                                          new_user, model::kInvalidStream, 60.0);
    trace.insert(trace.begin() + 160, {clip_cap, clip_pair, lift_cap});
    trace.insert(trace.begin() + 120, {lift_pair, clip_cap});
    trace.insert(trace.begin() + 100, stream_append);
    trace.insert(trace.begin() + 50, user_append);
    trace.insert(trace.begin() + 52, clip_pair);

    model::InstanceOverlay overlay(inst);
    const auto world = [&] {
      return WorldRef{&overlay.instance(), overlay.edge_utilities(),
                      overlay.total_utilities(), overlay.capacities(),
                      overlay.stream_alive_flags()};
    };
    core::SolveWorkspace ws;
    core::SelectStats select;
    RepairCore repair;
    const RepairCore::Context ctx{&ws, core::SelectStrategy::kDelta,
                                  core::SmdMode::kFeasible};
    repair.resolve(world(), ctx, select);
    for (std::size_t i = 0; i < trace.size(); ++i) {
      const RepairCore::PreEvent pre = repair.pre_event(world(), trace[i]);
      overlay.apply(trace[i]);
      RepairStats stats;
      repair.post_event(world(), trace[i], pre, ctx, select, stats);
      if (i % 40 == 39) repair.resolve(world(), ctx, select);  // warm prep
      core::SolveWorkspace cold;
      (void)core::prepare_rows(overlay.view(), cold);
      const core::SolveWorkspace& kept = repair.current_rows(world());
      const std::string where = family + " event " + std::to_string(i);
      ASSERT_TRUE(same_bits(kept.user_edge_w, cold.user_edge_w)) << where;
      ASSERT_TRUE(std::ranges::equal(kept.user_edge_s, cold.user_edge_s))
          << where;
      ASSERT_TRUE(std::ranges::equal(kept.cost_order, cold.cost_order))
          << where;
    }
    EXPECT_EQ(overlay.num_users(), inst.num_users() + 1) << family;
    EXPECT_EQ(overlay.num_streams(), inst.num_streams() + 1) << family;
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
  const RepairCore::Context ctx{&ws, core::SelectStrategy::kDelta,
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
