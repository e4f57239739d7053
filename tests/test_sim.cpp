#include "sim/engine.h"

#include <gtest/gtest.h>

#include "gen/iptv.h"
#include "gen/random_instances.h"
#include "model/skew.h"

namespace vdist::sim {
namespace {

gen::IptvWorkload small_workload(std::uint64_t seed = 1) {
  gen::IptvConfig cfg;
  cfg.num_channels = 40;
  cfg.num_users = 30;
  cfg.bandwidth_fraction = 0.3;
  cfg.seed = seed;
  return gen::make_iptv_workload(cfg);
}

std::vector<gen::Session> small_trace(const model::Instance& inst,
                                      std::uint64_t seed = 2) {
  gen::TraceConfig tc;
  tc.arrival_rate = 1.5;
  tc.mean_duration = 15.0;
  tc.horizon = 200.0;
  tc.seed = seed;
  return gen::make_trace(inst, tc);
}

// The simulator as a thin client of the serving session: arrivals and
// departures become StreamAdd/StreamRemove events and decisions come
// from the session's maintained assignment.
TEST(Engine, SessionPolicyDrivesTheSimulator) {
  gen::RandomCapConfig cfg;
  cfg.num_streams = 25;
  cfg.num_users = 12;
  cfg.seed = 4;
  const model::Instance catalog = gen::random_cap_instance(cfg);
  const auto trace = small_trace(catalog, 8);
  for (const engine::ServePolicy policy :
       {engine::ServePolicy::kRepair, engine::ServePolicy::kResolve}) {
    engine::ServeConfig scfg;
    scfg.policy = policy;
    SessionPolicy session_policy(catalog, scfg);
    const SimResult r = run_simulation(catalog, trace, session_policy);
    EXPECT_EQ(r.totals.sessions, trace.size());
    EXPECT_GT(r.totals.accepted, 0u);
    EXPECT_GT(r.totals.utility_time, 0.0);
    // The underlying backend saw stream lifecycle events.
    EXPECT_GT(session_policy.backend().counters().events, 0u);
  }
  // Determinism: same catalog + trace + policy config => same totals.
  SessionPolicy a(catalog), b(catalog);
  const SimResult ra = run_simulation(catalog, trace, a);
  const SimResult rb = run_simulation(catalog, trace, b);
  EXPECT_EQ(ra.totals.utility_time, rb.totals.utility_time);
  EXPECT_EQ(ra.totals.accepted, rb.totals.accepted);
  // Requires the session's cap form.
  const auto mmd = small_workload().instance;
  if (!mmd.is_unit_skew())
    EXPECT_THROW(SessionPolicy{mmd}, std::invalid_argument);
}

TEST(Engine, TotalsAreConsistent) {
  const auto w = small_workload();
  const auto trace = small_trace(w.instance);
  ThresholdPolicy policy(w.instance);
  const SimResult r = run_simulation(w.instance, trace, policy);
  EXPECT_EQ(r.totals.sessions, trace.size());
  EXPECT_EQ(r.totals.accepted + r.totals.rejected, r.totals.sessions);
  EXPECT_GE(r.totals.utility_time, 0.0);
  EXPECT_GT(r.totals.accepted, 0u);
}

TEST(Engine, ThresholdPolicyNeverViolates) {
  const auto w = small_workload(3);
  const auto trace = small_trace(w.instance, 4);
  ThresholdPolicy policy(w.instance);
  const SimResult r = run_simulation(w.instance, trace, policy);
  EXPECT_EQ(r.totals.violations, 0u);
  for (std::size_t i = 0; i < r.totals.peak_utilization.size(); ++i)
    EXPECT_LE(r.totals.peak_utilization[i], 1.0 + 1e-9);
}

TEST(Engine, AllocatePolicyWithGuardNeverViolates) {
  const auto w = small_workload(5);
  const auto trace = small_trace(w.instance, 6);
  const double mu = model::global_skew(w.instance).mu;
  OnlineAllocatePolicy policy(w.instance, mu, /*guard=*/true);
  const SimResult r = run_simulation(w.instance, trace, policy);
  EXPECT_EQ(r.totals.violations, 0u);
}

TEST(Engine, TimelineIsMonotonicInTime) {
  const auto w = small_workload(7);
  const auto trace = small_trace(w.instance, 8);
  ThresholdPolicy policy(w.instance);
  SimConfig cfg;
  cfg.sample_interval = 5.0;
  const SimResult r = run_simulation(w.instance, trace, policy, cfg);
  ASSERT_GT(r.timeline.size(), 2u);
  for (std::size_t i = 1; i < r.timeline.size(); ++i)
    EXPECT_GT(r.timeline[i].time, r.timeline[i - 1].time);
}

TEST(Engine, AllLoadReleasedAfterDrain) {
  const auto w = small_workload(9);
  const auto trace = small_trace(w.instance, 10);
  ThresholdPolicy policy(w.instance);
  const SimResult r = run_simulation(w.instance, trace, policy);
  // The last timeline sample is at/after the final departure: zero active.
  const SimSample& last = r.timeline.back();
  EXPECT_EQ(last.active_sessions, 0u);
  EXPECT_NEAR(last.active_utility, 0.0, 1e-9);
  for (double u : last.server_utilization) EXPECT_NEAR(u, 0.0, 1e-9);
}

TEST(Engine, RandomPolicyAcceptsNoMoreThanThreshold) {
  const auto w = small_workload(11);
  const auto trace = small_trace(w.instance, 12);
  ThresholdPolicy threshold(w.instance);
  RandomPolicy random(w.instance, 0.3, 99);
  const SimResult rt = run_simulation(w.instance, trace, threshold);
  const SimResult rr = run_simulation(w.instance, trace, random);
  // Not guaranteed sample-by-sample, but with p = 0.3 the coin-flip policy
  // must accept strictly fewer sessions over a 200-unit horizon.
  EXPECT_LT(rr.totals.accepted, rt.totals.accepted);
  EXPECT_EQ(rr.totals.violations, 0u);
}

TEST(Engine, EmptyTrace) {
  const auto w = small_workload(13);
  ThresholdPolicy policy(w.instance);
  const SimResult r = run_simulation(w.instance, {}, policy);
  EXPECT_EQ(r.totals.sessions, 0u);
  EXPECT_EQ(r.totals.utility_time, 0.0);
}

TEST(Engine, UtilityTimeMatchesHandComputedToyCase) {
  // One stream, one user, deterministic trace: utility 2 for 10 time
  // units, then nothing.
  model::InstanceBuilder b(1, 1);
  b.set_budget(0, 5.0);
  const auto s = b.add_stream({1.0});
  const auto u = b.add_user({10.0});
  b.add_interest(u, s, 2.0, {2.0});
  const model::Instance inst = std::move(b).build();
  std::vector<gen::Session> trace{{/*arrival=*/5.0, /*duration=*/10.0, s}};
  ThresholdPolicy policy(inst);
  const SimResult r = run_simulation(inst, trace, policy);
  EXPECT_EQ(r.totals.accepted, 1u);
  EXPECT_NEAR(r.totals.utility_time, 2.0 * 10.0, 1e-9);
}

TEST(Engine, OverlappingSessionsAccumulate) {
  model::InstanceBuilder b(1, 1);
  b.set_budget(0, 10.0);
  const auto s0 = b.add_stream({1.0});
  const auto s1 = b.add_stream({1.0});
  const auto u = b.add_user({100.0});
  b.add_interest(u, s0, 3.0, {3.0});
  b.add_interest(u, s1, 4.0, {4.0});
  const model::Instance inst = std::move(b).build();
  // s0 on [0,10); s1 on [5,15): overlap [5,10) carries utility 7.
  std::vector<gen::Session> trace{{0.0, 10.0, s0}, {5.0, 10.0, s1}};
  ThresholdPolicy policy(inst);
  const SimResult r = run_simulation(inst, trace, policy);
  EXPECT_NEAR(r.totals.utility_time, 3 * 10 + 4 * 10.0, 1e-9);
}


TEST(Engine, SampleCapBoundsTimelineOnLongDrains) {
  // A session that outlives the horizon by orders of magnitude must not
  // blow up the timeline (engine caps samples; totals stay exact).
  model::InstanceBuilder b(1, 1);
  b.set_budget(0, 5.0);
  const auto s = b.add_stream({1.0});
  const auto u = b.add_user({10.0});
  b.add_interest(u, s, 2.0, {2.0});
  const model::Instance inst = std::move(b).build();
  std::vector<gen::Session> trace{{0.0, 1e9, s}};
  ThresholdPolicy policy(inst);
  SimConfig cfg;
  cfg.sample_interval = 1.0;
  cfg.max_samples = 500;
  const SimResult r = run_simulation(inst, trace, policy, cfg);
  EXPECT_LE(r.timeline.size(), 501u) << "cap plus the final drained sample";
  EXPECT_NEAR(r.totals.utility_time, 2.0 * 1e9, 1e3) << "totals stay exact";
}

TEST(Engine, PoliciesReportNamesAndGuardState) {
  const auto w = small_workload(21);
  OnlineAllocatePolicy allocate(w.instance, 64.0, true);
  ThresholdPolicy threshold(w.instance);
  RandomPolicy random(w.instance, 0.5, 3);
  EXPECT_EQ(allocate.name(), "allocate");
  EXPECT_EQ(threshold.name(), "threshold");
  EXPECT_EQ(random.name(), "random");
  EXPECT_EQ(allocate.guard_trips(), 0u);
}

TEST(Engine, SameTraceSamePolicyIsDeterministic) {
  const auto w = small_workload(22);
  const auto trace = small_trace(w.instance, 23);
  RandomPolicy p1(w.instance, 0.4, 77);
  RandomPolicy p2(w.instance, 0.4, 77);
  const SimResult a = run_simulation(w.instance, trace, p1);
  const SimResult b = run_simulation(w.instance, trace, p2);
  EXPECT_EQ(a.totals.accepted, b.totals.accepted);
  EXPECT_EQ(a.totals.utility_time, b.totals.utility_time);
}

TEST(Engine, DeparturesFreeCapacityForLaterSessions) {
  // Budget fits one stream at a time; back-to-back sessions must both be
  // admitted because the first departs before the second arrives.
  model::InstanceBuilder b(1, 1);
  b.set_budget(0, 1.0);
  const auto s0 = b.add_stream({1.0});
  const auto s1 = b.add_stream({1.0});
  const auto u = b.add_user({100.0});
  b.add_interest(u, s0, 1.0, {1.0});
  b.add_interest(u, s1, 1.0, {1.0});
  const model::Instance inst = std::move(b).build();
  std::vector<gen::Session> trace{{0.0, 5.0, s0}, {6.0, 5.0, s1}};
  ThresholdPolicy policy(inst);
  const SimResult r = run_simulation(inst, trace, policy);
  EXPECT_EQ(r.totals.accepted, 2u);
  // And overlapping ones cannot both fit:
  std::vector<gen::Session> overlap{{0.0, 5.0, s0}, {2.0, 5.0, s1}};
  ThresholdPolicy policy2(inst);
  const SimResult r2 = run_simulation(inst, overlap, policy2);
  EXPECT_EQ(r2.totals.accepted, 1u);
}

}  // namespace
}  // namespace vdist::sim
