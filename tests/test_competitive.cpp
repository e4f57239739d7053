// engine::run_competitive — the online-vs-offline differential of ISSUE 10:
//   * the resolve policy's ratio against the default (mode-matched greedy)
//     offline reference is 1.0 BIT-EXACTLY at every checkpoint, on every
//     workload family;
//   * the repair policy stays within its declared drift bound at every
//     aligned checkpoint;
//   * aggregates, emitters, and the exact-reference sanity bound hold.
#include "engine/competitive.h"

#include <gtest/gtest.h>

#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "gen/random_instances.h"
#include "model/events.h"
#include "model/instance.h"
#include "workload/workload.h"

namespace vdist::engine {
namespace {

using model::Instance;
using model::InstanceEvent;

Instance base_instance(std::uint64_t seed, std::size_t streams = 28,
                       std::size_t users = 11) {
  gen::RandomCapConfig cfg;
  cfg.num_streams = streams;
  cfg.num_users = users;
  cfg.seed = seed;
  return gen::random_cap_instance(cfg);
}

std::vector<InstanceEvent> family_trace(const std::string& family,
                                        const Instance& inst,
                                        std::size_t events,
                                        std::uint64_t seed) {
  return workload::WorkloadRegistry::global().generate(
      family, inst,
      {{"events", std::to_string(events)}, {"seed", std::to_string(seed)}});
}

// The harness's own differential anchor: resolve maintains exactly the
// from-scratch greedy of the overlay view, and the workload generators'
// parity-safety contract makes the materialized snapshot bit-compatible
// with that view — so online/offline == 1.0 exactly, not approximately.
TEST(Competitive, ResolveRatioIsExactlyOneOnEveryFamily) {
  const Instance inst = base_instance(6);
  for (const std::string family :
       {"churn", "zipf-drift", "flash-crowd", "diurnal", "hetero-cap"}) {
    const auto trace = family_trace(family, inst, 80, 19);
    CompetitiveOptions opts;
    opts.serve.policy = ServePolicy::kResolve;
    opts.every = 10;
    const CompetitiveReport report = run_competitive(inst, trace, opts);
    EXPECT_EQ(report.offline_algorithm, "greedy");
    ASSERT_EQ(report.checkpoints.size(), 8u) << family;
    for (const CompetitiveCheckpoint& cp : report.checkpoints) {
      EXPECT_EQ(cp.online_objective, cp.offline_objective)
          << family << " event " << cp.event;
      EXPECT_EQ(cp.ratio, 1.0) << family << " event " << cp.event;
    }
    EXPECT_EQ(report.min_ratio, 1.0) << family;
    EXPECT_EQ(report.mean_ratio, 1.0) << family;
    EXPECT_EQ(report.final_ratio, 1.0) << family;
  }
}

// align_refresh lines the repair backend's self-correction up with the
// measurement prefixes, so every measured ratio is covered by the
// declared drift bound.
TEST(Competitive, RepairStaysWithinDeclaredBoundAtEveryCheckpoint) {
  const Instance inst = base_instance(9);
  for (const std::string family : {"flash-crowd", "hetero-cap"}) {
    const auto trace = family_trace(family, inst, 120, 5);
    CompetitiveOptions opts;
    opts.serve.policy = ServePolicy::kRepair;
    opts.serve.bound = 0.05;
    opts.every = 15;
    const CompetitiveReport report = run_competitive(inst, trace, opts);
    for (const CompetitiveCheckpoint& cp : report.checkpoints)
      EXPECT_GE(cp.ratio, 1.0 - opts.serve.bound - 1e-9)
          << family << " event " << cp.event;
    EXPECT_GE(report.min_ratio, 1.0 - opts.serve.bound - 1e-9) << family;
  }
}

// Against the exact reference the greedy-maintained resolve policy can
// only be <= 1; the ratio stays positive and the gap field matches the
// upper-bound arithmetic.
TEST(Competitive, ExactOfflineReferenceBoundsTheGreedyPolicies) {
  const Instance inst = base_instance(4, 12, 5);
  const auto trace = family_trace("zipf-drift", inst, 30, 7);
  CompetitiveOptions opts;
  opts.serve.policy = ServePolicy::kResolve;
  opts.offline = "exact";
  opts.every = 10;
  const CompetitiveReport report = run_competitive(inst, trace, opts);
  EXPECT_EQ(report.offline_algorithm, "exact");
  for (const CompetitiveCheckpoint& cp : report.checkpoints) {
    EXPECT_LE(cp.ratio, 1.0 + 1e-12) << cp.event;
    EXPECT_GT(cp.ratio, 0.0) << cp.event;
    EXPECT_GE(cp.upper_bound, cp.offline_objective - 1e-9) << cp.event;
    if (cp.upper_bound > 0.0)
      EXPECT_EQ(cp.offline_gap,
                (cp.upper_bound - cp.offline_objective) / cp.upper_bound)
          << cp.event;
  }
  EXPECT_THROW(
      {
        CompetitiveOptions bad = opts;
        bad.offline = "exactt";
        (void)run_competitive(inst, trace, bad);
      },
      std::invalid_argument);
}

TEST(Competitive, EveryZeroMeasuresOnlyTheTraceEnd) {
  const Instance inst = base_instance(2, 15, 6);
  const auto trace = family_trace("diurnal", inst, 40, 3);
  CompetitiveOptions opts;
  opts.serve.policy = ServePolicy::kResolve;
  opts.every = 0;
  const CompetitiveReport report = run_competitive(inst, trace, opts);
  ASSERT_EQ(report.checkpoints.size(), 1u);
  EXPECT_EQ(report.checkpoints.back().event, trace.size());
  EXPECT_EQ(report.min_ratio, report.final_ratio);
  EXPECT_EQ(report.mean_ratio, report.final_ratio);

  // An empty trace is the opening solve, where every policy meets the
  // offline value.
  const CompetitiveReport empty = run_competitive(inst, {}, opts);
  ASSERT_EQ(empty.checkpoints.size(), 1u);
  EXPECT_EQ(empty.checkpoints.back().event, 0u);
  EXPECT_EQ(empty.final_ratio, 1.0);
}

TEST(Competitive, OnlinePolicyRatiosAreFiniteAndAggregated) {
  const Instance inst = base_instance(8);
  const auto trace = family_trace("flash-crowd", inst, 80, 11);
  CompetitiveOptions opts;
  opts.serve.policy = ServePolicy::kOnline;
  opts.every = 20;
  const CompetitiveReport report = run_competitive(inst, trace, opts);
  double min = report.checkpoints.front().ratio, sum = 0.0;
  for (const CompetitiveCheckpoint& cp : report.checkpoints) {
    EXPECT_GT(cp.ratio, 0.0);
    EXPECT_LT(cp.ratio, 10.0);  // sane, not degenerate
    min = std::min(min, cp.ratio);
    sum += cp.ratio;
  }
  EXPECT_EQ(report.min_ratio, min);
  EXPECT_EQ(report.mean_ratio,
            sum / static_cast<double>(report.checkpoints.size()));
  EXPECT_EQ(report.final_ratio, report.checkpoints.back().ratio);
  EXPECT_EQ(report.policy, std::string("online"));
}

TEST(Competitive, EmittersCarryTheCheckpointRows) {
  const Instance inst = base_instance(5, 15, 6);
  const auto trace = family_trace("churn", inst, 30, 2);
  CompetitiveOptions opts;
  opts.serve.policy = ServePolicy::kResolve;
  opts.every = 10;
  const CompetitiveReport report = run_competitive(inst, trace, opts);

  const util::Table table = competitive_table(report);
  EXPECT_EQ(table.num_rows(), report.checkpoints.size());
  EXPECT_EQ(table.column_names().front(), "event");

  std::ostringstream csv;
  write_competitive_csv(csv, report);
  EXPECT_NE(csv.str().find("event,online,offline,ratio"), std::string::npos);

  std::ostringstream json;
  write_competitive_json(json, report);
  const std::string doc = json.str();
  for (const char* key :
       {"\"compete\":", "\"offline\":", "\"min_ratio\":", "\"mean_ratio\":",
        "\"final_ratio\":", "\"checkpoints\":["})
    EXPECT_NE(doc.find(key), std::string::npos) << key;
  // Round-trip precision: the ratio 1 prints as an exact literal.
  EXPECT_NE(doc.find("\"ratio\":1"), std::string::npos);
}

}  // namespace
}  // namespace vdist::engine
