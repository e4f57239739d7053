// A stateful fuzzer of the serving layer. Seeded random traces over the
// whole event vocabulary (tests/event_vocabulary.h: cap crossings,
// tombstones, restores, user and stream appends, and events the overlay
// must refuse) run through engine::Session under every policy and both
// SmdModes. After every accepted event:
//   * check_parity() holds: resolve bit-equal to a from-scratch solve,
//     repair (refresh 1) within its drift bound, online bit-equal to the
//     recount from snapshot();
//   * under resolve, every few events, the objective bit-equals the
//     registry's greedy / greedy-augmented solve of snapshot() (the
//     compete harness's ratio-1 contract);
//   * the assignment, re-accounted on snapshot(), is feasible. Online
//     never revokes a commitment and the augmented winner is the paper's
//     semi-feasible one, so those two answer for the server budget only.
// After every rejected event, snapshot(), the objective's bits, the
// assignment's pairs and counters().events are what they were.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

#include "assignment_pairs.h"
#include "core/select.h"
#include "engine/serving.h"
#include "engine/solver.h"
#include "event_vocabulary.h"
#include "gen/random_instances.h"
#include "io/instance_io.h"
#include "model/events.h"
#include "model/instance.h"
#include "util/rng.h"

namespace vdist::engine {
namespace {

using model::Instance;
using model::InstanceEvent;

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

// Every array and value a snapshot carries, as integers.
std::vector<std::uint64_t> snapshot_bits(const Instance& inst) {
  std::vector<std::uint64_t> out = {inst.num_streams(), inst.num_users(),
                                    inst.num_edges(), bits(inst.budget(0)),
                                    bits(inst.utility_upper_bound())};
  const auto add = [&out](const auto& span) {
    for (const auto x : span) {
      if constexpr (std::is_floating_point_v<std::decay_t<decltype(x)>>) {
        out.push_back(bits(x));
      } else {
        out.push_back(static_cast<std::uint64_t>(x));
      }
    }
  };
  add(inst.stream_offsets());
  add(inst.edge_users());
  add(inst.edge_utilities());
  add(inst.user_offsets());
  add(inst.user_edge_indices());
  add(inst.user_edge_streams());
  add(inst.stream_total_utilities());
  add(inst.capacities_single_measure());
  add(inst.costs_of_measure(0));
  return out;
}

// The registry's one-shot solve of `snapshot` that resolve must equal.
double registry_objective(const Instance& snapshot, const ServeConfig& cfg) {
  SolveRequest req;
  req.instance = &snapshot;
  req.algorithm =
      cfg.mode == core::SmdMode::kAugmented ? "greedy-augmented" : "greedy";
  req.options.set("select", core::to_string(cfg.strategy));
  req.validate = false;
  const SolveResult r = solve(req);
  EXPECT_TRUE(r.ok) << r.error;
  return r.objective;
}

struct FuzzTally {
  int accepted = 0;
  int rejected = 0;
  int appends = 0;
};

FuzzTally fuzz_session(const Instance& parent, ServeConfig cfg,
                       std::uint64_t seed, int events,
                       const std::string& name) {
  cfg.refresh = 1;
  Session session(parent, cfg);
  util::Rng rng(seed);
  FuzzTally tally;
  const bool exact_feasible = cfg.policy != ServePolicy::kOnline &&
                              cfg.mode == core::SmdMode::kFeasible;
  for (int i = 0; i < events; ++i) {
    const std::string where = name + " event " + std::to_string(i);
    if (rng.bernoulli(0.15)) {
      const InstanceEvent bad = testing::invalid_event(session.overlay(), rng);
      const std::vector<std::uint64_t> snap = snapshot_bits(session.snapshot());
      const std::uint64_t objective = bits(session.objective());
      const auto served = testing::pairs(session.assignment());
      const std::size_t applied = session.counters().events;
      EXPECT_THROW((void)session.apply(bad), std::invalid_argument) << where;
      EXPECT_EQ(snapshot_bits(session.snapshot()), snap) << where;
      EXPECT_EQ(bits(session.objective()), objective) << where;
      EXPECT_EQ(testing::pairs(session.assignment()), served) << where;
      EXPECT_EQ(session.counters().events, applied) << where;
      ++tally.rejected;
      continue;
    }
    const InstanceEvent event = testing::random_event(session.overlay(), rng);
    const model::EventScope scope = model::classify_event(
        event, session.overlay().num_users(), session.overlay().num_streams());
    tally.appends += scope.appends_user || scope.appends_stream ? 1 : 0;
    (void)session.apply(event);
    ++tally.accepted;

    const ParityReport parity = session.check_parity();
    EXPECT_TRUE(parity.ok) << where << ": " << parity.detail << " (current "
                           << parity.current << ", fresh " << parity.fresh
                           << ")";
    if (cfg.policy == ServePolicy::kResolve && i % 5 == 0) {
      EXPECT_EQ(bits(session.objective()),
                bits(registry_objective(session.snapshot(), cfg)))
          << where;
    }
    const model::ValidationReport report = validate_served(session);
    EXPECT_TRUE(exact_feasible ? report.feasible() : report.server_feasible())
        << where;
  }
  return tally;
}

struct FuzzWorld {
  std::string name;
  Instance instance;
};

std::vector<FuzzWorld> fuzz_worlds() {
  std::vector<FuzzWorld> worlds;
  gen::RandomCapConfig cfg;
  cfg.num_streams = 40;
  cfg.num_users = 15;
  cfg.seed = 5;
  worlds.push_back({"cap 40x15", gen::random_cap_instance(cfg)});
  const std::string traces = VDIST_TESTS_DIR "/../bench/traces/";
  worlds.push_back({"contract_breakers",
                    io::load_instance_file(traces + "contract_breakers.vd")});
  worlds.push_back(
      {"serve_smoke", io::load_instance_file(traces + "serve_smoke.vd")});
  return worlds;
}

struct FuzzCase {
  ServePolicy policy;
  core::SmdMode mode;
};

class ServeFuzz : public ::testing::TestWithParam<FuzzCase> {};

TEST_P(ServeFuzz, EveryAcceptedEventKeepsTheContractsAndEveryRejectedOneIsANoOp) {
  ServeConfig cfg;
  cfg.policy = GetParam().policy;
  cfg.mode = GetParam().mode;
  for (const FuzzWorld& world : fuzz_worlds()) {
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      const std::string name = world.name + " seed " + std::to_string(seed);
      const FuzzTally tally =
          fuzz_session(world.instance, cfg, seed * 7919, 500, name);
      EXPECT_GT(tally.rejected, 0) << name;
      EXPECT_GT(tally.appends, 0) << name;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    PolicyMode, ServeFuzz,
    ::testing::Values(FuzzCase{ServePolicy::kRepair, core::SmdMode::kFeasible},
                      FuzzCase{ServePolicy::kRepair, core::SmdMode::kAugmented},
                      FuzzCase{ServePolicy::kResolve, core::SmdMode::kFeasible},
                      FuzzCase{ServePolicy::kResolve,
                               core::SmdMode::kAugmented},
                      FuzzCase{ServePolicy::kOnline, core::SmdMode::kFeasible},
                      FuzzCase{ServePolicy::kOnline,
                               core::SmdMode::kAugmented}),
    [](const ::testing::TestParamInfo<FuzzCase>& info) {
      return std::string(to_string(info.param.policy)) +
             (info.param.mode == core::SmdMode::kAugmented ? "Augmented"
                                                           : "Feasible");
    });

}  // namespace
}  // namespace vdist::engine
