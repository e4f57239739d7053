// workload::WorkloadRegistry — the event-trace families:
//   * every builtin family is registered, declares events/seed, and is a
//     deterministic function of (instance, params): same seed =>
//     byte-identical serialized trace, different seed => different trace
//     (the bytes themselves are pinned in test_workload_reference.cpp);
//   * params parse as whole tokens, and churn rejects knobs that would
//     break its parity contract;
//   * every family's trace round-trips through io/event_io.h and keeps the
//     resolve policy's materialize parity at the end state;
//   * the churn mix's piecewise weight schedule (the one diurnal runs on)
//     shapes the mix without disturbing single-phase byte-identity;
//   * the serve solver's `family` option reaches the registry and stays
//     deterministic across BatchRunner thread counts.
#include "workload/workload.h"

#include <gtest/gtest.h>

#include <array>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/greedy.h"
#include "engine/batch.h"
#include "engine/registry.h"
#include "engine/scenario.h"
#include "engine/serving.h"
#include "gen/random_instances.h"
#include "io/event_io.h"
#include "model/events.h"
#include "model/factory.h"
#include "model/instance.h"
#include "workload/churn.h"

namespace vdist::workload {
namespace {

using model::Instance;
using model::InstanceEvent;

const std::vector<std::string> kFamilies = {"churn", "zipf-drift",
                                            "flash-crowd", "diurnal",
                                            "hetero-cap"};

Instance base_instance(std::uint64_t seed, std::size_t streams = 30,
                       std::size_t users = 12) {
  gen::RandomCapConfig cfg;
  cfg.num_streams = streams;
  cfg.num_users = users;
  cfg.seed = seed;
  return gen::random_cap_instance(cfg);
}

std::string serialize(const std::vector<InstanceEvent>& trace) {
  std::ostringstream os;
  io::save_events(os, trace);
  return os.str();
}

TEST(WorkloadRegistry, BuiltinFamiliesRegisteredInOrder) {
  const WorkloadRegistry& registry = WorkloadRegistry::global();
  EXPECT_EQ(registry.names(), kFamilies);
  for (const std::string& name : kFamilies) {
    ASSERT_TRUE(registry.contains(name)) << name;
    const WorkloadInfo& info = registry.model(name).info();
    EXPECT_EQ(info.name, name);
    EXPECT_FALSE(info.description.empty()) << name;
    // Every family is reproducible from (events, seed) at minimum.
    bool has_events = false, has_seed = false;
    for (const WorkloadParam& p : info.params) {
      if (std::string(p.key) == "events") has_events = true;
      if (std::string(p.key) == "seed") has_seed = true;
    }
    EXPECT_TRUE(has_events) << name;
    EXPECT_TRUE(has_seed) << name;
  }
  EXPECT_FALSE(registry.contains("zipf"));
  EXPECT_THROW((void)registry.model("zipf"), std::invalid_argument);
  try {
    (void)registry.model("zipf");
  } catch (const std::invalid_argument& e) {
    // The error lists the known families, scenario-registry style.
    EXPECT_NE(std::string(e.what()).find("flash-crowd"), std::string::npos);
  }
}

TEST(WorkloadRegistry, ResolveFoldsFallbacksAndRejectsUndeclaredKeys) {
  const WorkloadRegistry& registry = WorkloadRegistry::global();
  const Params params = registry.resolve("zipf-drift", {{"alpha", "1.2"}});
  EXPECT_EQ(params.get("alpha"), "1.2");
  EXPECT_EQ(params.get_count("events"),
            registry.resolve("zipf-drift", {}).get_count("events"));
  EXPECT_THROW(registry.resolve("zipf-drift", {{"alpa", "1.2"}}),
               std::invalid_argument);
}

TEST(WorkloadParams, TypedAccessorsValidate) {
  Params params({{"a", "0.5"}, {"b", "nope"}, {"c", "-3"}, {"d", "7"}});
  EXPECT_EQ(params.get_double("a"), 0.5);
  EXPECT_EQ(params.get_fraction("a"), 0.5);
  EXPECT_EQ(params.get_count("d"), 7u);
  EXPECT_THROW((void)params.get_double("b"), std::invalid_argument);
  EXPECT_THROW((void)params.get_count("c"), std::invalid_argument);
  EXPECT_THROW((void)params.get_fraction("d"), std::invalid_argument);
  EXPECT_THROW((void)params.get("missing"), std::invalid_argument);
}

// The whole-token rule SolveOptions uses: a sign, whitespace, hex, an
// infinity or trailing junk is an error naming the param, never a number.
TEST(WorkloadParams, NumbersParseAsWholeTokens) {
  Params params({{"plus", "+5"},
                 {"space", " 0.5"},
                 {"hex", "0x1p3"},
                 {"inf", "inf"},
                 {"junk", "8x"},
                 {"huge", "99999999999999999999"},
                 {"seed", "18446744073709551615"}});
  EXPECT_EQ(params.get_count("seed"), 18446744073709551615ull);
  for (const char* key : {"plus", "space", "hex", "junk", "huge"}) {
    EXPECT_THROW((void)params.get_count(key), std::invalid_argument) << key;
  }
  for (const char* key : {"plus", "space", "hex", "inf", "junk"}) {
    try {
      (void)params.get_double(key);
      ADD_FAILURE() << key << " must throw";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(std::string("workload param ") +
                                           key),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(WorkloadRegistry, ApplyOverridesParsesKeyValueLists) {
  std::map<std::string, std::string> overrides;
  apply_workload_overrides(overrides, "events=50,alpha=1.1", "--trace");
  EXPECT_EQ(overrides.at("events"), "50");
  EXPECT_EQ(overrides.at("alpha"), "1.1");
  apply_workload_overrides(overrides, "", "--trace");  // empty = none
  apply_workload_overrides(overrides, "alpha=2,,", "--trace");  // last wins
  EXPECT_EQ(overrides.size(), 2u);
  EXPECT_EQ(overrides.at("alpha"), "2");
  for (const char* bad : {"events", "=5"}) {
    try {
      apply_workload_overrides(overrides, bad, "--set");
      ADD_FAILURE() << bad << " must throw";
    } catch (const std::invalid_argument& e) {
      // The error names the flag or param the list came from.
      EXPECT_EQ(std::string(e.what()),
                std::string("--set expects key=value[,key=value...], got '") +
                    bad + "'");
    }
  }
}

TEST(WorkloadRegistry, ParamLineCarriesEveryDeclaredKey) {
  const WorkloadRegistry& registry = WorkloadRegistry::global();
  const WorkloadModel& model = registry.model("flash-crowd");
  const Params params = registry.resolve("flash-crowd", {{"seed", "9"}});
  const std::string line = workload_param_line(model, params);
  EXPECT_EQ(line.rfind("family=flash-crowd,", 0), 0u) << line;
  for (const WorkloadParam& p : model.info().params)
    EXPECT_NE(line.find(std::string(p.key) + "="), std::string::npos)
        << p.key;
  EXPECT_NE(line.find("seed=9"), std::string::npos);
}

// Same seed => byte-identical serialized trace; different seed =>
// different trace; declared trace length is exact. The determinism holds
// per family because every generator draws from one seeded util::Rng.
TEST(WorkloadRegistry, EveryFamilyDeterministicInSeed) {
  const WorkloadRegistry& registry = WorkloadRegistry::global();
  const Instance inst = base_instance(11);
  for (const std::string& name : kFamilies) {
    const std::map<std::string, std::string> overrides = {{"events", "120"},
                                                          {"seed", "5"}};
    const auto a = registry.generate(name, inst, overrides);
    const auto b = registry.generate(name, inst, overrides);
    EXPECT_EQ(a.size(), 120u) << name;
    EXPECT_EQ(serialize(a), serialize(b)) << name;
    const auto other =
        registry.generate(name, inst, {{"events", "120"}, {"seed", "6"}});
    EXPECT_NE(serialize(a), serialize(other)) << name;
  }
}

TEST(WorkloadRegistry, EveryFamilyRoundTripsThroughEventIo) {
  const WorkloadRegistry& registry = WorkloadRegistry::global();
  const Instance inst = base_instance(21);
  for (const std::string& name : kFamilies) {
    const auto trace =
        registry.generate(name, inst, {{"events", "80"}, {"seed", "2"}});
    const std::string text = serialize(trace);
    std::istringstream is(text);
    const auto loaded = io::load_events(is);
    EXPECT_EQ(serialize(loaded), text) << name;
  }
}

// The parity-safety contract: replaying any family under the resolve
// policy keeps the backend bit-identical to a from-scratch solve of the
// materialized snapshot — checked at the end state here (the per-prefix
// version lives in test_competitive.cpp).
TEST(WorkloadRegistry, EveryFamilyKeepsResolveParity) {
  const WorkloadRegistry& registry = WorkloadRegistry::global();
  const Instance inst = base_instance(7);
  for (const std::string& name : kFamilies) {
    const auto trace =
        registry.generate(name, inst, {{"events", "100"}, {"seed", "13"}});
    engine::ServeConfig opts;
    opts.policy = engine::ServePolicy::kResolve;
    engine::Session session(inst, opts);
    for (const InstanceEvent& event : trace) session.apply(event);
    const Instance snap = session.overlay().materialize();
    const core::SmdSolveResult fresh = core::solve_unit_skew(snap);
    EXPECT_EQ(session.objective(), fresh.utility) << name;
  }
}

// Churn's knobs are validated where they would break its contract: scale
// factors are ordered pairs, utility scales are fractions (a scale above
// 1 would lift a utility over its declared value and break resolve
// parity), and the mix weights are non-negative with a positive total.
TEST(WorkloadRegistry, ChurnParamsRejectBadWeightsAndScales) {
  const WorkloadRegistry& registry = WorkloadRegistry::global();
  const Instance inst = base_instance(5);
  const auto error_of =
      [&](const std::map<std::string, std::string>& overrides) {
        try {
          (void)registry.generate("churn", inst, overrides);
        } catch (const std::invalid_argument& e) {
          return std::string(e.what());
        }
        return std::string();
      };
  const auto names = [](const std::string& error, const std::string& key) {
    return error.find(key) != std::string::npos;
  };
  EXPECT_TRUE(names(error_of({{"utility-scale-min", "2"},
                              {"utility-scale-max", "3"}}),
                    "utility-scale-"));
  EXPECT_TRUE(names(error_of({{"utility-scale-max", "1.01"}}),
                    "utility-scale-max"));
  EXPECT_TRUE(names(error_of({{"utility-scale-min", "0.9"},
                              {"utility-scale-max", "0.5"}}),
                    "utility-scale-min"));
  EXPECT_TRUE(names(error_of({{"cap-scale-min", "1.5"},
                              {"cap-scale-max", "1.2"}}),
                    "cap-scale-min"));
  EXPECT_TRUE(names(error_of({{"w-capacity", "-1"}}), "w-capacity"));
  EXPECT_TRUE(names(error_of({{"w-user-leave", "0"},
                              {"w-user-join", "0"},
                              {"w-stream-remove", "0"},
                              {"w-stream-add", "0"},
                              {"w-capacity", "0"},
                              {"w-utility", "0"}}),
                    "all zero"));
  // Degenerate but legal ranges are accepted.
  EXPECT_EQ(error_of({{"utility-scale-min", "1"},
                      {"cap-scale-min", "1.3"},
                      {"w-utility", "0"}}),
            "");
}

// The most aggressive accepted churn (utilities at their declared value,
// caps scaled toward zero and floored) keeps resolve parity after every
// event.
TEST(WorkloadRegistry, ChurnExtremeParamsKeepResolveParity) {
  const Instance inst = base_instance(2, 12, 5);
  const auto trace = WorkloadRegistry::global().generate(
      "churn", inst,
      {{"events", "40"},
       {"seed", "2"},
       {"utility-scale-min", "1"},
       {"cap-scale-min", "0"},
       {"cap-scale-max", "0.2"},
       {"w-capacity", "6"}});
  engine::ServeConfig opts;
  opts.policy = engine::ServePolicy::kResolve;
  engine::Session session(inst, opts);
  for (std::size_t i = 0; i < trace.size(); ++i) {
    session.apply(trace[i]);
    const core::SmdSolveResult fresh =
        core::solve_unit_skew(session.overlay().materialize());
    ASSERT_EQ(session.objective(), fresh.utility) << "event " << i;
  }
}

TEST(WorkloadRegistry, FamiliesRejectUnchurnableInstances) {
  // One stream, one user, no interest pairs: nothing to churn.
  const Instance empty = model::build_cap_instance({1.0}, 10.0, {5.0}, {});
  EXPECT_THROW(WorkloadRegistry::global().generate("zipf-drift", empty, {}),
               std::invalid_argument);
}

// --- the churn mix's phase schedule ---------------------------------------

detail::ChurnPhase phase(double until, std::array<double, 6> weights) {
  detail::ChurnPhase p;
  p.until = until;
  p.weights = weights;
  return p;
}

// A segment boundary between equal weights changes nothing: the schedule
// only swaps the weight table, never the draws.
TEST(EventPhases, SplitScheduleWithEqualWeightsIsByteIdentical) {
  const Instance inst = base_instance(5);
  const std::array<double, 6> w = {2, 2, 1, 1, 2, 2};
  const std::vector<detail::ChurnPhase> one = {phase(1.0, w)};
  const std::vector<detail::ChurnPhase> three = {
      phase(0.3, w), phase(0.7, w), phase(1.0, w)};
  EXPECT_EQ(serialize(detail::mixed_churn(inst, 100, 9, one, {})),
            serialize(detail::mixed_churn(inst, 100, 9, three, {})));
  // And the single phase at churn's declared weights is the churn family.
  EXPECT_EQ(serialize(detail::mixed_churn(inst, 100, 9, one, {})),
            serialize(WorkloadRegistry::global().generate(
                "churn", inst, {{"events", "100"}, {"seed", "9"}})));
}

TEST(EventPhases, PiecewiseWeightsShapeTheMix) {
  const Instance inst = base_instance(5, 40, 16);
  // First half: joins only among user events; second half: leaves only.
  const std::vector<detail::ChurnPhase> schedule = {
      phase(0.5, {0, 8, 0, 0, 2, 2}), phase(1.0, {8, 0, 0, 0, 2, 2})};
  const auto trace = detail::mixed_churn(inst, 200, 4, schedule, {});
  ASSERT_EQ(trace.size(), 200u);
  for (std::size_t i = 0; i < trace.size(); ++i) {
    if (trace[i].type == model::EventType::kUserLeave) {
      EXPECT_GE(i, 100u) << "leave drawn in the join-only phase";
    }
    if (trace[i].type == model::EventType::kUserJoin) {
      EXPECT_LT(i, 100u) << "join drawn in the leave-only phase";
    }
  }
}

// --- engine integration -----------------------------------------------------

TEST(WorkloadServe, FamilyOptionReachesTheRegistry) {
  const Instance inst = base_instance(2, 25, 10);
  engine::SolveRequest req;
  req.instance = &inst;
  req.algorithm = "serve";
  req.seed = 5;
  req.options.set("policy", "resolve").set("events", 60);
  req.options.set("family", "flash-crowd");
  const engine::SolveResult r = engine::solve(req);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.stat("events"), 60.0);

  engine::SolveRequest bad = req;
  bad.options.set("family", "flash-crwod");
  const engine::SolveResult rejected = engine::solve(bad);
  EXPECT_FALSE(rejected.ok);
  EXPECT_NE(rejected.error.find("flash-crwod"), std::string::npos);
}

TEST(WorkloadServe, FamiliesDeterministicAcrossBatchRunnerThreadCounts) {
  const Instance inst = base_instance(4, 25, 10);
  std::vector<engine::SolveRequest> requests;
  for (const std::string& family : kFamilies) {
    for (const char* policy : {"repair", "resolve"}) {
      engine::SolveRequest req;
      req.instance = &inst;
      req.algorithm = "serve";
      req.seed = 3;
      req.options.set("policy", policy).set("events", 50);
      req.options.set("family", family);
      requests.push_back(std::move(req));
    }
  }
  std::vector<std::vector<engine::SolveResult>> runs;
  for (const unsigned threads : {1u, 4u})
    runs.push_back(engine::solve_batch(requests, {.num_threads = threads}));
  ASSERT_EQ(runs[0].size(), requests.size());
  for (std::size_t i = 0; i < runs[0].size(); ++i) {
    ASSERT_TRUE(runs[0][i].ok) << runs[0][i].error;
    EXPECT_EQ(runs[0][i].objective, runs[1][i].objective) << i;
  }
}

TEST(WorkloadScenarios, AdversarialFamiliesRegisteredAsScenarios) {
  const engine::ScenarioRegistry& registry =
      engine::ScenarioRegistry::global();
  for (const std::string& name : kFamilies) {
    ASSERT_TRUE(registry.contains(name)) << name;
    engine::ScenarioSpec spec;
    spec.name = name;
    spec.params.set("base", "cap").set("set", "streams=16,users=6");
    spec.params.set("events", 40);
    spec.seed = 8;
    const Instance built = engine::build_scenario(spec);
    EXPECT_EQ(built.num_streams(), 16u) << name;
    EXPECT_EQ(built.num_users(), 6u) << name;
    EXPECT_TRUE(built.is_unit_skew()) << name;
    const Instance again = engine::build_scenario(spec);
    EXPECT_EQ(built.utility_upper_bound(), again.utility_upper_bound())
        << name;
  }
}

}  // namespace
}  // namespace vdist::workload
