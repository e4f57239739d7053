#include "engine/scenario.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "io/instance_io.h"
#include "model/validate.h"

namespace vdist::engine {
namespace {

// Small sizes so the whole registry can be built repeatedly in tests.
ScenarioSpec small_spec(const std::string& name, std::uint64_t seed = 1) {
  ScenarioSpec spec;
  spec.name = name;
  spec.seed = seed;
  const ScenarioInfo& info = ScenarioRegistry::global().info(name);
  if (info.declares("streams")) spec.params.set("streams", 12);
  if (info.declares("users")) spec.params.set("users", 6);
  if (info.declares("horizon")) spec.params.set("horizon", 60);
  return spec;
}

std::string serialized(const model::Instance& inst) {
  std::ostringstream os;
  io::save_instance(os, inst);
  return os.str();
}

TEST(ScenarioRegistry, KnowsEveryBuiltinGenerator) {
  const ScenarioRegistry& r = ScenarioRegistry::global();
  for (const char* name :
       {"cap", "smd", "mmd", "iptv", "small", "tightness", "trace"})
    EXPECT_TRUE(r.contains(name)) << name;
  const auto names = r.names();
  EXPECT_GE(names.size(), 7u);
  EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
}

TEST(ScenarioRegistry, EveryScenarioDeclaresParamsAndBuildsItsDefaults) {
  const ScenarioRegistry& r = ScenarioRegistry::global();
  for (const std::string& name : r.names()) {
    const ScenarioInfo& info = r.info(name);
    EXPECT_FALSE(info.description.empty()) << name;
    EXPECT_FALSE(info.params.empty()) << name;
    for (const ScenarioParam& p : info.params) {
      EXPECT_FALSE(p.key.empty()) << name;
      EXPECT_FALSE(p.default_value.empty()) << name << "/" << p.key;
      EXPECT_FALSE(p.description.empty()) << name << "/" << p.key;
    }
    // A small spec touching only declared params builds a usable
    // instance.
    const model::Instance inst = r.build(small_spec(name));
    EXPECT_GT(inst.num_streams(), 0u) << name;
    EXPECT_GT(inst.num_users(), 0u) << name;
    EXPECT_GT(inst.num_edges(), 0u) << name;
  }
}

TEST(ScenarioRegistry, BuildsAreDeterministicFunctionsOfTheSpec) {
  const ScenarioRegistry& r = ScenarioRegistry::global();
  for (const std::string& name : r.names()) {
    const std::string a = serialized(r.build(small_spec(name, 5)));
    const std::string b = serialized(r.build(small_spec(name, 5)));
    EXPECT_EQ(a, b) << name;
  }
}

TEST(ScenarioRegistry, SeedChangesRandomizedScenarios) {
  // tightness is deterministic by design; every other family must react
  // to the seed.
  for (const char* name : {"cap", "smd", "mmd", "iptv", "small", "trace"}) {
    const std::string a =
        serialized(ScenarioRegistry::global().build(small_spec(name, 1)));
    const std::string b =
        serialized(ScenarioRegistry::global().build(small_spec(name, 2)));
    EXPECT_NE(a, b) << name;
  }
}

TEST(ScenarioRegistry, DefaultsFoldIntoResolvedSpecs) {
  const ScenarioRegistry& r = ScenarioRegistry::global();
  ScenarioSpec spec;
  spec.name = "cap";
  const ScenarioSpec resolved = r.resolve(spec);
  // Every declared param is present after resolution...
  for (const ScenarioParam& p : r.info("cap").params)
    EXPECT_TRUE(resolved.params.has(p.key)) << p.key;
  // ...and spelling a default out changes nothing about the build.
  ScenarioSpec explicit_spec = spec;
  explicit_spec.params.set("budget-fraction", "0.3");
  EXPECT_EQ(serialized(r.build(spec)), serialized(r.build(explicit_spec)));
}

TEST(ScenarioRegistry, UnknownScenarioThrowsListingKnownNames) {
  ScenarioSpec spec;
  spec.name = "no-such-workload";
  try {
    (void)build_scenario(spec);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("no-such-workload"),
              std::string::npos);
    EXPECT_NE(std::string(e.what()).find("iptv"), std::string::npos);
  }
}

TEST(ScenarioRegistry, StrictModeRejectsUndeclaredParams) {
  ScenarioSpec spec;
  spec.name = "cap";
  spec.params.set("bugdet-fraction", "0.3");  // typo'd on purpose
  try {
    (void)build_scenario(spec);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("bugdet-fraction"), std::string::npos);
    EXPECT_NE(what.find("budget-fraction"), std::string::npos)
        << "message should list the declared keys";
  }
  // Lenient mode ignores the stray key instead.
  const model::Instance inst = build_scenario(spec, /*strict=*/false);
  EXPECT_GT(inst.num_streams(), 0u);
}

// Count params parse the whole token and are range-checked: a negative,
// suffixed or int-overflowing value is an error naming the param, never
// a wrapped or truncated count.
TEST(ScenarioRegistry, CountParamsRejectOutOfRangeValues) {
  for (const auto& [name, key, value] :
       std::vector<std::tuple<std::string, std::string, std::string>>{
           {"cap", "streams", "-3"},
           {"cap", "streams", "12x"},
           {"tightness", "m", "4294967297"},
           {"iptv", "variants", "-1"}}) {
    ScenarioSpec spec;
    spec.name = name;
    spec.params.set(key, value);
    try {
      (void)build_scenario(spec);
      ADD_FAILURE() << name << " " << key << "=" << value << " must throw";
    } catch (const std::invalid_argument& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("option --" + key), std::string::npos) << what;
      EXPECT_NE(what.find("'" + value + "'"), std::string::npos) << what;
    }
  }
}

// A boolean param takes get_bool's vocabulary and nothing else.
TEST(ScenarioRegistry, BooleanParamsTakeTheBooleanVocabulary) {
  ScenarioSpec plain;
  plain.name = "cap";
  plain.params.set("streams", 8).set("users", 4);
  ScenarioSpec reduced = plain;
  reduced.params.set("budget-minus-cmax", "yes");
  // "yes" turns the reduction on: the budget drops by the largest cost.
  EXPECT_LT(build_scenario(reduced).budget(0), build_scenario(plain).budget(0));

  for (const char* bad : {"2", "Y", "enable"}) {
    ScenarioSpec spec = plain;
    spec.params.set("budget-minus-cmax", std::string(bad));
    try {
      (void)build_scenario(spec);
      ADD_FAILURE() << "budget-minus-cmax=" << bad << " must throw";
    } catch (const std::invalid_argument& e) {
      EXPECT_EQ(std::string(e.what()),
                std::string("option --budget-minus-cmax expects a boolean, "
                            "got '") +
                    bad + "'");
    }
  }
}

TEST(ScenarioRegistry, DuplicateRegistrationThrows) {
  EXPECT_THROW(ScenarioRegistry::global().add(
                   {.name = "cap", .description = "dup", .params = {}},
                   [](const ScenarioSpec&) {
                     model::InstanceBuilder b(1, 1);
                     b.set_budget(0, 1.0);
                     b.add_stream({1.0});
                     b.add_user({1.0});
                     b.add_interest_unit_skew(0, 0, 1.0);
                     return std::move(b).build();
                   }),
               std::invalid_argument);
}

TEST(ScenarioRegistry, CapBudgetMinusCmaxShrinksTheBudget) {
  ScenarioSpec plain = small_spec("cap", 3);
  ScenarioSpec reduced = plain;
  reduced.params.set("budget-minus-cmax", 1);
  const model::Instance a = build_scenario(plain);
  const model::Instance b = build_scenario(reduced);
  EXPECT_LT(b.budget(0), a.budget(0));
  // Same streams and edges: only the budget moved.
  EXPECT_EQ(a.num_streams(), b.num_streams());
  EXPECT_EQ(a.num_edges(), b.num_edges());
}

TEST(ScenarioRegistry, SmallTightnessBelowOneBreaksThePremise) {
  ScenarioSpec holds = small_spec("small", 4);
  holds.params.set("streams", 60);
  ScenarioSpec broken = holds;
  broken.params.set("tightness", 0.2);
  const model::Instance a = build_scenario(holds);
  const model::Instance b = build_scenario(broken);
  for (int i = 0; i < a.num_server_measures(); ++i)
    EXPECT_LT(b.budget(i), a.budget(i)) << i;
}

TEST(ScenarioRegistry, TraceExpandsSessionsAsUnitSkewStreams) {
  ScenarioSpec spec = small_spec("trace", 9);
  const model::Instance inst = build_scenario(spec);
  EXPECT_TRUE(inst.is_unit_skew());
  EXPECT_TRUE(inst.is_smd());
  // Session streams are named after their catalog stream.
  EXPECT_NE(inst.stream_name(0).find("sess"), std::string::npos);
  // A longer horizon draws more sessions.
  ScenarioSpec longer = spec;
  longer.params.set("horizon", 240);
  EXPECT_GT(build_scenario(longer).num_streams(), inst.num_streams());
}

TEST(ScenarioRegistry, TraceBudgetCoversTheMostExpensiveSession) {
  // A short trace dominated by one long session must still be a valid
  // instance: the budget is clamped to the largest session cost (the
  // builder rejects c(S) > B).
  ScenarioSpec spec;
  spec.name = "trace";
  spec.params.set("horizon", 6).set("mean-duration", 40);
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    spec.seed = seed;
    const model::Instance inst = build_scenario(spec);
    double max_cost = 0.0;
    for (std::size_t s = 0; s < inst.num_streams(); ++s)
      max_cost =
          std::max(max_cost, inst.cost(static_cast<model::StreamId>(s), 0));
    EXPECT_GE(inst.budget(0), max_cost) << seed;
  }
}

}  // namespace
}  // namespace vdist::engine
