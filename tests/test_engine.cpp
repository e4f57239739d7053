#include "engine/registry.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <climits>
#include <cstdint>
#include <set>
#include <stdexcept>
#include <string>

#include "engine/batch.h"
#include "engine/serving.h"
#include "gen/random_instances.h"
#include "model/factory.h"

namespace vdist::engine {
namespace {

model::Instance small_cap_instance(std::uint64_t seed = 42) {
  gen::RandomCapConfig cfg;
  cfg.num_streams = 10;
  cfg.num_users = 5;
  cfg.budget_fraction = 0.4;
  cfg.cap_fraction = 0.5;
  cfg.seed = seed;
  return gen::random_cap_instance(cfg);
}

model::Instance small_mmd_instance(std::uint64_t seed = 43) {
  gen::RandomMmdConfig cfg;
  cfg.num_streams = 10;
  cfg.num_users = 5;
  cfg.num_server_measures = 2;
  cfg.num_user_measures = 2;
  cfg.seed = seed;
  return gen::random_mmd_instance(cfg);
}

TEST(Registry, KnowsEveryBuiltinAlgorithm) {
  const SolverRegistry& r = SolverRegistry::global();
  for (const char* name :
       {"pipeline", "bands", "greedy", "greedy-augmented", "greedy-plain",
        "amax", "enum", "exact", "online", "threshold", "fcfs", "random"})
    EXPECT_TRUE(r.contains(name)) << name;
  const auto names = r.names();
  EXPECT_GE(names.size(), 12u);
  EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
}

TEST(Registry, UnknownNameIsAnErrorResultNotAThrow) {
  const model::Instance inst = small_cap_instance();
  SolveRequest req;
  req.instance = &inst;
  req.algorithm = "no-such-algorithm";
  const SolveResult r = solve(req);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("no-such-algorithm"), std::string::npos);
  // The error names the known algorithms, so a CLI typo is self-healing.
  EXPECT_NE(r.error.find("greedy"), std::string::npos);
  EXPECT_FALSE(r.assignment.has_value());
  EXPECT_THROW((void)r.solution(), std::logic_error);
}

TEST(Registry, InfoThrowsOnUnknownName) {
  EXPECT_THROW((void)SolverRegistry::global().info("nope"),
               std::invalid_argument);
}

TEST(Registry, NullInstanceThrows) {
  SolveRequest req;
  req.algorithm = "greedy";
  EXPECT_THROW((void)solve(req), std::invalid_argument);
}

TEST(Registry, WrongInstanceFormIsAnErrorResult) {
  // greedy requires the unit-skew cap form; an MMD instance must be
  // rejected before dispatch with a message naming the requirement.
  const model::Instance mmd = small_mmd_instance();
  SolveRequest req;
  req.instance = &mmd;
  req.algorithm = "greedy";
  const SolveResult r = solve(req);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("unit-skew"), std::string::npos);
}

TEST(Registry, DuplicateRegistrationThrows) {
  EXPECT_THROW(SolverRegistry::global().add(
                   {.name = "greedy", .description = "dup"},
                   [](const SolveRequest& req) {
                     return SolveOutcome{model::Assignment(*req.instance)};
                   }),
               std::invalid_argument);
}

// Round-trip: every registered algorithm solves an instance of its
// required form and reports a consistent result.
TEST(Registry, EveryAlgorithmRoundTrips) {
  const model::Instance cap = small_cap_instance();
  const model::Instance mmd = small_mmd_instance();
  const SolverRegistry& registry = SolverRegistry::global();
  for (const std::string& name : registry.names()) {
    // Registered-but-synthetic test solvers from other test cases never
    // appear here because the duplicate test above registers nothing.
    const model::Instance& inst =
        registry.info(name).form == InstanceForm::kAny ? mmd : cap;
    SolveRequest req;
    req.instance = &inst;
    req.algorithm = name;
    req.options.set("depth", 2);  // keeps enum/bands cheap; others ignore it
    const SolveResult r = solve(req);
    ASSERT_TRUE(r.ok) << name << ": " << r.error;
    EXPECT_EQ(r.algorithm, name);
    ASSERT_TRUE(r.assignment.has_value()) << name;
    EXPECT_GE(r.objective, 0.0) << name;
    EXPECT_NEAR(r.raw_utility, r.assignment->utility(), 1e-9) << name;
    EXPECT_LE(r.objective, r.upper_bound + 1e-9) << name;
    EXPECT_GE(r.wall_ms, 0.0) << name;
    // Server budgets must hold for every algorithm (only user caps may be
    // overrun, and only by the semi-feasible greedy variants).
    EXPECT_NE(r.feasibility, model::Feasibility::kInfeasible) << name;
    if (name != "greedy-plain" && name != "greedy-augmented") {
      EXPECT_TRUE(r.feasible()) << name;
    }
  }
}

TEST(Registry, OptionsReachTheAlgorithm) {
  const model::Instance cap = small_cap_instance();
  SolveRequest shallow;
  shallow.instance = &cap;
  shallow.algorithm = "enum";
  shallow.options.set("depth", 0);
  SolveRequest deep = shallow;
  deep.options.set("depth", 2);
  const SolveResult r0 = solve(shallow);
  const SolveResult r2 = solve(deep);
  ASSERT_TRUE(r0.ok && r2.ok);
  // Depth 2 enumerates strictly more candidate seed sets than depth 0.
  EXPECT_GT(r2.stat("candidates"), r0.stat("candidates"));
  EXPECT_GE(r2.objective, r0.objective - 1e-9);
}

TEST(Registry, InvalidOptionValueIsAnErrorResult) {
  const model::Instance cap = small_cap_instance();
  SolveRequest req;
  req.instance = &cap;
  req.algorithm = "enum";
  req.options.set("depth", "banana");
  const SolveResult r = solve(req);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("depth"), std::string::npos);
}

// The typed accessors read whole well-formed tokens; what they refuse is
// the SolveOptionsRejects table below.
TEST(SolveOptions, TypedAccessorsParseTheWholeToken) {
  SolveOptions opts;
  opts.set("depth", "2").set("bound", "0.25").set("exp", "1e3");
  opts.set("guard", "yes").set("strict", "off").set("neg", "-7");
  EXPECT_EQ(opts.get_int("depth", 0), 2);
  EXPECT_EQ(opts.get_int("neg", 0), -7);
  EXPECT_EQ(opts.get_int("missing", 9), 9);
  EXPECT_EQ(opts.get_double("bound", 0.0), 0.25);
  EXPECT_EQ(opts.get_double("exp", 0.0), 1000.0);
  EXPECT_EQ(opts.get_double("depth", 0.0), 2.0);
  EXPECT_TRUE(opts.get_bool("guard", false));
  EXPECT_FALSE(opts.get_bool("strict", true));
  EXPECT_EQ(opts.get_int("depth", 0, 0, 2), 2);  // range bounds are inclusive
  EXPECT_EQ(opts.get_int("neg", 0, -7, 0), -7);
}

TEST(SolveOptions, GetBoolAcceptsTheWholeVocabulary) {
  SolveOptions opts;
  for (const char* word : {"1", "true", "yes", "on"})
    EXPECT_TRUE(opts.set("b", std::string(word)).get_bool("b", false)) << word;
  for (const char* word : {"0", "false", "no", "off"})
    EXPECT_FALSE(opts.set("b", std::string(word)).get_bool("b", true)) << word;
}

// One row per value the typed accessors must refuse: the repros of the
// flag-parsing bug (a suffix read as its prefix, a negative wrapped to
// 2^64-1, an overflow, a boolean outside the vocabulary, a NaN that
// passes every range check) and their neighbours, plus the `mu` domain
// (parse_mu_option). Each error names the option and the value.
enum class Typed { kInt, kDouble, kBool, kMu };
struct BadValue {
  const char* name;  // gtest case name
  Typed type;
  std::int64_t lo, hi;  // the get_int range
  const char* key;
  const char* value;
  const char* message;
};
void PrintTo(const BadValue& bad, std::ostream* os) {
  *os << "--" << bad.key << " '" << bad.value << "'";
}
constexpr std::int64_t kLo = INT64_MIN, kHi = INT64_MAX;

class SolveOptionsRejects : public ::testing::TestWithParam<BadValue> {};

TEST_P(SolveOptionsRejects, NamingTheOptionAndTheValue) {
  const BadValue& bad = GetParam();
  SolveOptions opts;
  opts.set(bad.key, std::string(bad.value));
  try {
    if (bad.type == Typed::kInt) (void)opts.get_int(bad.key, 0, bad.lo, bad.hi);
    if (bad.type == Typed::kDouble) (void)opts.get_double(bad.key, 0.0);
    if (bad.type == Typed::kBool) (void)opts.get_bool(bad.key, false);
    if (bad.type == Typed::kMu) (void)parse_mu_option(opts);
    ADD_FAILURE() << "accepted '" << bad.value << "'";
  } catch (const std::invalid_argument& e) {
    EXPECT_EQ(std::string(e.what()), bad.message);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Tokens, SolveOptionsRejects,
    ::testing::Values(
        BadValue{"RefreshSuffix", Typed::kInt, 0, INT_MAX, "refresh", "8x",
                 "option --refresh expects an integer in [0, 2147483647], "
                 "got '8x'"},
        BadValue{"DepthSuffix", Typed::kInt, kLo, kHi, "depth", "2x",
                 "option --depth expects an integer, got '2x'"},
        BadValue{"EveryWord", Typed::kInt, 0, kHi, "every", "12abc",
                 "option --every expects an integer >= 0, got '12abc'"},
        BadValue{"CheckNegative", Typed::kInt, 0, INT_MAX, "check", "-1",
                 "option --check expects an integer in [0, 2147483647], "
                 "got '-1'"},
        BadValue{"ReplicatesOverInt", Typed::kInt, 1, INT_MAX, "replicates",
                 "99999999999",
                 "option --replicates expects an integer in [1, "
                 "2147483647], got '99999999999'"},
        BadValue{"OverInt64", Typed::kInt, kLo, kHi, "seed",
                 "9223372036854775808",
                 "option --seed expects an integer, got "
                 "'9223372036854775808'"},
        BadValue{"IntDecimal", Typed::kInt, kLo, kHi, "n", "3.0",
                 "option --n expects an integer, got '3.0'"},
        BadValue{"IntLeadingSpace", Typed::kInt, kLo, kHi, "n", " 3",
                 "option --n expects an integer, got ' 3'"},
        BadValue{"IntEmpty", Typed::kInt, kLo, kHi, "n", "",
                 "option --n expects an integer, got ''"},
        BadValue{"BudgetWord", Typed::kDouble, 0, 0, "budget-ms", "abc",
                 "option --budget-ms expects a number, got 'abc'"},
        BadValue{"BudgetSuffix", Typed::kDouble, 0, 0, "budget-ms", "5xyz",
                 "option --budget-ms expects a number, got '5xyz'"},
        BadValue{"SecondPoint", Typed::kDouble, 0, 0, "bound", "0.5.1",
                 "option --bound expects a number, got '0.5.1'"},
        BadValue{"BareExponent", Typed::kDouble, 0, 0, "mu", "1e",
                 "option --mu expects a number, got '1e'"},
        BadValue{"MinSpeedupNaN", Typed::kDouble, 0, 0, "min-speedup", "nan",
                 "option --min-speedup expects a number, got 'nan'"},
        BadValue{"MaxRegressNaN", Typed::kDouble, 0, 0, "max-regress", "nan",
                 "option --max-regress expects a number, got 'nan'"},
        BadValue{"InterestNaN", Typed::kDouble, 0, 0, "interest", "nan",
                 "option --interest expects a number, got 'nan'"},
        BadValue{"NegativeNaN", Typed::kDouble, 0, 0, "bound", "-nan",
                 "option --bound expects a number, got '-nan'"},
        BadValue{"MuNaN", Typed::kMu, 0, 0, "mu", "nan",
                 "option --mu expects a number, got 'nan'"},
        BadValue{"MuNegative", Typed::kMu, 0, 0, "mu", "-3",
                 "option --mu expects 0 (auto) or a finite number > 1, "
                 "got '-3'"},
        BadValue{"MuInf", Typed::kMu, 0, 0, "mu", "inf",
                 "option --mu expects 0 (auto) or a finite number > 1, "
                 "got 'inf'"},
        BadValue{"MuHalf", Typed::kMu, 0, 0, "mu", "0.5",
                 "option --mu expects 0 (auto) or a finite number > 1, "
                 "got '0.5'"},
        BadValue{"MuOne", Typed::kMu, 0, 0, "mu", "1",
                 "option --mu expects 0 (auto) or a finite number > 1, "
                 "got '1'"},
        BadValue{"DeterministicTwo", Typed::kBool, 0, 0, "deterministic", "2",
                 "option --deterministic expects a boolean, got '2'"},
        BadValue{"StrictUpperCase", Typed::kBool, 0, 0, "strict", "TRUE",
                 "option --strict expects a boolean, got 'TRUE'"},
        BadValue{"GuardEmpty", Typed::kBool, 0, 0, "guard", "",
                 "option --guard expects a boolean, got ''"}),
    [](const ::testing::TestParamInfo<BadValue>& info) {
      return std::string(info.param.name);
    });

// Through the registry the same error is a failed SolveResult.
TEST(Registry, SuffixedOptionValueIsAnErrorResultNamingIt) {
  const model::Instance cap = small_cap_instance();
  SolveRequest req;
  req.instance = &cap;
  req.algorithm = "enum";
  req.options.set("depth", "2x");
  const SolveResult r = solve(req);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("option --depth expects an integer in "
                         "[0, 2147483647], got '2x'"),
            std::string::npos)
      << r.error;
}

TEST(Registry, EveryAlgorithmDeclaresTheOptionsItReads) {
  // The strict-mode contract: option keys mentioned in the description
  // must be declared, and declared keys must pass check_options.
  const SolverRegistry& registry = SolverRegistry::global();
  for (const std::string& name : registry.names()) {
    const SolverInfo& info = registry.info(name);
    SolveOptions all_declared;
    for (const std::string& key : info.option_keys)
      all_declared.set(key, "1");
    EXPECT_NO_THROW(registry.check_options(name, all_declared)) << name;
    EXPECT_THROW(
        registry.check_options(name, SolveOptions().set("no-such-key", "1")),
        std::invalid_argument)
        << name;
  }
}

TEST(Registry, StrictRequestRejectsUndeclaredOptionKeys) {
  const model::Instance cap = small_cap_instance();
  SolveRequest req;
  req.instance = &cap;
  req.algorithm = "enum";
  req.options.set("depht", 2);  // typo'd on purpose
  req.strict = true;
  const SolveResult r = solve(req);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("depht"), std::string::npos);
  EXPECT_NE(r.error.find("depth"), std::string::npos)
      << "error should list the declared keys";
  // The same request succeeds leniently (the stray key is ignored).
  req.strict = false;
  EXPECT_TRUE(solve(req).ok);
}

TEST(Registry, ExactReportsProvenOptimality) {
  const model::Instance cap = small_cap_instance();
  SolveRequest req;
  req.instance = &cap;
  req.algorithm = "exact";
  const SolveResult r = solve(req);
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.stat("proven_optimal"), 1.0);
  // And the proven optimum dominates every other feasible solver.
  for (const char* other : {"greedy", "enum", "fcfs", "online"}) {
    SolveRequest oreq;
    oreq.instance = &cap;
    oreq.algorithm = other;
    const SolveResult o = solve(oreq);
    ASSERT_TRUE(o.ok) << other;
    EXPECT_LE(o.objective, r.objective + 1e-9) << other;
  }
}

// --- BatchRunner ------------------------------------------------------------

std::vector<SolveRequest> mixed_batch(const model::Instance& cap,
                                      const model::Instance& mmd) {
  std::vector<SolveRequest> requests;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    SolveRequest r1;
    r1.instance = &cap;
    r1.algorithm = "random";  // seed-sensitive: exercises derived seeding
    r1.seed = seed;
    requests.push_back(r1);
    SolveRequest r2;
    r2.instance = &mmd;
    r2.algorithm = "pipeline";
    requests.push_back(r2);
    SolveRequest r3;
    r3.instance = &cap;
    r3.algorithm = "greedy";
    requests.push_back(r3);
  }
  return requests;
}

TEST(BatchRunner, ResultsComeBackInRequestOrder) {
  const model::Instance cap = small_cap_instance();
  const model::Instance mmd = small_mmd_instance();
  const auto requests = mixed_batch(cap, mmd);
  const auto results = solve_batch(requests, {.num_threads = 4});
  ASSERT_EQ(results.size(), requests.size());
  for (std::size_t i = 0; i < results.size(); ++i) {
    ASSERT_TRUE(results[i].ok) << i << ": " << results[i].error;
    EXPECT_EQ(results[i].algorithm, requests[i].algorithm) << i;
  }
}

TEST(BatchRunner, DeterministicAcrossThreadCounts) {
  const model::Instance cap = small_cap_instance();
  const model::Instance mmd = small_mmd_instance();
  const auto requests = mixed_batch(cap, mmd);

  std::vector<std::vector<SolveResult>> runs;
  for (unsigned threads : {1u, 2u, 4u, 8u})
    runs.push_back(
        solve_batch(requests, {.num_threads = threads, .base_seed = 7}));

  for (std::size_t v = 1; v < runs.size(); ++v) {
    ASSERT_EQ(runs[v].size(), runs[0].size());
    for (std::size_t i = 0; i < runs[0].size(); ++i) {
      EXPECT_DOUBLE_EQ(runs[v][i].objective, runs[0][i].objective)
          << "request " << i << " at thread count variant " << v;
      EXPECT_EQ(runs[v][i].seed, runs[0][i].seed) << i;
      EXPECT_EQ(runs[v][i].assignment->num_assigned_pairs(),
                runs[0][i].assignment->num_assigned_pairs())
          << i;
    }
  }
}

TEST(BatchRunner, BaseSeedShiftsRandomizedRequestsOnly) {
  const model::Instance cap = small_cap_instance();
  std::vector<SolveRequest> requests;
  SolveRequest rand_req;
  rand_req.instance = &cap;
  rand_req.algorithm = "random";
  requests.push_back(rand_req);
  SolveRequest det_req;
  det_req.instance = &cap;
  det_req.algorithm = "greedy";
  requests.push_back(det_req);

  const auto a = solve_batch(requests, {.base_seed = 1});
  const auto b = solve_batch(requests, {.base_seed = 2});
  // Deterministic algorithms are immune to the base seed...
  EXPECT_DOUBLE_EQ(a[1].objective, b[1].objective);
  // ...while the derived per-request seed does change.
  EXPECT_NE(a[0].seed, b[0].seed);
}

TEST(BatchRunner, DerivedSeedIsAPureFunction) {
  const auto s = BatchRunner::derive_seed(1, 2, 3);
  EXPECT_EQ(BatchRunner::derive_seed(1, 2, 3), s);
  EXPECT_NE(BatchRunner::derive_seed(2, 2, 3), s);
  EXPECT_NE(BatchRunner::derive_seed(1, 3, 3), s);
  EXPECT_NE(BatchRunner::derive_seed(1, 2, 4), s);
}

TEST(BatchRunner, BadRequestFailsAloneWithoutPoisoningTheBatch) {
  const model::Instance cap = small_cap_instance();
  std::vector<SolveRequest> requests;
  SolveRequest good;
  good.instance = &cap;
  good.algorithm = "greedy";
  requests.push_back(good);
  SolveRequest bad;
  bad.instance = &cap;
  bad.algorithm = "missing-solver";
  requests.push_back(bad);
  requests.push_back(good);

  const auto results = solve_batch(requests, {.num_threads = 2});
  EXPECT_TRUE(results[0].ok);
  EXPECT_FALSE(results[1].ok);
  EXPECT_TRUE(results[2].ok);
  EXPECT_NE(results[1].error.find("missing-solver"), std::string::npos);
}

TEST(BatchRunner, ProgressCallbackSeesEveryCompletion) {
  const model::Instance cap = small_cap_instance();
  std::vector<SolveRequest> requests;
  for (int i = 0; i < 5; ++i) {
    SolveRequest req;
    req.instance = &cap;
    req.algorithm = "greedy";
    requests.push_back(req);
  }
  std::set<std::size_t> seen;
  std::size_t total_seen = 0;
  BatchOptions opts;
  opts.num_threads = 3;
  opts.on_result = [&](const SolveResult&, std::size_t done,
                       std::size_t total) {
    seen.insert(done);
    total_seen = total;
  };
  (void)solve_batch(requests, std::move(opts));
  EXPECT_EQ(seen.size(), 5u);  // done counts 1..5, each exactly once
  EXPECT_EQ(*seen.rbegin(), 5u);
  EXPECT_EQ(total_seen, 5u);
}

}  // namespace
}  // namespace vdist::engine
