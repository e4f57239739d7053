#include "io/instance_io.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <sstream>

#include "engine/scenario.h"
#include "util/json.h"
#include "gen/iptv.h"
#include "gen/random_instances.h"
#include "model/factory.h"

namespace vdist::io {
namespace {

void expect_instances_equal(const model::Instance& a,
                            const model::Instance& b) {
  ASSERT_EQ(a.num_streams(), b.num_streams());
  ASSERT_EQ(a.num_users(), b.num_users());
  ASSERT_EQ(a.num_edges(), b.num_edges());
  ASSERT_EQ(a.num_server_measures(), b.num_server_measures());
  ASSERT_EQ(a.num_user_measures(), b.num_user_measures());
  for (int i = 0; i < a.num_server_measures(); ++i)
    EXPECT_EQ(a.budget(i), b.budget(i));
  for (std::size_t s = 0; s < a.num_streams(); ++s) {
    const auto sid = static_cast<model::StreamId>(s);
    EXPECT_EQ(a.stream_name(sid), b.stream_name(sid));
    for (int i = 0; i < a.num_server_measures(); ++i)
      EXPECT_EQ(a.cost(sid, i), b.cost(sid, i)) << "stream " << s;
    const auto ua = a.users_of(sid);
    const auto ub = b.users_of(sid);
    ASSERT_EQ(ua.size(), ub.size());
    for (std::size_t t = 0; t < ua.size(); ++t) {
      EXPECT_EQ(ua[t], ub[t]);
      EXPECT_EQ(a.utilities_of(sid)[t], b.utilities_of(sid)[t]);
    }
  }
  for (std::size_t u = 0; u < a.num_users(); ++u) {
    const auto uid = static_cast<model::UserId>(u);
    EXPECT_EQ(a.user_name(uid), b.user_name(uid));
    for (int j = 0; j < a.num_user_measures(); ++j)
      EXPECT_EQ(a.capacity(uid, j), b.capacity(uid, j));
  }
}

TEST(InstanceIo, RoundTripTinyInstance) {
  const model::Instance inst = model::build_cap_instance(
      {1.5, 2.25}, 3.0, {4.0, model::kUnbounded},
      {{0, 0, 1.0}, {1, 1, 2.0}});
  std::stringstream ss;
  save_instance(ss, inst);
  const model::Instance loaded = load_instance(ss);
  expect_instances_equal(inst, loaded);
}

TEST(InstanceIo, RoundTripExactDoubles) {
  // Values with no short decimal representation must survive.
  model::InstanceBuilder b(1, 1);
  b.set_budget(0, 1.0 / 3.0 * 10);
  const auto s = b.add_stream({0.1 + 0.2});
  const auto u = b.add_user({1e-7});
  b.add_interest(u, s, 1e-7, {1e-7});
  const model::Instance inst = std::move(b).build();
  std::stringstream ss;
  save_instance(ss, inst);
  const model::Instance loaded = load_instance(ss);
  EXPECT_EQ(loaded.budget(0), inst.budget(0));
  EXPECT_EQ(loaded.cost(0, 0), inst.cost(0, 0));
  EXPECT_EQ(loaded.edge_utility(0), inst.edge_utility(0));
}

TEST(InstanceIo, RoundTripRandomMmd) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    gen::RandomMmdConfig cfg;
    cfg.num_streams = 20;
    cfg.num_users = 8;
    cfg.num_server_measures = 3;
    cfg.num_user_measures = 2;
    cfg.seed = seed;
    const model::Instance inst = gen::random_mmd_instance(cfg);
    std::stringstream ss;
    save_instance(ss, inst);
    const model::Instance loaded = load_instance(ss);
    expect_instances_equal(inst, loaded);
  }
}

TEST(InstanceIo, RoundTripIptvWithNames) {
  gen::IptvConfig cfg;
  cfg.num_channels = 25;
  cfg.num_users = 20;
  cfg.seed = 3;
  const model::Instance inst = gen::make_iptv_workload(cfg).instance;
  std::stringstream ss;
  save_instance(ss, inst);
  const model::Instance loaded = load_instance(ss);
  expect_instances_equal(inst, loaded);
  EXPECT_FALSE(loaded.stream_name(0).empty());
}

// Registry-driven round-trip: every registered scenario family (current
// and future — new registrations are covered automatically) must survive
// save/load bit-exactly, including named streams/users (iptv, trace).
TEST(InstanceIo, RoundTripEveryRegisteredScenario) {
  const engine::ScenarioRegistry& registry =
      engine::ScenarioRegistry::global();
  for (const std::string& name : registry.names()) {
    for (std::uint64_t seed = 1; seed <= 2; ++seed) {
      engine::ScenarioSpec spec;
      spec.name = name;
      spec.seed = seed;
      const engine::ScenarioInfo& info = registry.info(name);
      if (info.declares("streams")) spec.params.set("streams", 15);
      if (info.declares("users")) spec.params.set("users", 7);
      if (info.declares("horizon")) spec.params.set("horizon", 80);
      const model::Instance inst = registry.build(spec);
      std::stringstream ss;
      save_instance(ss, inst);
      const model::Instance loaded = load_instance(ss);
      expect_instances_equal(inst, loaded);
    }
  }
}

// Scenario instances rebuilt with unbounded budgets/caps (the kUnbounded
// sentinel serializes as "inf") must round-trip too.
TEST(InstanceIo, RoundTripScenarioWithUnboundedMeasures) {
  engine::ScenarioSpec spec;
  spec.name = "mmd";
  spec.params.set("streams", 10).set("users", 5);
  const model::Instance base = engine::build_scenario(spec);
  model::InstanceBuilder b(base.num_server_measures(),
                           base.num_user_measures());
  for (int i = 0; i < base.num_server_measures(); ++i)
    b.set_budget(i, i == 0 ? model::kUnbounded : base.budget(i));
  for (std::size_t s = 0; s < base.num_streams(); ++s) {
    std::vector<double> costs;
    for (int i = 0; i < base.num_server_measures(); ++i)
      costs.push_back(base.cost(static_cast<model::StreamId>(s), i));
    b.add_stream(std::move(costs));
  }
  for (std::size_t u = 0; u < base.num_users(); ++u)
    b.add_user(std::vector<double>(
        static_cast<std::size_t>(base.num_user_measures()),
        model::kUnbounded));
  for (std::size_t s = 0; s < base.num_streams(); ++s) {
    const auto sid = static_cast<model::StreamId>(s);
    for (model::EdgeId e = base.first_edge(sid); e < base.last_edge(sid); ++e) {
      std::vector<double> loads;
      for (int j = 0; j < base.num_user_measures(); ++j)
        loads.push_back(base.edge_load(e, j));
      b.add_interest(base.edge_user(e), sid, base.edge_utility(e),
                     std::move(loads));
    }
  }
  const model::Instance inst = std::move(b).build();
  std::stringstream ss;
  save_instance(ss, inst);
  EXPECT_NE(ss.str().find("inf"), std::string::npos);
  const model::Instance loaded = load_instance(ss);
  expect_instances_equal(inst, loaded);
  EXPECT_TRUE(std::isinf(loaded.budget(0)));
  EXPECT_TRUE(std::isinf(loaded.capacity(0, 0)));
}

TEST(InstanceIo, CommentsAndBlankLinesIgnored) {
  const std::string text =
      "# a comment\n"
      "\n"
      "vdist-instance 1\n"
      "dims 1 1\n"
      "# budgets\n"
      "budget 0 5\n"
      "stream 0 - 1\n"
      "user 0 - 2\n"
      "\n"
      "interest 0 0 1.5 1.5\n";
  std::istringstream is(text);
  const model::Instance inst = load_instance(is);
  EXPECT_EQ(inst.num_streams(), 1u);
  EXPECT_EQ(inst.num_edges(), 1u);
  EXPECT_EQ(inst.utility(0, 0), 1.5);
}

TEST(InstanceIo, RejectsMalformedInput) {
  auto load = [](const std::string& text) {
    std::istringstream is(text);
    return load_instance(is);
  };
  EXPECT_THROW(load(""), std::runtime_error);
  EXPECT_THROW(load("not-a-header 1\n"), std::runtime_error);
  EXPECT_THROW(load("vdist-instance 99\ndims 1 1\n"), std::runtime_error);
  EXPECT_THROW(load("vdist-instance 1\nbudget 0 5\n"), std::runtime_error)
      << "dims must come first";
  EXPECT_THROW(load("vdist-instance 1\ndims 1 1\nstream 5 - 1\n"),
               std::runtime_error)
      << "non-dense stream ids";
  EXPECT_THROW(load("vdist-instance 1\ndims 1 1\nstream 0 - abc\n"),
               std::runtime_error)
      << "bad number";
  EXPECT_THROW(load("vdist-instance 1\ndims 1 1\nfrobnicate 1 2\n"),
               std::runtime_error)
      << "unknown record";
  EXPECT_THROW(load("vdist-instance 1\ndims 1 1\nstream 0 - 1 2\n"),
               std::runtime_error)
      << "wrong arity";
}

// Integer fields take the whole token, in [0, INT32_MAX]; every rejection,
// the builder's included, is an instance_io error naming the line.
TEST(InstanceIo, IntegerFieldsAreStrictAndEveryErrorNamesItsLine) {
  const std::string head =
      "vdist-instance 1\n"
      "dims 1 1\n"
      "budget 0 5\n"
      "stream 0 - 1\n"
      "user 0 - 3\n"
      "user 1 - 3\n";
  auto expect_error = [](const std::string& text, const std::string& what) {
    std::istringstream is(text);
    try {
      (void)load_instance(is);
      ADD_FAILURE() << "accepted:\n" << text;
    } catch (const std::runtime_error& e) {
      const std::string msg = e.what();
      EXPECT_EQ(msg.rfind("instance_io: ", 0), 0u) << msg;
      EXPECT_NE(msg.find(what), std::string::npos) << msg;
    } catch (const std::exception& e) {
      ADD_FAILURE() << "bare exception: " << e.what() << "\n" << text;
    }
  };
  expect_error(head + "interest 1x 0 2 2\n", "'1x' at line 7");
  expect_error("vdist-instance 1\ndims 1 1x\n", "'1x' at line 2");
  expect_error(head + "interest 4294967296 0 2 2\n",
               "'4294967296' at line 7");
  expect_error(head + "interest 0 -1 2 2\n", "'-1' at line 7");
  expect_error(head + "stream 1.0 - 1\n", "'1.0' at line 7");
  expect_error("vdist-instance 1\ndims 1 1\nbudget 0x 5\n", "'0x' at line 3");
  // Builder rejections, rethrown with the line.
  expect_error(head + "interest 0 0 nan nan\n",
               "add_interest: utility must be finite, >= 0 at line 7");
  expect_error(head + "interest 0 7 2 2\n",
               "add_interest: unknown stream at line 7");
  expect_error("vdist-instance 1\ndims 0 1\n",
               "InstanceBuilder: m must be >= 1 at line 2");
  expect_error("vdist-instance 1\ndims 1 1\nbudget 3 5\n",
               "set_budget: measure out of range at line 3");
  expect_error(head + "stream 1 - -2\n",
               "add_stream: costs must be finite and >= 0 at line 7");
  // Whole-instance checks report the last line read.
  expect_error(head + "interest 0 0 1 1\ninterest 1 0 1 1\ninterest 0 0 2 2\n",
               "build: duplicate (user, stream) interest at line 9");
  expect_error(head + "stream 1 - 9\n", "violates c_i(S) <= B_i");
}

// A dims line sizes the builder's per-measure arrays before any stream
// is read: counts above kMaxMeasures are a line-numbered error, not an
// allocation.
TEST(InstanceIo, HugeDimsAreRejectedBeforeAllocating) {
  for (const std::string dims : {"dims 2000000000 1", "dims 1 2000000000"}) {
    std::istringstream is("vdist-instance 1\n" + dims + "\nbudget 0 5\n");
    try {
      (void)load_instance(is);
      ADD_FAILURE() << "accepted " << dims;
    } catch (const std::runtime_error& e) {
      const std::string msg = e.what();
      EXPECT_EQ(msg.rfind("instance_io: dims allows at most 4096 measures", 0),
                0u)
          << msg;
      EXPECT_NE(msg.find("2000000000"), std::string::npos) << msg;
      EXPECT_NE(msg.find("at line 2"), std::string::npos) << msg;
    }
  }
  std::istringstream at_bound("vdist-instance 1\ndims " +
                              std::to_string(kMaxMeasures) + " 1\n");
  EXPECT_EQ(load_instance(at_bound).num_server_measures(), kMaxMeasures);
}

TEST(InstanceIo, UnboundedValuesSerializeAsInf) {
  model::InstanceBuilder b(1, 1);
  b.set_budget(0, model::kUnbounded);
  b.add_stream({5.0});
  b.add_user({model::kUnbounded});
  const model::Instance inst = std::move(b).build();
  std::stringstream ss;
  save_instance(ss, inst);
  EXPECT_NE(ss.str().find("budget 0 inf"), std::string::npos);
  const model::Instance loaded = load_instance(ss);
  EXPECT_TRUE(std::isinf(loaded.budget(0)));
}

TEST(InstanceIo, FileRoundTripAndErrors) {
  const model::Instance inst = model::build_cap_instance(
      {1.0}, 2.0, {3.0}, {{0, 0, 1.0}});
  const std::string path = "/tmp/vdist_io_test_instance.txt";
  save_instance_file(path, inst);
  const model::Instance loaded = load_instance_file(path);
  expect_instances_equal(inst, loaded);
  EXPECT_THROW(load_instance_file("/nonexistent/dir/file.txt"),
               std::runtime_error);
}

TEST(AssignmentIo, ExportsPairsAndUtility) {
  const model::Instance inst = model::build_cap_instance(
      {1.0, 1.0}, 5.0, {10.0}, {{0, 0, 2.0}, {0, 1, 3.0}});
  model::Assignment a(inst);
  a.assign(0, 0);
  a.assign(0, 1);
  std::stringstream ss;
  save_assignment(ss, a);
  const std::string out = ss.str();
  EXPECT_NE(out.find("assign 0 0"), std::string::npos);
  EXPECT_NE(out.find("assign 0 1"), std::string::npos);
  EXPECT_NE(out.find("utility 5"), std::string::npos);
}


TEST(AssignmentIo, RoundTripThroughLoadAssignment) {
  gen::RandomMmdConfig cfg;
  cfg.num_streams = 15;
  cfg.num_users = 6;
  cfg.num_server_measures = 2;
  cfg.num_user_measures = 2;
  cfg.seed = 12;
  const model::Instance inst = gen::random_mmd_instance(cfg);
  model::Assignment a(inst);
  a.assign(0, 1);
  a.assign(2, 1);
  a.assign(3, 4);
  std::stringstream ss;
  save_assignment(ss, a);
  const model::Assignment loaded = load_assignment(ss, inst);
  EXPECT_NEAR(loaded.utility(), a.utility(), 1e-12);
  EXPECT_EQ(loaded.num_assigned_pairs(), a.num_assigned_pairs());
  EXPECT_TRUE(loaded.has(0, 1));
  EXPECT_TRUE(loaded.has(2, 1));
  EXPECT_TRUE(loaded.has(3, 4));
}

TEST(AssignmentIo, LoadRejectsBadPairsAndMismatchedUtility) {
  const model::Instance inst = model::build_cap_instance(
      {1.0}, 5.0, {10.0}, {{0, 0, 2.0}});
  {
    std::istringstream is("assign 0 7\n");
    EXPECT_THROW((void)load_assignment(is, inst), std::runtime_error);
  }
  {
    std::istringstream is("assign 9 0\n");
    EXPECT_THROW((void)load_assignment(is, inst), std::runtime_error);
  }
  {
    std::istringstream is("assign 0 0\nutility 99\n");
    EXPECT_THROW((void)load_assignment(is, inst), std::runtime_error)
        << "claimed utility disagrees with the instance";
  }
  {
    std::istringstream is("assign 0 0\nutility 2\n");
    const model::Assignment ok = load_assignment(is, inst);
    EXPECT_DOUBLE_EQ(ok.utility(), 2.0);
  }
  {
    std::istringstream is("bogus 1 2\n");
    EXPECT_THROW((void)load_assignment(is, inst), std::runtime_error);
  }
}

TEST(JsonNumber, IntegralDoublesPrintAsIntegers) {
  // Perf counters travel as doubles; large counts must not flip to
  // scientific notation (9968784 used to print as "9.96878e+06").
  EXPECT_EQ(util::json_number_string(0.0), "0");
  EXPECT_EQ(util::json_number_string(-0.0), "-0");  // sign bit round-trips
  EXPECT_EQ(util::json_number_string(415316.0), "415316");
  EXPECT_EQ(util::json_number_string(9968784.0), "9968784");
  EXPECT_EQ(util::json_number_string(-123456789.0), "-123456789");
  EXPECT_EQ(util::json_number_string(9007199254740992.0),
            "9007199254740992");  // 2^53: the last exact integer
  // Beyond 2^53 adjacent integers collide; fall back to round-trip %g.
  const std::string big = util::json_number_string(1.8446744073709552e19);
  EXPECT_EQ(std::strtod(big.c_str(), nullptr), 1.8446744073709552e19);
}

TEST(JsonNumber, NonIntegralValuesKeepShortestRoundTrip) {
  EXPECT_EQ(util::json_number_string(0.5), "0.5");
  EXPECT_EQ(util::json_number_string(64.65), "64.65");
  const std::string pi = util::json_number_string(3.141592653589793);
  EXPECT_EQ(std::strtod(pi.c_str(), nullptr), 3.141592653589793);
}

}  // namespace
}  // namespace vdist::io
