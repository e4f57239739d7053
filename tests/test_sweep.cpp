#include "engine/sweep.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "engine/registry.h"

namespace vdist::engine {
namespace {

// A tiny 2-scenario-cell x 3-algorithm-cell x 2-replicate plan used by
// most tests below.
SweepPlan tiny_plan() {
  SweepPlan plan;
  ScenarioSpec base;
  base.name = "cap";
  base.params.set("users", 5);
  base.seed = 100;
  plan.scenarios = {base};
  plan.scenario_axes = {{"streams", {"8", "12"}}};
  AlgorithmSpec enumerated;
  enumerated.name = "enum";
  enumerated.axes = {{"depth", {"0", "2"}}};
  plan.algorithms = {{.name = "greedy"}, enumerated};
  plan.replicates = 2;
  return plan;
}

TEST(Sweep, ExpandsTheFullCrossProduct) {
  const SweepResult r = run_sweep(tiny_plan());
  EXPECT_EQ(r.num_scenario_cells, 2u);   // 1 base x 2 stream values
  EXPECT_EQ(r.num_algorithm_cells, 3u);  // greedy + enum{0,2}
  EXPECT_EQ(r.replicates, 2);
  ASSERT_EQ(r.cells.size(), 6u);
  for (const SweepCell& cell : r.cells) {
    EXPECT_EQ(cell.runs.size(), 2u);
    EXPECT_EQ(cell.ok_count, 2u) << cell.scenario_label << " / "
                                 << cell.algorithm_label << ": "
                                 << r.first_error();
  }
  EXPECT_TRUE(r.first_error().empty());
  EXPECT_EQ(r.scenario_axis_keys, std::vector<std::string>{"streams"});
  EXPECT_EQ(r.algorithm_axis_keys, std::vector<std::string>{"depth"});
  // Labels carry the axis values.
  EXPECT_EQ(r.cell(0, 0).scenario_label, "cap streams=8");
  EXPECT_EQ(r.cell(1, 2).algorithm_label, "enum depth=2");
  // Resolved cell specs echo axis values and registry defaults.
  EXPECT_EQ(r.cell(1, 0).scenario.params.get("streams", ""), "12");
  EXPECT_EQ(r.cell(0, 0).scenario.params.get("budget-fraction", ""), "0.3");
  EXPECT_EQ(r.cell(0, 2).algorithm.options.get("depth", ""), "2");
}

TEST(Sweep, DeterministicAcrossRunsAndThreadCounts) {
  const SweepPlan plan = tiny_plan();
  SweepOptions one_thread;
  one_thread.batch.num_threads = 1;
  SweepOptions many_threads;
  many_threads.batch.num_threads = 4;
  const SweepResult a = run_sweep(plan, one_thread);
  const SweepResult b = run_sweep(plan, many_threads);
  ASSERT_EQ(a.cells.size(), b.cells.size());
  for (std::size_t i = 0; i < a.cells.size(); ++i)
    for (std::size_t rep = 0; rep < a.cells[i].runs.size(); ++rep) {
      EXPECT_DOUBLE_EQ(a.cells[i].runs[rep].objective,
                       b.cells[i].runs[rep].objective)
          << i << "/" << rep;
      EXPECT_EQ(a.cells[i].runs[rep].seed, b.cells[i].runs[rep].seed);
    }
}

// The acceptance contract of the sweep API: a cell's replicate equals a
// standalone solve of the registry-built scenario at the same seed — so
// a plan file fed to `vdist_cli sweep` reproduces a bench's numbers.
TEST(Sweep, CellRunsMatchStandaloneSolves) {
  const SweepPlan plan = tiny_plan();
  const SweepResult r = run_sweep(plan);
  for (std::size_t sc = 0; sc < r.num_scenario_cells; ++sc)
    for (std::size_t ac = 0; ac < r.num_algorithm_cells; ++ac)
      for (int rep = 0; rep < r.replicates; ++rep) {
        const SweepCell& cell = r.cell(sc, ac);
        ScenarioSpec spec = cell.scenario;
        spec.seed = cell.scenario.seed + static_cast<std::uint64_t>(rep);
        const model::Instance inst = build_scenario(spec);
        SolveRequest req;
        req.instance = &inst;
        req.algorithm = cell.algorithm.name;
        req.options = cell.algorithm.options;
        req.seed = spec.seed;
        const SolveResult direct = solve(req);
        ASSERT_TRUE(direct.ok) << direct.error;
        EXPECT_DOUBLE_EQ(direct.objective,
                         cell.runs[static_cast<std::size_t>(rep)].objective)
            << cell.scenario_label << " / " << cell.algorithm_label << " #"
            << rep;
      }
}

TEST(Sweep, AggregatesMatchTheRuns) {
  const SweepResult r = run_sweep(tiny_plan());
  for (const SweepCell& cell : r.cells) {
    util::RunningStats manual;
    for (const RunRecord& run : cell.runs) manual.add(run.objective);
    EXPECT_DOUBLE_EQ(cell.objective.mean(), manual.mean());
    EXPECT_DOUBLE_EQ(cell.objective.min(), manual.min());
    EXPECT_DOUBLE_EQ(cell.objective.max(), manual.max());
    for (const RunRecord& run : cell.runs) {
      ASSERT_GT(run.upper_bound, 0.0);
      EXPECT_LE(run.objective, run.upper_bound + 1e-9);
    }
    EXPECT_GE(cell.gap.mean(), 0.0);
  }
}

TEST(Sweep, FailingRunsAreRecordedNotThrown) {
  SweepPlan plan;
  ScenarioSpec mmd;
  mmd.name = "mmd";
  mmd.params.set("streams", 8).set("users", 4);
  plan.scenarios = {mmd};
  // bands requires SMD; on an mmd scenario every run must fail cleanly.
  plan.algorithms = {{.name = "pipeline"}, {.name = "bands"}};
  plan.replicates = 2;
  const SweepResult r = run_sweep(plan);
  EXPECT_EQ(r.cell(0, 0).ok_count, 2u);
  EXPECT_EQ(r.cell(0, 1).ok_count, 0u);
  EXPECT_NE(r.first_error().find("bands"), std::string::npos);
  EXPECT_NE(r.cell(0, 1).runs[0].error.find("SMD"), std::string::npos);
}

TEST(Sweep, PlanErrorsThrow) {
  SweepPlan empty;
  EXPECT_THROW((void)run_sweep(empty), std::invalid_argument);

  SweepPlan unknown_algorithm = tiny_plan();
  unknown_algorithm.algorithms = {{.name = "no-such-algo"}};
  EXPECT_THROW((void)run_sweep(unknown_algorithm), std::invalid_argument);

  SweepPlan bad_axis = tiny_plan();
  bad_axis.scenario_axes.push_back({"no-such-param", {"1"}});
  EXPECT_THROW((void)run_sweep(bad_axis), std::invalid_argument);

  SweepPlan empty_axis = tiny_plan();
  empty_axis.scenario_axes.push_back({"users", {}});
  EXPECT_THROW((void)run_sweep(empty_axis), std::invalid_argument);

  SweepPlan no_reps = tiny_plan();
  no_reps.replicates = 0;
  EXPECT_THROW((void)run_sweep(no_reps), std::invalid_argument);
}

TEST(Sweep, StrictModeRejectsUndeclaredAlgorithmOptions) {
  SweepPlan plan = tiny_plan();
  plan.algorithms = {{.name = "greedy",
                      .options = SolveOptions().set("depht", 2)}};
  // Strict (default): the stray key fails expansion.
  EXPECT_THROW((void)run_sweep(plan), std::invalid_argument);
  // Lenient opt-out: the stray key is ignored.
  SweepOptions lenient;
  lenient.strict = false;
  EXPECT_EQ(run_sweep(plan, lenient).first_error(), "");
}

TEST(Sweep, PlanOptionsNotDeclaredBySolverFailAtExpansion) {
  // A plan line naming an option the solver does not declare fails
  // before any solve, under the default options, and the error names
  // the key.
  std::istringstream is(
      "scenario cap streams=8 users=5 seed=1\n"
      "algo serve events=10 shards=2\n");
  const SweepPlan plan = parse_plan(is);
  try {
    (void)plan.expand();
    FAIL() << "undeclared option must fail expansion";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("shards"), std::string::npos)
        << e.what();
  }
  EXPECT_THROW((void)run_sweep(plan), std::invalid_argument);
}

TEST(Sweep, KeepInstancesAndAssignments) {
  SweepOptions options;
  options.keep_instances = true;
  options.keep_assignments = true;
  const SweepResult r = run_sweep(tiny_plan(), options);
  ASSERT_EQ(r.instances.size(), r.num_scenario_cells *
                                    static_cast<std::size_t>(r.replicates));
  EXPECT_EQ(r.instance(0, 0).num_streams(), 8u);
  EXPECT_EQ(r.instance(1, 1).num_streams(), 12u);
  // Replicates see different seeds, hence different instances.
  EXPECT_NE(r.instance(0, 0).utility_upper_bound(),
            r.instance(0, 1).utility_upper_bound());
  for (const SweepCell& cell : r.cells)
    for (const RunRecord& run : cell.runs) {
      ASSERT_TRUE(run.assignment.has_value());
      EXPECT_NEAR(run.assignment->utility(), run.raw_utility, 1e-9);
    }
  // Without the flags, nothing heavy is retained.
  const SweepResult lean = run_sweep(tiny_plan());
  EXPECT_TRUE(lean.instances.empty());
  EXPECT_FALSE(lean.cells[0].runs[0].assignment.has_value());
  EXPECT_THROW((void)lean.instance(0, 0), std::out_of_range);
}

TEST(Sweep, KeepAssignmentsAloneKeepsTheirInstancesAlive) {
  // An Assignment references the Instance it was solved on, so
  // keep_assignments must retain the instances even when keep_instances
  // is off — validating a kept assignment after run_sweep returns would
  // otherwise read freed memory.
  SweepOptions options;
  options.keep_assignments = true;
  const SweepResult r = run_sweep(tiny_plan(), options);
  EXPECT_FALSE(r.instances.empty());
  const RunRecord& run = r.cell(0, 0).runs[0];
  ASSERT_TRUE(run.assignment.has_value());
  EXPECT_TRUE(model::validate(*run.assignment).feasible());
  EXPECT_NEAR(run.assignment->utility(), run.raw_utility, 1e-9);
}

TEST(Sweep, CsvEmitsOneRowPerCellPlusHeader) {
  const SweepResult r = run_sweep(tiny_plan());
  std::ostringstream os;
  write_csv(os, r);
  const std::string csv = os.str();
  EXPECT_NE(csv.find("scenario,seed,streams,algorithm,depth,"),
            std::string::npos);
  EXPECT_EQ(static_cast<std::size_t>(
                std::count(csv.begin(), csv.end(), '\n')),
            r.cells.size() + 1);
  EXPECT_NE(csv.find("cap streams=8"), std::string::npos);
  EXPECT_NE(csv.find("enum depth=2"), std::string::npos);
}

TEST(Sweep, JsonEmitsEveryCellAndRun) {
  const SweepResult r = run_sweep(tiny_plan());
  std::ostringstream os;
  write_json(os, r);
  const std::string json = os.str();
  EXPECT_EQ(json.find("null"), std::string::npos);
  std::size_t cells = 0;
  for (std::size_t pos = 0;
       (pos = json.find("\"aggregates\"", pos)) != std::string::npos; ++pos)
    ++cells;
  EXPECT_EQ(cells, r.cells.size());
  EXPECT_NE(json.find("\"objective\":"), std::string::npos);
  EXPECT_NE(json.find("\"num_scenario_cells\":2"), std::string::npos);
}

TEST(Sweep, ParsePlanRoundTrip) {
  std::istringstream is(
      "# a plan\n"
      "scenario cap users=5 seed=100 label=base\n"
      "axis streams 8 12   # scenario axis\n"
      "algo greedy\n"
      "algo enum depth=1 label=deep\n"
      "algo-axis depth 0 2\n"
      "replicates 3\n"
      "budget-ms 250\n");
  const SweepPlan plan = parse_plan(is);
  ASSERT_EQ(plan.scenarios.size(), 1u);
  EXPECT_EQ(plan.scenarios[0].name, "cap");
  EXPECT_EQ(plan.scenarios[0].label, "base");
  EXPECT_EQ(plan.scenarios[0].seed, 100u);
  EXPECT_EQ(plan.scenarios[0].params.get("users", ""), "5");
  ASSERT_EQ(plan.scenario_axes.size(), 1u);
  EXPECT_EQ(plan.scenario_axes[0].values,
            (std::vector<std::string>{"8", "12"}));
  ASSERT_EQ(plan.algorithms.size(), 2u);
  EXPECT_EQ(plan.algorithms[1].label, "deep");
  EXPECT_EQ(plan.algorithms[1].options.get("depth", ""), "1");
  ASSERT_EQ(plan.algorithms[1].axes.size(), 1u);
  EXPECT_EQ(plan.algorithms[1].axes[0].key, "depth");
  EXPECT_EQ(plan.replicates, 3);
  EXPECT_DOUBLE_EQ(plan.time_budget_ms, 250.0);
  // And the parsed plan runs.
  const SweepResult r = run_sweep(plan);
  EXPECT_TRUE(r.first_error().empty());
  EXPECT_EQ(r.cell(0, 0).scenario_label, "base streams=8");
}

TEST(Sweep, ParsePlanRejectsMalformedInputWithLineNumbers) {
  auto parse = [](const std::string& text) {
    std::istringstream is(text);
    return parse_plan(is);
  };
  for (const char* bad :
       {"frobnicate 1\n", "scenario\n", "axis streams\n",
        "algo-axis depth 1\n", "scenario cap users\n",
        "replicates many\n", "scenario cap\nreplicates 1 2\n"}) {
    try {
      (void)parse(bad);
      FAIL() << "expected std::runtime_error for: " << bad;
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("plan line"), std::string::npos)
          << bad;
    }
  }
}

// Numeric directives parse the whole token: "2abc" is an error with the
// line number, never 2 replicates.
TEST(Sweep, ParsePlanRejectsPartialNumbers) {
  for (const auto& [directive, expected] :
       std::vector<std::pair<std::string, std::string>>{
           {"replicates 2abc",
            "plan line 3: replicates expects an integer in [1, 2147483647], "
            "got '2abc'"},
           {"replicates 99999999999",
            "plan line 3: replicates expects an integer in [1, 2147483647], "
            "got '99999999999'"},
           {"budget-ms 5xyz",
            "plan line 3: budget-ms expects a number, got '5xyz'"}}) {
    std::istringstream is("scenario cap streams=8 users=4\nalgo greedy\n" +
                          directive + "\n");
    try {
      (void)parse_plan(is);
      ADD_FAILURE() << "expected std::runtime_error for: " << directive;
    } catch (const std::runtime_error& e) {
      EXPECT_EQ(std::string(e.what()), expected);
    }
  }
  std::istringstream bad_seed("scenario cap seed=3x\nalgo greedy\n");
  EXPECT_THROW((void)parse_plan(bad_seed), std::runtime_error);
}

TEST(Sweep, ParsePlanRejectsOutOfRangeSeeds) {
  for (const std::string seed : {"3x", "-1", "9223372036854775808", ""}) {
    std::istringstream is("algo greedy\nscenario cap seed=" + seed + "\n");
    try {
      (void)parse_plan(is);
      ADD_FAILURE() << "seed '" << seed << "' must throw";
    } catch (const std::runtime_error& e) {
      EXPECT_EQ(std::string(e.what()),
                "plan line 2: seed expects an integer >= 0, got '" + seed +
                    "'");
    }
  }
}

// --- Deterministic artifacts ------------------------------------------------

std::string committed_plan(const std::string& name) {
  return std::string(VDIST_TESTS_DIR) + "/../bench/plans/" + name;
}

// The CSV and JSON a sweep emits, as one string.
std::string artifacts(const SweepResult& result) {
  std::ostringstream os;
  write_csv(os, result);
  os << "\n---\n";
  write_json(os, result);
  return os.str();
}

// SweepOptions::deterministic makes the emitted artifacts a pure function
// of the plan: the committed smoke plan (which includes serve cells and
// their repair_wall_ms stats) emits the same bytes at 1 and 4 threads.
TEST(Sweep, DeterministicArtifactsAreByteIdenticalAcrossThreadCounts) {
  const SweepPlan plan = parse_plan_file(committed_plan("ci_smoke.plan"));
  SweepOptions options;
  options.deterministic = true;
  options.batch.num_threads = 1;
  const SweepResult a = run_sweep(plan, options);
  ASSERT_TRUE(a.first_error().empty()) << a.first_error();
  options.batch.num_threads = 4;
  EXPECT_EQ(artifacts(a), artifacts(run_sweep(plan, options)));
}

TEST(Sweep, DeterministicArtifactsAreByteIdenticalAcrossRuns) {
  const SweepPlan plan = parse_plan_file(committed_plan("serve_smoke.plan"));
  SweepOptions options;
  options.deterministic = true;
  options.batch.num_threads = 2;
  const SweepResult first = run_sweep(plan, options);
  ASSERT_TRUE(first.first_error().empty()) << first.first_error();
  EXPECT_EQ(artifacts(first), artifacts(run_sweep(plan, options)));
}

// The scrub touches wall-clock fields only: objectives, seeds, verdicts
// and every other stat equal an unscrubbed run of the same plan.
TEST(Sweep, DeterministicZeroesWallClockFieldsAndNothingElse) {
  const SweepPlan plan = parse_plan_file(committed_plan("serve_smoke.plan"));
  SweepOptions scrubbed;
  scrubbed.deterministic = true;
  const SweepResult a = run_sweep(plan, scrubbed);
  const SweepResult b = run_sweep(plan);
  ASSERT_EQ(a.cells.size(), b.cells.size());
  std::size_t wall_stats = 0;
  for (std::size_t i = 0; i < a.cells.size(); ++i) {
    EXPECT_EQ(a.cells[i].wall_ms.max(), 0.0);
    ASSERT_EQ(a.cells[i].runs.size(), b.cells[i].runs.size());
    for (std::size_t rep = 0; rep < a.cells[i].runs.size(); ++rep) {
      const RunRecord& x = a.cells[i].runs[rep];
      const RunRecord& y = b.cells[i].runs[rep];
      EXPECT_EQ(x.wall_ms, 0.0);
      EXPECT_EQ(x.objective, y.objective);
      EXPECT_EQ(x.seed, y.seed);
      EXPECT_EQ(x.ok, y.ok);
      EXPECT_EQ(x.variant, y.variant);
      ASSERT_EQ(x.stats.size(), y.stats.size());
      for (const auto& [key, value] : x.stats) {
        if (key.find("wall_ms") != std::string::npos) {
          ++wall_stats;
          EXPECT_EQ(value, 0.0) << key;
        } else {
          EXPECT_EQ(value, y.stat(key)) << key;
        }
      }
    }
  }
  EXPECT_GT(wall_stats, 0u) << "the serve cells report repair_wall_ms";
}

// Every committed plan parses and expands into a non-empty grid under
// strict option checking.
TEST(Sweep, CommittedPlansParseAndExpand) {
  for (const char* name :
       {"ci_smoke.plan", "enum_frontier.plan", "serve_smoke.plan"}) {
    const SweepPlan plan = parse_plan_file(committed_plan(name));
    const ExpandedSweep grid = plan.expand();
    EXPECT_GT(grid.num_scenario_cells(), 0u) << name;
    EXPECT_GT(grid.num_algorithm_cells(), 0u) << name;
    EXPECT_GT(grid.num_requests, 0u) << name;
  }
}

TEST(Sweep, AlgoOnlyRestrictsTheGrid) {
  // A plan mixing a general scenario with a form-restricted algorithm:
  // `serve` requires the unit-skew cap form, so algo-only keeps it off
  // the mmd cells instead of recording a per-run failure there.
  std::istringstream is(
      "scenario cap streams=8 users=5 seed=1\n"
      "scenario mmd streams=8 users=5 m=2 mc=2 seed=2\n"
      "algo pipeline\n"
      "algo serve events=10 policy=resolve\n"
      "algo-only cap\n"
      "replicates 2\n");
  const SweepPlan plan = parse_plan(is);
  ASSERT_EQ(plan.algorithms.size(), 2u);
  EXPECT_EQ(plan.algorithms[1].only, std::vector<std::string>{"cap"});
  const SweepResult r = run_sweep(plan);
  EXPECT_TRUE(r.first_error().empty());
  ASSERT_EQ(r.cells.size(), 4u);
  // The cap cells ran both algorithms; the mmd x serve cell is skipped
  // with no runs attempted.
  EXPECT_EQ(r.cell(0, 1).runs.size(), 2u);
  EXPECT_FALSE(r.cell(0, 1).skipped);
  EXPECT_TRUE(r.cell(1, 1).skipped);
  EXPECT_TRUE(r.cell(1, 1).runs.empty());
  EXPECT_EQ(r.cell(1, 0).runs.size(), 2u);
  // The serve cell really served (objective > 0 on this seed).
  EXPECT_GT(r.cell(0, 1).objective.mean(), 0.0);
  // Emitters omit the skipped row: 3 cells + header.
  std::ostringstream csv;
  write_csv(csv, r);
  const std::string csv_text = csv.str();
  EXPECT_EQ(static_cast<std::size_t>(
                std::count(csv_text.begin(), csv_text.end(), '\n')),
            4u);
  std::ostringstream json;
  write_json(json, r);
  const std::string json_text = json.str();
  std::size_t aggregates = 0;
  for (std::size_t pos = 0;
       (pos = json_text.find("\"aggregates\"", pos)) != std::string::npos;
       ++pos)
    ++aggregates;
  EXPECT_EQ(aggregates, 3u);

  // An only-entry matching no scenario line is a plan error, thrown
  // before any solve.
  SweepPlan typo = plan;
  typo.algorithms[1].only = {"cpa"};
  EXPECT_THROW((void)run_sweep(typo), std::invalid_argument);

  // algo-only before any algo line is a parse error with a line number.
  std::istringstream orphan("algo-only cap\n");
  EXPECT_THROW((void)parse_plan(orphan), std::runtime_error);
}

TEST(Sweep, ServeCellsArePairedAcrossAnAlgorithmAxis) {
  // run_sweep pairs generated workloads across algorithm cells via
  // SolveRequest::workload_seed: replicate r of every serve cell replays
  // the identical event trace. Under the resolve policy the selection
  // kernels are pick-for-pick equivalent, so a select axis must produce
  // bit-equal objectives on the shared trace.
  std::istringstream is(
      "scenario cap streams=12 users=6 seed=4\n"
      "algo serve events=40 policy=resolve\n"
      "algo-axis select delta naive\n"
      "replicates 2\n");
  const SweepResult r = run_sweep(parse_plan(is));
  EXPECT_TRUE(r.first_error().empty());
  ASSERT_EQ(r.cells.size(), 2u);
  const SweepCell& delta = r.cell(0, 0);
  const SweepCell& naive = r.cell(0, 1);
  ASSERT_EQ(delta.runs.size(), 2u);
  ASSERT_EQ(naive.runs.size(), 2u);
  for (std::size_t rep = 0; rep < 2; ++rep) {
    EXPECT_EQ(delta.runs[rep].objective, naive.runs[rep].objective);
    EXPECT_EQ(delta.runs[rep].stat("events"), naive.runs[rep].stat("events"));
  }
  // The two replicates still see different traces (seed + rep pairing).
  EXPECT_NE(delta.runs[0].objective, delta.runs[1].objective);
}

}  // namespace
}  // namespace vdist::engine
