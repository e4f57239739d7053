// Declarative experiment sweeps: scenario x algorithm x seed grids as
// data, executed by the multithreaded BatchRunner.
//
// A SweepPlan names base scenarios (scenario.h specs), axes over scenario
// params, algorithms with their options and per-algorithm option axes,
// and a replicate count. run_sweep() expands the cross-product into
// SolveRequests, fans them out deterministically, and aggregates each
// (scenario cell, algorithm cell) into per-cell statistics (mean/min/max
// objective, gap vs. the utility upper bound, wall time) while keeping
// the per-replicate records benches need for paired ratios.
//
//   SweepPlan plan;
//   plan.scenarios = {{.name = "cap", .seed = 1}};
//   plan.scenario_axes = {{"streams", {"8", "12", "16"}}};
//   plan.algorithms = {{.name = "exact"}, {.name = "greedy"}};
//   plan.replicates = 12;
//   SweepResult r = run_sweep(plan);
//   write_csv(std::cout, r);
//
// The same plan can be written as a text file and fed to
// `vdist_cli sweep --plan FILE` (see parse_plan below for the format), so
// an experiment is a diffable artifact rather than a bespoke harness.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "engine/batch.h"
#include "engine/scenario.h"
#include "engine/solver.h"
#include "util/stats.h"
#include "util/table.h"

namespace vdist::engine {

// One swept dimension: a param/option key and the values it takes. Axes
// expand as a cross-product, first axis slowest.
struct SweepAxis {
  std::string key;
  std::vector<std::string> values;
};

// One algorithm column of the sweep: a registry name, fixed options, and
// optional axes over further options (expanded for this algorithm only,
// so `enum` can sweep depth without re-running `exact` per depth).
// Every field has an initializer, so a designated initializer names only
// the fields it sets.
struct AlgorithmSpec {
  std::string name{};
  SolveOptions options{};
  std::vector<SweepAxis> axes{};
  // Display label; defaults to the name (plus axis values when swept).
  std::string label{};
  // Scenario restriction: when non-empty, this algorithm only runs on
  // scenario cells whose base name (or explicit label) is listed here —
  // the other grid cells are marked skipped, not solved. Lets one plan
  // mix form-restricted algorithms (e.g. the unit-skew-only `serve`)
  // with general scenarios. Every entry must match at least one
  // scenario line or run_sweep throws (typos fail loudly).
  std::vector<std::string> only{};
};

struct ExpandedSweep;

struct SweepPlan {
  // Base workloads; every base is crossed with every scenario axis.
  std::vector<ScenarioSpec> scenarios;
  std::vector<SweepAxis> scenario_axes;
  std::vector<AlgorithmSpec> algorithms;
  // Seed replicates per cell: replicate r builds the scenario (and seeds
  // the solve) with spec.seed + r, so cells are paired across algorithms
  // — replicate r of every algorithm cell sees the same instance.
  int replicates = 1;
  // Forwarded to every SolveRequest.
  double time_budget_ms = 0.0;
  bool validate = true;

  // Expands the plan grid without building instances or solving: the
  // resolved scenario/algorithm cells, the algo-only inclusion mask, and
  // the global request-index table the BatchRunner seed derivation keys
  // on. Throws std::invalid_argument on plan errors (unknown scenario,
  // undeclared param, empty grid) and, unless strict = false, on
  // undeclared algorithm options.
  [[nodiscard]] ExpandedSweep expand(bool strict = true) const;
};

// The fully expanded grid of a SweepPlan. Request indices are assigned in
// the fixed order scenario-cell -> replicate -> algorithm-cell (skipped
// grid points get none), which is what BatchRunner's per-index seed
// derivation — and therefore every solve result — depends on.
struct ExpandedSweep {
  struct ScenarioCell {
    ScenarioSpec spec;  // resolved: defaults + axis values folded in
    std::string label;
  };
  struct AlgorithmCell {
    AlgorithmSpec spec;  // options include axis values
    std::string label;
  };

  static constexpr std::size_t kSkippedSlot = static_cast<std::size_t>(-1);

  std::vector<ScenarioCell> scenario_cells;
  std::vector<AlgorithmCell> algorithm_cells;
  // include[sc * A + ac]: does algorithm cell ac run on scenario cell sc?
  std::vector<char> include;
  // slot[(sc * R + rep) * A + ac] -> global request index, or
  // kSkippedSlot for grid points an algo-only restriction excluded.
  std::vector<std::size_t> slot;
  std::size_t num_requests = 0;
  int replicates = 1;
  double time_budget_ms = 0.0;
  bool validate = true;
  std::vector<std::string> scenario_axis_keys;
  std::vector<std::string> algorithm_axis_keys;

  [[nodiscard]] std::size_t num_scenario_cells() const {
    return scenario_cells.size();
  }
  [[nodiscard]] std::size_t num_algorithm_cells() const {
    return algorithm_cells.size();
  }
  [[nodiscard]] bool included(std::size_t sc, std::size_t ac) const {
    return include[sc * algorithm_cells.size() + ac] != 0;
  }
  [[nodiscard]] std::size_t request_index(std::size_t sc, std::size_t rep,
                                          std::size_t ac) const {
    return slot[(sc * static_cast<std::size_t>(replicates) + rep) *
                    algorithm_cells.size() +
                ac];
  }
  // The spec replicate `rep` of scenario cell `sc` is built with
  // (base seed + rep); equal specs build identical instances anywhere.
  [[nodiscard]] ScenarioSpec replicate_spec(std::size_t sc,
                                            std::size_t rep) const;
  // The SolveRequest run_sweep() would issue for this grid point, minus
  // the instance pointer (the caller owns instance construction).
  [[nodiscard]] SolveRequest make_request(std::size_t sc, std::size_t rep,
                                          std::size_t ac) const;
};

// One solve of a cell, with everything benches read off a SolveResult
// except the assignment (kept only under SweepOptions::keep_assignments).
struct RunRecord {
  bool ok = false;
  // Fully feasible (ok && no violations); `feasibility` keeps the
  // three-way verdict for the semi-feasible greedy variants.
  bool feasible = false;
  model::Feasibility feasibility = model::Feasibility::kFeasible;
  bool timed_out = false;
  double objective = 0.0;
  double raw_utility = 0.0;
  double upper_bound = 0.0;
  double wall_ms = 0.0;
  std::uint64_t seed = 0;
  std::string variant;
  std::string error;
  std::map<std::string, double> stats;
  std::optional<model::Assignment> assignment;

  [[nodiscard]] double stat(const std::string& key,
                            double fallback = 0.0) const {
    const auto it = stats.find(key);
    return it == stats.end() ? fallback : it->second;
  }
};

// One (scenario cell, algorithm cell) of the grid with its replicates
// and aggregates.
struct SweepCell {
  std::size_t scenario_cell = 0;
  std::size_t algorithm_cell = 0;
  // Fully resolved: registry defaults and axis values folded in.
  ScenarioSpec scenario;
  AlgorithmSpec algorithm;
  std::string scenario_label;
  std::string algorithm_label;

  std::vector<RunRecord> runs;  // one per replicate, in replicate order

  // Aggregates over the ok runs.
  util::RunningStats objective;
  util::RunningStats wall_ms;
  // Relative gap (upper_bound - objective) / upper_bound per run; the
  // upper bound is the trivial sum-of-utilities bound unless the exact
  // solver proved optimality.
  util::RunningStats gap;
  std::size_t ok_count = 0;
  std::size_t feasible_count = 0;
  std::size_t timed_out_count = 0;
  // True when the algorithm's `only` restriction excludes this scenario
  // cell: no runs were attempted and the emitters omit the row.
  bool skipped = false;

  // Mean of a per-run stat over the ok runs (0 when absent everywhere).
  [[nodiscard]] double mean_stat(const std::string& key) const;
};

struct SweepResult {
  // scenario-cell-major: cells[sc * num_algorithm_cells + ac].
  std::vector<SweepCell> cells;
  std::size_t num_scenario_cells = 0;
  std::size_t num_algorithm_cells = 0;
  int replicates = 1;
  // Axis keys in expansion order (CSV emits one column per key).
  std::vector<std::string> scenario_axis_keys;
  std::vector<std::string> algorithm_axis_keys;
  // Generated instances, scenario-cell-major by replicate; populated only
  // under SweepOptions::keep_instances.
  std::vector<model::Instance> instances;

  [[nodiscard]] const SweepCell& cell(std::size_t scenario_cell,
                                      std::size_t algorithm_cell) const;
  // The instance replicate `rep` of scenario cell `sc` was solved on
  // (requires keep_instances).
  [[nodiscard]] const model::Instance& instance(std::size_t scenario_cell,
                                                int rep) const;
  // First per-run error across the grid; empty when every run succeeded.
  // Benches die loudly on this instead of printing tables of zeros.
  [[nodiscard]] std::string first_error() const;
};

struct SweepOptions {
  BatchOptions batch;
  // Retain each run's assignment (memory-heavy; off by default).
  // Assignments reference their instance, so this implies
  // keep_instances — the result owns both or neither.
  bool keep_assignments = false;
  // Retain the generated instances for post-hoc inspection.
  bool keep_instances = false;
  // Error (rather than ignore) on algorithm option keys the registration
  // does not declare. Every `algo` / `algo-axis` line binds to one
  // algorithm, so no plan option is shared; false is the opt-out.
  // Scenario params are always strict.
  bool strict = true;
  // Zero every wall-clock field (per-run wall_ms and any stats key
  // containing "wall_ms", such as the serve adapter's repair_wall_ms)
  // before aggregation, so the emitted CSV/JSON is a pure function of the
  // plan: byte-identical across runs and thread counts. Objectives, seeds
  // and iteration counters are untouched.
  bool deterministic = false;
};

// Expands and runs the plan. Throws std::invalid_argument on plan errors
// (unknown scenario, undeclared scenario param, empty grid); per-run
// solver failures are recorded in the cells, not thrown.
[[nodiscard]] SweepResult run_sweep(const SweepPlan& plan,
                                    const SweepOptions& options = {});

// Cell-level aggregate table: one row per cell with the scenario/
// algorithm labels, axis values, and the aggregate statistics. The same
// rows write_csv emits; `vdist_cli sweep` prints it aligned.
[[nodiscard]] util::Table summary_table(const SweepResult& result);

// RFC-4180-ish CSV of summary_table (doubles at round-trip precision).
void write_csv(std::ostream& os, const SweepResult& result);

// Full JSON dump: plan echo per cell plus every per-run record.
void write_json(std::ostream& os, const SweepResult& result);

// Parses the plan-file format:
//
//   # comment
//   scenario NAME [seed=N] [key=value ...]   # repeatable (base specs)
//   axis KEY V1 V2 ...                       # scenario axis (all bases)
//   algo NAME [key=value ...]                # repeatable
//   algo-axis KEY V1 V2 ...                  # axis on the preceding algo
//   algo-only SCENARIO ...                   # restrict the preceding algo
//                                            # to the named scenario lines
//   replicates N
//   budget-ms X
//
// Throws std::runtime_error with a line number on malformed input.
[[nodiscard]] SweepPlan parse_plan(std::istream& is);
[[nodiscard]] SweepPlan parse_plan_file(const std::string& path);

}  // namespace vdist::engine
