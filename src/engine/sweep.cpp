#include "engine/sweep.h"

#include <algorithm>
#include <climits>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "engine/registry.h"
#include "util/json.h"

namespace vdist::engine {

namespace {

using Assignment = std::vector<std::pair<std::string, std::string>>;

// Cross-product expansion of axes, first axis slowest. No axes => one
// empty assignment (the base point).
std::vector<Assignment> expand_axes(const std::vector<SweepAxis>& axes) {
  for (const SweepAxis& axis : axes) {
    if (axis.key.empty())
      throw std::invalid_argument("sweep axis with empty key");
    if (axis.values.empty())
      throw std::invalid_argument("sweep axis '" + axis.key +
                                  "' has no values");
  }
  std::vector<Assignment> out{{}};
  for (const SweepAxis& axis : axes) {
    std::vector<Assignment> next;
    next.reserve(out.size() * axis.values.size());
    for (const Assignment& prefix : out)
      for (const std::string& value : axis.values) {
        Assignment a = prefix;
        a.emplace_back(axis.key, value);
        next.push_back(std::move(a));
      }
    out = std::move(next);
  }
  return out;
}

std::string label_with_axes(const std::string& base, const Assignment& a) {
  std::string label = base;
  for (const auto& [key, value] : a) label += " " + key + "=" + value;
  return label;
}

void append_axis_keys(const std::vector<SweepAxis>& axes,
                      std::vector<std::string>& keys) {
  for (const SweepAxis& axis : axes)
    if (std::find(keys.begin(), keys.end(), axis.key) == keys.end())
      keys.push_back(axis.key);
}

// The SolveResult -> RunRecord projection applied to every solve.
RunRecord to_run_record(SolveResult&& r, bool keep_assignment) {
  RunRecord rec;
  rec.ok = r.ok;
  rec.feasible = r.feasible();
  rec.feasibility = r.feasibility;
  rec.timed_out = r.timed_out;
  rec.objective = r.objective;
  rec.raw_utility = r.raw_utility;
  rec.upper_bound = r.upper_bound;
  rec.wall_ms = r.wall_ms;
  rec.seed = r.seed;
  rec.variant = std::move(r.variant);
  rec.error = std::move(r.error);
  rec.stats = std::move(r.stats);
  if (keep_assignment && r.assignment.has_value())
    rec.assignment = std::move(r.assignment);
  return rec;
}

// The SweepOptions::deterministic scrub: zeroes wall_ms and any stats key
// containing "wall_ms".
void redact_timing(RunRecord& record) {
  record.wall_ms = 0.0;
  for (auto& [key, value] : record.stats)
    if (key.find("wall_ms") != std::string::npos) value = 0.0;
}

}  // namespace

double SweepCell::mean_stat(const std::string& key) const {
  util::RunningStats s;
  for (const RunRecord& run : runs)
    if (run.ok) s.add(run.stat(key));
  return s.mean();
}

const SweepCell& SweepResult::cell(std::size_t scenario_cell,
                                   std::size_t algorithm_cell) const {
  if (scenario_cell >= num_scenario_cells ||
      algorithm_cell >= num_algorithm_cells)
    throw std::out_of_range("SweepResult::cell(" +
                            std::to_string(scenario_cell) + ", " +
                            std::to_string(algorithm_cell) + "): grid is " +
                            std::to_string(num_scenario_cells) + " x " +
                            std::to_string(num_algorithm_cells));
  return cells[scenario_cell * num_algorithm_cells + algorithm_cell];
}

const model::Instance& SweepResult::instance(std::size_t scenario_cell,
                                             int rep) const {
  const std::size_t index =
      scenario_cell * static_cast<std::size_t>(replicates) +
      static_cast<std::size_t>(rep);
  if (index >= instances.size())
    throw std::out_of_range(
        "SweepResult::instance: not kept (set SweepOptions::keep_instances) "
        "or out of range");
  return instances[index];
}

std::string SweepResult::first_error() const {
  for (const SweepCell& cell : cells)
    for (const RunRecord& run : cell.runs)
      if (!run.ok)
        return cell.scenario_label + " / " + cell.algorithm_label + ": " +
               run.error;
  return {};
}

ScenarioSpec ExpandedSweep::replicate_spec(std::size_t sc,
                                           std::size_t rep) const {
  ScenarioSpec spec = scenario_cells[sc].spec;
  spec.seed = scenario_cells[sc].spec.seed + rep;
  return spec;
}

SolveRequest ExpandedSweep::make_request(std::size_t sc, std::size_t rep,
                                         std::size_t ac) const {
  SolveRequest req;
  req.algorithm = algorithm_cells[ac].spec.name;
  req.options = algorithm_cells[ac].spec.options;
  req.seed = scenario_cells[sc].spec.seed + rep;
  // Pair generated workloads (serve traces) across algorithm cells
  // the same way instances are paired: replicate r of every cell
  // replays the same trace, so a policy or mode axis compares
  // algorithms on one workload instead of one workload each.
  req.workload_seed = req.seed;
  req.time_budget_ms = time_budget_ms;
  req.validate = validate;
  req.tag = scenario_cells[sc].label + " / " + algorithm_cells[ac].label +
            " #" + std::to_string(rep);
  return req;
}

ExpandedSweep SweepPlan::expand(bool strict) const {
  if (scenarios.empty())
    throw std::invalid_argument("sweep plan has no scenarios");
  if (algorithms.empty())
    throw std::invalid_argument("sweep plan has no algorithms");
  if (replicates < 1)
    throw std::invalid_argument("sweep plan replicates must be >= 1");

  const ScenarioRegistry& scenario_registry = ScenarioRegistry::global();
  const SolverRegistry& solvers = SolverRegistry::global();

  ExpandedSweep ex;
  ex.replicates = replicates;
  ex.time_budget_ms = time_budget_ms;
  ex.validate = validate;

  // --- Expand the scenario cells -------------------------------------------
  const std::vector<Assignment> scenario_assignments =
      expand_axes(scenario_axes);
  for (const ScenarioSpec& base : scenarios) {
    for (const Assignment& a : scenario_assignments) {
      ScenarioSpec spec = base;
      for (const auto& [key, value] : a) spec.params.set(key, value);
      // Scenario params are fully declared, so resolution is always
      // strict: a typo in a plan axis fails here, before any solve.
      spec = scenario_registry.resolve(spec, /*strict=*/true);
      ex.scenario_cells.push_back(
          {std::move(spec),
           label_with_axes(base.label.empty() ? base.name : base.label, a)});
    }
  }

  // --- Expand the algorithm cells ------------------------------------------
  for (const AlgorithmSpec& base : algorithms) {
    (void)solvers.info(base.name);  // unknown algorithm: throw, listing names
    for (const Assignment& a : expand_axes(base.axes)) {
      AlgorithmSpec spec = base;
      for (const auto& [key, value] : a) spec.options.set(key, value);
      if (strict) solvers.check_options(spec.name, spec.options);
      ex.algorithm_cells.push_back(
          {std::move(spec),
           label_with_axes(base.label.empty() ? base.name : base.label, a)});
    }
  }

  const std::size_t S = ex.scenario_cells.size();
  const std::size_t A = ex.algorithm_cells.size();
  const auto R = static_cast<std::size_t>(replicates);

  // --- Resolve the algo-only restrictions ----------------------------------
  ex.include.assign(S * A, 1);
  for (std::size_t ac = 0; ac < A; ++ac) {
    const std::vector<std::string>& only = ex.algorithm_cells[ac].spec.only;
    if (only.empty()) continue;
    for (const std::string& name : only) {
      const bool known = std::any_of(
          ex.scenario_cells.begin(), ex.scenario_cells.end(),
          [&](const ExpandedSweep::ScenarioCell& sc) {
            return sc.spec.name == name || sc.label == name;
          });
      if (!known)
        throw std::invalid_argument(
            "sweep plan: algo-only scenario '" + name + "' (on algo '" +
            ex.algorithm_cells[ac].spec.name + "') matches no scenario line");
    }
    for (std::size_t sc = 0; sc < S; ++sc) {
      const bool match = std::any_of(
          only.begin(), only.end(), [&](const std::string& name) {
            return ex.scenario_cells[sc].spec.name == name ||
                   ex.scenario_cells[sc].label == name;
          });
      if (!match) ex.include[sc * A + ac] = 0;
    }
  }

  // --- Assign the global request indices -----------------------------------
  // This order (scenario cell -> replicate -> algorithm cell) is load-
  // bearing: BatchRunner derives per-request seeds from these indices, so
  // renumbering would change every randomized solve.
  ex.slot.assign(S * R * A, ExpandedSweep::kSkippedSlot);
  for (std::size_t sc = 0; sc < S; ++sc)
    for (std::size_t rep = 0; rep < R; ++rep)
      for (std::size_t ac = 0; ac < A; ++ac) {
        if (ex.include[sc * A + ac] == 0) continue;
        ex.slot[(sc * R + rep) * A + ac] = ex.num_requests++;
      }

  append_axis_keys(scenario_axes, ex.scenario_axis_keys);
  for (const AlgorithmSpec& algo : algorithms)
    append_axis_keys(algo.axes, ex.algorithm_axis_keys);
  return ex;
}

SweepResult run_sweep(const SweepPlan& plan, const SweepOptions& options) {
  const ExpandedSweep ex = plan.expand(options.strict);
  const ScenarioRegistry& scenarios = ScenarioRegistry::global();
  const std::size_t S = ex.num_scenario_cells();
  const std::size_t A = ex.num_algorithm_cells();
  const auto R = static_cast<std::size_t>(ex.replicates);

  // --- Build the instances (replicate r: scenario seed + r) ----------------
  std::vector<model::Instance> instances;
  instances.reserve(S * R);
  for (std::size_t sc = 0; sc < S; ++sc)
    for (std::size_t rep = 0; rep < R; ++rep)
      instances.push_back(scenarios.build(ex.replicate_spec(sc, rep),
                                          /*strict=*/true));

  // --- Expand and run the requests -----------------------------------------
  std::vector<SolveRequest> requests(ex.num_requests);
  for (std::size_t sc = 0; sc < S; ++sc)
    for (std::size_t rep = 0; rep < R; ++rep)
      for (std::size_t ac = 0; ac < A; ++ac) {
        const std::size_t index = ex.request_index(sc, rep, ac);
        if (index == ExpandedSweep::kSkippedSlot) continue;
        requests[index] = ex.make_request(sc, rep, ac);
        requests[index].instance = &instances[sc * R + rep];
      }
  std::vector<SolveResult> solved = solve_batch(requests, options.batch);

  // --- Fold the runs into the grid -----------------------------------------
  SweepResult result;
  result.num_scenario_cells = S;
  result.num_algorithm_cells = A;
  result.replicates = ex.replicates;
  result.scenario_axis_keys = ex.scenario_axis_keys;
  result.algorithm_axis_keys = ex.algorithm_axis_keys;
  result.cells.resize(S * A);
  for (std::size_t sc = 0; sc < S; ++sc)
    for (std::size_t ac = 0; ac < A; ++ac) {
      SweepCell& cell = result.cells[sc * A + ac];
      cell.scenario_cell = sc;
      cell.algorithm_cell = ac;
      cell.scenario = ex.scenario_cells[sc].spec;
      cell.algorithm = ex.algorithm_cells[ac].spec;
      cell.scenario_label = ex.scenario_cells[sc].label;
      cell.algorithm_label = ex.algorithm_cells[ac].label;
      if (!ex.included(sc, ac)) {
        cell.skipped = true;
        continue;
      }
      cell.runs.reserve(R);
      for (std::size_t rep = 0; rep < R; ++rep) {
        RunRecord rec =
            to_run_record(std::move(solved[ex.request_index(sc, rep, ac)]),
                          options.keep_assignments);
        if (options.deterministic) redact_timing(rec);
        if (rec.ok) {
          ++cell.ok_count;
          cell.objective.add(rec.objective);
          cell.wall_ms.add(rec.wall_ms);
          if (rec.upper_bound > 0.0)
            cell.gap.add((rec.upper_bound - rec.objective) / rec.upper_bound);
        }
        if (rec.feasible) ++cell.feasible_count;
        if (rec.timed_out) ++cell.timed_out_count;
        cell.runs.push_back(std::move(rec));
      }
    }
  // Retained assignments reference the instances they were solved on, so
  // keep_assignments must keep the instances alive too — otherwise every
  // kept Assignment would dangle the moment `instances` goes out of scope.
  if (options.keep_instances || options.keep_assignments)
    result.instances = std::move(instances);
  return result;
}

// --- Emitters ---------------------------------------------------------------

util::Table summary_table(const SweepResult& result) {
  std::vector<std::string> columns = {"scenario", "seed"};
  for (const std::string& key : result.scenario_axis_keys)
    columns.push_back(key);
  columns.push_back("algorithm");
  for (const std::string& key : result.algorithm_axis_keys)
    columns.push_back(key);
  for (const char* name :
       {"replicates", "ok", "feasible", "timed_out", "objective_mean",
        "objective_min", "objective_max", "raw_utility_mean", "gap_mean",
        "wall_ms_mean", "wall_ms_min", "wall_ms_max", "error"})
    columns.emplace_back(name);

  util::Table table(std::move(columns));
  for (const SweepCell& cell : result.cells) {
    if (cell.skipped) continue;
    util::RunningStats raw;
    std::string error;
    for (const RunRecord& run : cell.runs) {
      if (run.ok) raw.add(run.raw_utility);
      if (!run.ok && error.empty()) error = run.error;
    }
    table.row().add(cell.scenario_label).add(
        static_cast<std::int64_t>(cell.scenario.seed));
    for (const std::string& key : result.scenario_axis_keys)
      table.add(cell.scenario.params.get(key, ""));
    table.add(cell.algorithm_label);
    for (const std::string& key : result.algorithm_axis_keys)
      table.add(cell.algorithm.options.get(key, ""));
    table.add(cell.runs.size())
        .add(cell.ok_count)
        .add(cell.feasible_count)
        .add(cell.timed_out_count)
        .add(cell.objective.mean(), 12)
        .add(cell.objective.min(), 12)
        .add(cell.objective.max(), 12)
        .add(raw.mean(), 12)
        .add(cell.gap.mean(), 6)
        .add(cell.wall_ms.mean(), 3)
        .add(cell.wall_ms.min(), 3)
        .add(cell.wall_ms.max(), 3)
        .add(error);
  }
  return table;
}

void write_csv(std::ostream& os, const SweepResult& result) {
  summary_table(result).print_csv(os);
}

namespace {

using util::json_number;
using util::json_string;

void json_options(std::ostream& os, const SolveOptions& options) {
  os << '{';
  bool first = true;
  for (const auto& [key, value] : options.raw()) {
    if (!first) os << ',';
    first = false;
    json_string(os, key);
    os << ':';
    json_string(os, value);
  }
  os << '}';
}

}  // namespace

void write_json(std::ostream& os, const SweepResult& result) {
  os << "{\"replicates\":" << result.replicates
     << ",\"num_scenario_cells\":" << result.num_scenario_cells
     << ",\"num_algorithm_cells\":" << result.num_algorithm_cells
     << ",\"cells\":[";
  bool first_cell = true;
  for (const SweepCell& cell : result.cells) {
    if (cell.skipped) continue;
    if (!first_cell) os << ',';
    first_cell = false;
    os << "{\"scenario\":{\"name\":";
    json_string(os, cell.scenario.name);
    os << ",\"label\":";
    json_string(os, cell.scenario_label);
    os << ",\"seed\":" << cell.scenario.seed << ",\"params\":";
    json_options(os, cell.scenario.params);
    os << "},\"algorithm\":{\"name\":";
    json_string(os, cell.algorithm.name);
    os << ",\"label\":";
    json_string(os, cell.algorithm_label);
    os << ",\"options\":";
    json_options(os, cell.algorithm.options);
    os << "},\"aggregates\":{\"ok\":" << cell.ok_count
       << ",\"feasible\":" << cell.feasible_count
       << ",\"timed_out\":" << cell.timed_out_count << ",\"objective_mean\":";
    json_number(os, cell.objective.mean());
    os << ",\"objective_min\":";
    json_number(os, cell.objective.min());
    os << ",\"objective_max\":";
    json_number(os, cell.objective.max());
    os << ",\"gap_mean\":";
    json_number(os, cell.gap.mean());
    os << ",\"wall_ms_mean\":";
    json_number(os, cell.wall_ms.mean());
    os << "},\"runs\":[";
    bool first_run = true;
    for (const RunRecord& run : cell.runs) {
      if (!first_run) os << ',';
      first_run = false;
      os << "{\"ok\":" << (run.ok ? "true" : "false")
         << ",\"feasible\":" << (run.feasible ? "true" : "false")
         << ",\"timed_out\":" << (run.timed_out ? "true" : "false")
         << ",\"seed\":" << run.seed << ",\"objective\":";
      json_number(os, run.objective);
      os << ",\"raw_utility\":";
      json_number(os, run.raw_utility);
      os << ",\"upper_bound\":";
      json_number(os, run.upper_bound);
      os << ",\"wall_ms\":";
      json_number(os, run.wall_ms);
      os << ",\"variant\":";
      json_string(os, run.variant);
      os << ",\"error\":";
      json_string(os, run.error);
      os << ",\"stats\":{";
      bool first_stat = true;
      for (const auto& [key, value] : run.stats) {
        if (!first_stat) os << ',';
        first_stat = false;
        json_string(os, key);
        os << ':';
        json_number(os, value);
      }
      os << "}}";
    }
    os << "]}";
  }
  os << "]}\n";
}

// --- Plan files -------------------------------------------------------------

namespace {

std::vector<std::string> tokenize(const std::string& line) {
  std::vector<std::string> tokens;
  std::istringstream is(line);
  std::string token;
  while (is >> token) {
    if (token[0] == '#') break;  // trailing comment
    tokens.push_back(std::move(token));
  }
  return tokens;
}

[[noreturn]] void plan_error(int line_number, const std::string& message) {
  throw std::runtime_error("plan line " + std::to_string(line_number) + ": " +
                           message);
}

// A whole-token integer in [lo, hi] (util::parse_int_value), with the line
// number on error.
std::int64_t plan_int(int line_number, const std::string& what,
                      const std::string& text, std::int64_t lo,
                      std::int64_t hi) {
  try {
    return util::parse_int_value(what, text, lo, hi);
  } catch (const std::invalid_argument& e) {
    plan_error(line_number, e.what());
  }
}

// Splits "key=value"; throws on a missing '=' or empty key.
std::pair<std::string, std::string> split_kv(const std::string& token,
                                             int line_number) {
  const std::size_t eq = token.find('=');
  if (eq == std::string::npos || eq == 0)
    plan_error(line_number, "expected key=value, got '" + token + "'");
  return {token.substr(0, eq), token.substr(eq + 1)};
}

}  // namespace

SweepPlan parse_plan(std::istream& is) {
  SweepPlan plan;
  std::string line;
  int line_number = 0;
  while (std::getline(is, line)) {
    ++line_number;
    const std::vector<std::string> tokens = tokenize(line);
    if (tokens.empty()) continue;
    const std::string& directive = tokens[0];
    if (directive == "scenario") {
      if (tokens.size() < 2) plan_error(line_number, "scenario needs a name");
      ScenarioSpec spec;
      spec.name = tokens[1];
      for (std::size_t i = 2; i < tokens.size(); ++i) {
        const auto [key, value] = split_kv(tokens[i], line_number);
        if (key == "seed") {
          spec.seed = static_cast<std::uint64_t>(
              plan_int(line_number, "seed", value, 0, INT64_MAX));
        } else if (key == "label") {
          spec.label = value;
        } else {
          spec.params.set(key, value);
        }
      }
      plan.scenarios.push_back(std::move(spec));
    } else if (directive == "axis") {
      if (tokens.size() < 3)
        plan_error(line_number, "axis needs a key and at least one value");
      plan.scenario_axes.push_back(
          {tokens[1], {tokens.begin() + 2, tokens.end()}});
    } else if (directive == "algo") {
      if (tokens.size() < 2) plan_error(line_number, "algo needs a name");
      AlgorithmSpec spec;
      spec.name = tokens[1];
      for (std::size_t i = 2; i < tokens.size(); ++i) {
        const auto [key, value] = split_kv(tokens[i], line_number);
        if (key == "label")
          spec.label = value;
        else
          spec.options.set(key, value);
      }
      plan.algorithms.push_back(std::move(spec));
    } else if (directive == "algo-axis") {
      if (plan.algorithms.empty())
        plan_error(line_number, "algo-axis before any algo line");
      if (tokens.size() < 3)
        plan_error(line_number,
                   "algo-axis needs a key and at least one value");
      plan.algorithms.back().axes.push_back(
          {tokens[1], {tokens.begin() + 2, tokens.end()}});
    } else if (directive == "algo-only") {
      if (plan.algorithms.empty())
        plan_error(line_number, "algo-only before any algo line");
      if (tokens.size() < 2)
        plan_error(line_number, "algo-only needs at least one scenario name");
      std::vector<std::string>& only = plan.algorithms.back().only;
      only.insert(only.end(), tokens.begin() + 1, tokens.end());
    } else if (directive == "replicates") {
      if (tokens.size() != 2)
        plan_error(line_number, "replicates needs one integer");
      plan.replicates = static_cast<int>(
          plan_int(line_number, "replicates", tokens[1], 1, INT_MAX));
    } else if (directive == "budget-ms") {
      if (tokens.size() != 2)
        plan_error(line_number, "budget-ms needs one number");
      try {
        plan.time_budget_ms = util::parse_double_value("budget-ms", tokens[1]);
      } catch (const std::invalid_argument& e) {
        plan_error(line_number, e.what());
      }
    } else {
      plan_error(line_number,
                 "unknown directive '" + directive +
                     "' (known: scenario, axis, algo, algo-axis, "
                     "algo-only, replicates, budget-ms)");
    }
  }
  return plan;
}

SweepPlan parse_plan_file(const std::string& path) {
  std::ifstream is(path);
  if (!is) throw std::runtime_error("cannot open plan file " + path);
  return parse_plan(is);
}

}  // namespace vdist::engine
