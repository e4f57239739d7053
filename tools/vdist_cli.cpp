// vdist command-line tool: generate, inspect, solve and sweep MMD
// instances.
//
//   vdist_cli gen --kind <scenario> [scenario params] [--seed S] [--out F]
//   vdist_cli scenarios
//   vdist_cli algos
//   vdist_cli stats F
//   vdist_cli solve F --algo NAME [algorithm options]
//   vdist_cli sweep --plan FILE | [sweep flags]   [--csv F] [--json F]
//   vdist_cli eval F --assignment FILE
//
// Workloads dispatch through the engine::ScenarioRegistry and algorithms
// through the engine::SolverRegistry, so a new generator or solver needs
// no CLI change: `scenarios` and `algos` list every registration with its
// declared parameters, `gen`/`solve` resolve names at runtime, and
// `sweep` runs a declarative scenario x algorithm x seed cross-product
// (engine/sweep.h) from flags or a plan file. Option keys are checked
// strictly against the registrations, so a typo'd flag is an error, not
// silence. Instances use the text format of src/io/instance_io.h.
#include <algorithm>
#include <climits>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "engine/competitive.h"
#include "engine/perf.h"
#include "engine/registry.h"
#include "engine/scenario.h"
#include "engine/serving.h"
#include "engine/sweep.h"
#include "io/event_io.h"
#include "io/instance_io.h"
#include "model/skew.h"
#include "model/validate.h"
#include "util/float_cmp.h"
#include "util/json.h"
#include "util/stats.h"
#include "workload/workload.h"

namespace {

using namespace vdist;

// Flag values parse through SolveOptions' typed accessors, so a numeric
// or boolean flag takes the whole token or fails naming the flag: "--every
// 12abc" is an error, never 12.
struct Args {
  std::string command;
  std::string file;
  engine::SolveOptions options;
};

Args parse(int argc, char** argv) {
  Args args;
  if (argc < 2) return args;
  args.command = argv[1];
  for (int i = 2; i < argc; ++i) {
    std::string token = argv[i];
    if (token.rfind("--", 0) == 0) {
      const std::string key = token.substr(2);
      if (i + 1 < argc && std::strncmp(argv[i + 1], "--", 2) != 0)
        args.options.set(key, std::string(argv[++i]));
      else
        args.options.set(key, std::string("1"));
    } else {
      args.file = token;
    }
  }
  return args;
}

std::vector<std::string> split(const std::string& s, char sep) {
  std::vector<std::string> out;
  std::istringstream is(s);
  std::string item;
  while (std::getline(is, item, sep))
    if (!item.empty()) out.push_back(item);
  return out;
}

int cmd_gen(const Args& args) {
  engine::ScenarioSpec spec;
  spec.name = args.options.get("kind", "mmd");
  spec.seed = static_cast<std::uint64_t>(args.options.get_int("seed", 1, 0));
  // Every option the CLI does not consume itself is a scenario param;
  // strict resolution rejects params the registration does not declare.
  for (const auto& [key, value] : args.options.raw())
    if (key != "kind" && key != "seed" && key != "out")
      spec.params.set(key, value);
  const model::Instance inst = engine::build_scenario(spec);

  const std::string out = args.options.get("out", "");
  if (out.empty()) {
    io::save_instance(std::cout, inst);
  } else {
    io::save_instance_file(out, inst);
    std::cerr << "wrote " << out << " (" << inst.num_streams() << " streams, "
              << inst.num_users() << " users, " << inst.num_edges()
              << " interests)\n";
  }
  return 0;
}

int cmd_scenarios() {
  const engine::ScenarioRegistry& registry = engine::ScenarioRegistry::global();
  const workload::WorkloadRegistry& workloads =
      workload::WorkloadRegistry::global();
  for (const std::string& name : registry.names()) {
    const engine::ScenarioInfo& info = registry.info(name);
    std::cout << name << "\n    " << info.description << "\n";
    for (const engine::ScenarioParam& param : info.params)
      std::cout << "      --" << param.key << " (default "
                << param.default_value << "): " << param.description << "\n";
  }
  std::cout << "every scenario also takes --seed (default 1)\n";
  std::cout << "\nevent-trace workload families (vdist_cli gen-events "
               "--family NAME,\nthe serve/compete --family option, and "
               "sweepable via the serve\nsolver's family option):\n";
  for (const std::string& name : workloads.names()) {
    const workload::WorkloadInfo& info = workloads.model(name).info();
    std::cout << name << "\n    " << info.description << "\n";
    for (const workload::WorkloadParam& param : info.params)
      std::cout << "      --" << param.key << " (default " << param.fallback
                << "): " << param.description << "\n";
  }
  return 0;
}

int cmd_stats(const Args& args) {
  const model::Instance inst = io::load_instance_file(args.file);
  const model::LocalSkewInfo ls = model::local_skew(inst);
  const model::GlobalSkewInfo gs = model::global_skew(inst);
  std::cout << "streams:       " << inst.num_streams() << "\n"
            << "users:         " << inst.num_users() << "\n"
            << "interests:     " << inst.num_edges() << "\n"
            << "m (server):    " << inst.num_server_measures() << "\n"
            << "mc (user):     " << inst.num_user_measures() << "\n"
            << "input length:  " << inst.input_length() << "\n"
            << "unit skew:     " << (inst.is_unit_skew() ? "yes" : "no")
            << "\n"
            << "local skew a:  " << ls.alpha << "\n"
            << "global skew g: " << gs.gamma << "\n"
            << "mu:            " << gs.mu << "\n"
            << "small-streams: "
            << (model::satisfies_small_streams(inst, gs) ? "yes" : "no")
            << "\n"
            << "utility upper bound: " << inst.utility_upper_bound() << "\n";
  return 0;
}

int cmd_solve(const Args& args) {
  const model::Instance inst = io::load_instance_file(args.file);

  engine::SolveRequest req;
  req.instance = &inst;
  req.algorithm = args.options.get("algo", "pipeline");
  req.seed = static_cast<std::uint64_t>(args.options.get_int("seed", 1, 0));
  // Typo'd option keys are an error unless --strict 0.
  req.strict = args.options.get_bool("strict", true);
  req.time_budget_ms = args.options.get_double("budget-ms", 0.0);
  // Every option the CLI does not consume itself belongs to the algorithm.
  for (const auto& [key, value] : args.options.raw())
    if (key != "algo" && key != "seed" && key != "budget-ms" &&
        key != "export" && key != "verbose" && key != "strict")
      req.options.set(key, value);

  const engine::SolveResult r = engine::solve(req);
  if (!r.ok) throw std::runtime_error(r.error);

  const model::Assignment& result = r.solution();
  std::cerr << "algo=" << r.algorithm << " objective=" << r.objective
            << " utility=" << r.raw_utility << " streams="
            << result.range_size() << " pairs=" << result.num_assigned_pairs()
            << " feasible=" << (r.feasible() ? "yes" : "NO");
  if (!r.variant.empty()) std::cerr << " variant=" << r.variant;
  std::cerr << " time_ms=" << r.wall_ms;
  if (r.timed_out) std::cerr << " TIMED-OUT";
  std::cerr << "\n";
  if (args.options.get_bool("verbose", false))
    for (const auto& [key, value] : r.stats)
      std::cerr << "  " << key << "=" << value << "\n";
  if (args.options.get_bool("export", false))
    io::save_assignment(std::cout, result);
  return 0;
}

int cmd_algos() {
  const engine::SolverRegistry& registry = engine::SolverRegistry::global();
  for (const std::string& name : registry.names()) {
    const engine::SolverInfo& info = registry.info(name);
    std::cout << name << "\n    " << info.description << "\n";
  }
  return 0;
}

// Axis flag syntax: "key=v1,v2,v3[;key2=...]".
std::vector<engine::SweepAxis> parse_axes(const std::string& flag,
                                          const std::string& flag_name) {
  std::vector<engine::SweepAxis> axes;
  for (const std::string& part : split(flag, ';')) {
    const std::size_t eq = part.find('=');
    if (eq == std::string::npos || eq == 0)
      throw std::runtime_error("--" + flag_name +
                               " expects key=v1,v2,... got '" + part + "'");
    axes.push_back({part.substr(0, eq), split(part.substr(eq + 1), ',')});
  }
  return axes;
}

int cmd_sweep(const Args& args) {
  engine::SweepPlan plan;
  const std::string plan_path = args.options.get("plan", "");
  // Unlike solve (whose leftover flags go to the algorithm), sweep
  // consumes every flag itself — a typo'd flag must be an error, not a
  // silently different experiment, and plan-structure flags must not be
  // silently discarded when --plan already defines the structure.
  {
    const std::vector<std::string> common = {
        "plan", "replicates", "seed",   "budget-ms",    "threads",
        "csv",  "json",       "strict", "deterministic"};
    const std::vector<std::string> structure = {"scenario", "set", "axis",
                                                "algos", "algo-axis"};
    for (const auto& [key, value] : args.options.raw()) {
      const bool is_common =
          std::find(common.begin(), common.end(), key) != common.end();
      const bool is_structure =
          std::find(structure.begin(), structure.end(), key) !=
          structure.end();
      if (!is_common && !is_structure)
        throw std::runtime_error("sweep does not take --" + key +
                                 " (see 'vdist_cli help')");
      if (is_structure && !plan_path.empty())
        throw std::runtime_error(
            "--" + key +
            " conflicts with --plan (the plan file defines the grid)");
    }
  }
  if (!plan_path.empty()) {
    plan = engine::parse_plan_file(plan_path);
  } else {
    engine::ScenarioSpec spec;
    spec.name = args.options.get("scenario", "");
    if (spec.name.empty())
      throw std::runtime_error(
          "sweep needs --plan FILE or at least --scenario NAME (see "
          "'vdist_cli help')");
    std::map<std::string, std::string> set;
    workload::apply_workload_overrides(set, args.options.get("set", ""),
                                       "--set");
    for (const auto& [key, value] : set) spec.params.set(key, value);
    plan.scenarios.push_back(std::move(spec));
    plan.scenario_axes = parse_axes(args.options.get("axis", ""), "axis");
    for (const std::string& name :
         split(args.options.get("algos", "pipeline"), ',')) {
      engine::AlgorithmSpec algo;
      algo.name = name;
      plan.algorithms.push_back(std::move(algo));
    }
    // "algo:key=v1,v2" attaches an axis to one named algorithm.
    for (const std::string& part :
         split(args.options.get("algo-axis", ""), ';')) {
      const std::size_t colon = part.find(':');
      if (colon == std::string::npos || colon == 0)
        throw std::runtime_error(
            "--algo-axis expects algo:key=v1,v2,... got '" + part + "'");
      const std::string target = part.substr(0, colon);
      bool found = false;
      for (engine::AlgorithmSpec& algo : plan.algorithms)
        if (algo.name == target) {
          const auto axes = parse_axes(part.substr(colon + 1), "algo-axis");
          algo.axes.insert(algo.axes.end(), axes.begin(), axes.end());
          found = true;
        }
      if (!found)
        throw std::runtime_error("--algo-axis names algorithm '" + target +
                                 "' which is not in --algos");
    }
  }
  if (args.options.has("replicates"))
    plan.replicates =
        static_cast<int>(args.options.get_int("replicates", 1, 1, INT_MAX));
  if (args.options.has("seed"))
    for (engine::ScenarioSpec& spec : plan.scenarios)
      spec.seed =
          static_cast<std::uint64_t>(args.options.get_int("seed", 1, 0));
  plan.time_budget_ms =
      args.options.get_double("budget-ms", plan.time_budget_ms);

  engine::SweepOptions options;
  options.batch.num_threads =
      static_cast<unsigned>(args.options.get_int("threads", 0, 0, UINT_MAX));
  // Undeclared algorithm options are an error unless --strict 0.
  options.strict = args.options.get_bool("strict", true);
  options.deterministic = args.options.get_bool("deterministic", false);
  const engine::SweepResult result = engine::run_sweep(plan, options);

  const std::string csv_path = args.options.get("csv", "");
  const std::string json_path = args.options.get("json", "");
  auto emit = [&](const std::string& path, auto writer) {
    if (path == "-") {
      writer(std::cout);
      return;
    }
    std::ofstream os(path);
    if (!os) throw std::runtime_error("cannot open " + path);
    writer(os);
    std::cerr << "wrote " << path << "\n";
  };
  if (!csv_path.empty())
    emit(csv_path, [&](std::ostream& os) { engine::write_csv(os, result); });
  if (!json_path.empty())
    emit(json_path, [&](std::ostream& os) { engine::write_json(os, result); });
  if (csv_path != "-" && json_path != "-")
    engine::summary_table(result).print_aligned(
        std::cout, "sweep: " + std::to_string(result.num_scenario_cells) +
                       " scenario cells x " +
                       std::to_string(result.num_algorithm_cells) +
                       " algorithm cells x " +
                       std::to_string(result.replicates) + " replicates");

  const std::string error = result.first_error();
  if (!error.empty()) {
    std::cerr << "sweep had failing runs; first: " << error << "\n";
    return 2;
  }
  return 0;
}

// Draws a deterministic event trace over an instance and writes it in
// the event text format — the input of `vdist_cli serve --events` and
// `vdist_cli compete --events`. --family selects any workload-registry
// adversary; the flags are that family's declared params.
int cmd_gen_events(const Args& args) {
  const std::string family = args.options.get("family", "churn");
  const workload::WorkloadRegistry& registry =
      workload::WorkloadRegistry::global();
  const workload::WorkloadModel& wmodel = registry.model(family);
  // Flags are the family's declared params — the same surface its
  // scenario's flat params and the serve solver's --trace option share —
  // plus --out/--family. A typo'd flag must be an error, not a silently
  // different trace.
  {
    std::vector<std::string> known = {"out", "family"};
    for (const workload::WorkloadParam& param : wmodel.info().params)
      known.emplace_back(param.key);
    for (const auto& [key, value] : args.options.raw())
      if (std::find(known.begin(), known.end(), key) == known.end())
        throw std::runtime_error("gen-events does not take --" + key +
                                 " under --family " + family +
                                 " (see 'vdist_cli scenarios')");
  }
  const model::Instance inst = io::load_instance_file(args.file);
  std::map<std::string, std::string> overrides;
  for (const auto& [key, value] : args.options.raw())
    if (key != "out" && key != "family") overrides[key] = value;
  const workload::Params params = registry.resolve(family, overrides);
  const std::vector<model::InstanceEvent> trace =
      wmodel.generate(inst, params);
  // The reproduction handle: every declared key at its resolved value.
  std::cerr << "gen-events: " << workload::workload_param_line(wmodel, params)
            << "\n";
  const std::string out = args.options.get("out", "");
  if (out.empty()) {
    io::save_events(std::cout, trace);
  } else {
    io::save_events_file(out, trace);
    std::cerr << "wrote " << out << " (" << trace.size() << " events)\n";
  }
  return 0;
}

// Replays an event trace through a make_backend() serving session
// (engine/serving.h) and reports objective-over-time as JSON. --check N
// compares the session against a from-scratch solve every N events: the
// resolve policy must match the fresh objective bit-exactly, the repair
// policy must stay within --bound; a violation exits 4. The JSON's
// "checks" object splits the checks' wall time into their snapshot, row
// and solve layers (medians), reports the slowest whole check, and sums
// the rows the checks sorted rather than derived (fallback_rows: 0 under
// repair while the repair's rows are exact).
int cmd_serve(const Args& args) {
  // Flags are ServeConfig's declared keys — minus the registry-only
  // trace-derivation knobs (events here names the event FILE; trace and
  // family are meaningless when one is given) — plus check/json.
  {
    std::vector<std::string> known = {"events", "check", "json"};
    for (const engine::ServeOptionSpec& spec :
         engine::ServeConfig::declared()) {
      const std::string key = spec.key;
      if (key != "events" && key != "trace" && key != "family")
        known.push_back(key);
    }
    for (const auto& [key, value] : args.options.raw())
      if (std::find(known.begin(), known.end(), key) == known.end())
        throw std::runtime_error("serve does not take --" + key +
                                 " (see 'vdist_cli help')");
  }
  const model::Instance inst = io::load_instance_file(args.file);
  const std::string events_path = args.options.get("events", "");
  if (events_path.empty())
    throw std::runtime_error("serve requires --events FILE");
  const std::vector<model::InstanceEvent> trace =
      io::load_events_file(events_path);

  // One typed config, one validator: the same ServeConfig::from_options
  // the registry's `serve` adapter and sweep plan lines go through, so a
  // bad value is rejected with the same message everywhere.
  engine::SolveOptions raw;
  for (const auto& [key, value] : args.options.raw())
    if (key != "events" && key != "check" && key != "json")
      raw.set(key, value);
  engine::ServeConfig cfg = engine::ServeConfig::from_options(raw);
  const auto check_every =
      static_cast<std::size_t>(args.options.get_int("check", 0, 0, INT_MAX));
  // The repair bound is guaranteed at the backend's own drift
  // checkpoints; align them with the external gate so every checked
  // prefix has had its chance to self-correct. A refresh interval that
  // divides the check interval already lands a self-correction on every
  // gated event; anything else is replaced by the check interval itself.
  if (check_every > 0 && cfg.policy == engine::ServePolicy::kRepair) {
    const auto check_int = static_cast<int>(check_every);
    if (cfg.refresh <= 0 || check_int % cfg.refresh != 0)
      cfg.refresh = check_int;
  }

  const std::unique_ptr<engine::Session> backend =
      engine::make_backend(inst, cfg);
  std::ostringstream timeline;
  timeline.precision(17);
  bool parity_failed = false;
  std::size_t applied = 0;
  // Per check: its three layers and the slowest whole check.
  std::vector<double> check_snapshot_ms;
  std::vector<double> check_rows_ms;
  std::vector<double> check_solve_ms;
  double check_max_ms = 0.0;
  std::size_t check_fallback_rows = 0;
  for (const model::InstanceEvent& event : trace) {
    const engine::RepairStats stats = backend->apply(event);
    ++applied;
    if (applied > 1) timeline << ',';
    timeline << "{\"event\":" << applied << ",\"objective\":"
             << stats.objective << ",\"wall_ms\":" << stats.wall_ms
             << ",\"action\":\""
             << (stats.action == engine::RepairAction::kLocalRepair
                     ? "repair"
                     : stats.action == engine::RepairAction::kFullResolve
                           ? "resolve"
                           : "online")
             << "\"}";
    // The differential anchor: bake the current world into a standalone
    // instance and solve it from scratch (Session::check_parity).
    if (check_every > 0 && applied % check_every == 0) {
      const engine::ParityReport parity = backend->check_parity();
      check_snapshot_ms.push_back(parity.snapshot_ms);
      check_rows_ms.push_back(parity.rows_ms);
      check_solve_ms.push_back(parity.solve_ms);
      check_max_ms = std::max(check_max_ms, parity.snapshot_ms +
                                                parity.rows_ms +
                                                parity.solve_ms);
      check_fallback_rows += parity.fallback_rows;
      if (!parity.ok) {
        parity_failed = true;
        std::cerr << "serve: parity violated after event " << applied
                  << " (" << parity.detail << ")\n";
        break;
      }
    }
  }
  // Feasibility is judged against the world the backend actually serves:
  // the assignment's pairs re-accounted on the baked snapshot (caps and
  // utilities as of now, not as of the parent instance).
  const model::Instance snapshot = backend->snapshot();
  model::Assignment snapshot_assignment(snapshot);
  for (std::size_t u = 0; u < snapshot.num_users(); ++u)
    for (const model::StreamId s :
         backend->assignment().streams_of(static_cast<model::UserId>(u)))
      snapshot_assignment.assign(static_cast<model::UserId>(u), s);
  // The online policy never revokes commitments, so a capacity decrease
  // can legitimately leave user caps exceeded on the current world —
  // only a server-budget violation is a bug there; the greedy policies
  // must be exactly feasible.
  const auto report = model::validate(snapshot_assignment);
  const bool feasibility_ok =
      cfg.policy == engine::ServePolicy::kOnline ? report.server_feasible()
                                                 : report.feasible();
  if (check_every > 0 && !feasibility_ok) {
    parity_failed = true;
    std::cerr << "serve: backend assignment is infeasible\n";
  }

  const engine::SessionCounters& counters = backend->counters();
  std::ostringstream doc;
  doc.precision(17);
  doc << "{\"serve\":\"" << engine::to_string(cfg.policy)
      << "\",\"events\":" << counters.events
      << ",\"objective\":" << backend->objective()
      << ",\"variant\":\"" << backend->variant()
      << "\",\"local_repairs\":" << counters.local_repairs
      << ",\"full_resolves\":" << counters.full_resolves
      << ",\"drift_checks\":" << counters.drift_checks
      << ",\"select_rows_sorted\":" << backend->select_stats().rows_sorted
      << ",\"feasible\":" << (report.feasible() ? "true" : "false")
      << ",\"checks\":{\"count\":" << check_snapshot_ms.size()
      << ",\"snapshot_ms_p50\":" << util::percentile(check_snapshot_ms, 50)
      << ",\"rows_ms_p50\":" << util::percentile(check_rows_ms, 50)
      << ",\"solve_ms_p50\":" << util::percentile(check_solve_ms, 50)
      << ",\"max_ms\":" << check_max_ms
      << ",\"fallback_rows\":" << check_fallback_rows << "}"
      << ",\"timeline\":[" << timeline.str() << "]}\n";
  const std::string json_path = args.options.get("json", "-");
  if (json_path == "-") {
    std::cout << doc.str();
  } else {
    std::ofstream os(json_path);
    if (!os) throw std::runtime_error("cannot open " + json_path);
    os << doc.str();
    std::cerr << "wrote " << json_path << "\n";
  }
  std::cerr << "serve: policy=" << engine::to_string(cfg.policy)
            << " events=" << counters.events
            << " objective=" << backend->objective()
            << " repairs=" << counters.local_repairs
            << " resolves=" << counters.full_resolves << "\n";
  return parity_failed ? 4 : 0;
}

// Online-vs-offline competitive-ratio measurement (engine/competitive.h):
// replays a trace through a serving session and solves the offline
// optimum on every checkpoint prefix's materialized snapshot. --min-ratio
// gates the worst per-prefix ratio (exit 5 on violation) — the CI hook
// for "the online policies stay within their empirical guarantees on the
// committed adversarial traces".
int cmd_compete(const Args& args) {
  // Flags are ServeConfig's declared backend keys plus the harness's own
  // surface. The trace comes from --events FILE, or is derived
  // deterministically from --family/--trace/--seed exactly as the serve
  // solver does it.
  {
    std::vector<std::string> known = {"events", "family", "trace",  "seed",
                                      "every",  "offline", "min-ratio",
                                      "csv",    "json"};
    for (const engine::ServeOptionSpec& spec :
         engine::ServeConfig::declared()) {
      const std::string key = spec.key;
      if (key != "events" && key != "trace" && key != "family")
        known.push_back(key);
    }
    for (const auto& [key, value] : args.options.raw())
      if (std::find(known.begin(), known.end(), key) == known.end())
        throw std::runtime_error("compete does not take --" + key +
                                 " (see 'vdist_cli help')");
  }
  // Parse the gate up front: a partial parse ("0.9x") must be an error,
  // not a silently different gate.
  const double min_ratio = args.options.get_double("min-ratio", 0.0);
  if (!(min_ratio >= 0.0))
    throw std::runtime_error(
        "compete --min-ratio expects a non-negative number, got '" +
        args.options.get("min-ratio", "") + "'");

  const model::Instance inst = io::load_instance_file(args.file);
  const std::string events_path = args.options.get("events", "");
  const std::string family = args.options.get("family", "churn");
  std::vector<model::InstanceEvent> trace;
  if (!events_path.empty()) {
    if (args.options.has("family") || args.options.has("trace") ||
        args.options.has("seed"))
      throw std::runtime_error(
          "compete takes either --events FILE or --family/--trace/--seed, "
          "not both");
    trace = io::load_events_file(events_path);
  } else {
    // The same derivation path the serve solver's family/trace options
    // take, so a sweep cell and a compete run on equal flags replay the
    // identical trace.
    std::map<std::string, std::string> wparams;
    wparams["seed"] = std::to_string(args.options.get_int("seed", 1, 0));
    workload::apply_workload_overrides(wparams, args.options.get("trace", ""),
                                       "--trace");
    trace = workload::WorkloadRegistry::global().generate(family, inst,
                                                          wparams);
  }

  engine::SolveOptions raw;
  for (const auto& [key, value] : args.options.raw())
    if (key != "events" && key != "family" && key != "trace" &&
        key != "seed" && key != "every" && key != "offline" &&
        key != "min-ratio" && key != "csv" && key != "json")
      raw.set(key, value);
  engine::CompetitiveOptions opts;
  opts.serve = engine::ServeConfig::from_options(raw);
  opts.every = static_cast<std::size_t>(args.options.get_int("every", 0, 0));
  opts.offline = args.options.get("offline", "");
  const engine::CompetitiveReport report =
      engine::run_competitive(inst, trace, opts);

  const std::string csv_path = args.options.get("csv", "");
  const std::string json_path = args.options.get("json", "");
  const auto emit = [&](const std::string& path, auto writer,
                        const char* what) {
    if (path == "-") {
      writer(std::cout);
    } else {
      std::ofstream os(path);
      if (!os) throw std::runtime_error("cannot open " + path);
      writer(os);
      std::cerr << "wrote " << what << " " << path << "\n";
    }
  };
  if (!csv_path.empty())
    emit(csv_path,
         [&](std::ostream& os) { engine::write_competitive_csv(os, report); },
         "csv");
  if (!json_path.empty())
    emit(json_path,
         [&](std::ostream& os) { engine::write_competitive_json(os, report); },
         "json");
  if (csv_path != "-" && json_path != "-")
    engine::competitive_table(report).print_aligned(
        std::cout, "compete " + report.policy + " vs offline " +
                       report.offline_algorithm);
  std::cerr << "compete: policy=" << report.policy
            << " offline=" << report.offline_algorithm
            << " events=" << report.counters.events
            << " checkpoints=" << report.checkpoints.size()
            << " min_ratio=" << util::format_double(report.min_ratio, 6)
            << " mean_ratio=" << util::format_double(report.mean_ratio, 6)
            << " final_ratio=" << util::format_double(report.final_ratio, 6)
            << "\n";
  if (min_ratio > 0.0 && report.min_ratio < min_ratio) {
    std::cerr << "compete: min ratio "
              << util::format_double(report.min_ratio, 9) << " violates gate "
              << util::format_double(min_ratio, 9) << "\n";
    return 5;
  }
  return 0;
}

int cmd_perf(const Args& args) {
  // Like sweep, perf consumes every flag itself: a typo'd flag must be an
  // error, not a silently different benchmark.
  {
    const std::vector<std::string> known = {
        "smoke", "out",      "reps",        "seed",
        "min-speedup", "baseline", "max-regress", "regress-metric",
        "filter", "threads"};
    for (const auto& [key, value] : args.options.raw())
      if (std::find(known.begin(), known.end(), key) == known.end())
        throw std::runtime_error("perf does not take --" + key +
                                 " (see 'vdist_cli help')");
  }
  // Validate the gate thresholds before spending minutes benchmarking: a
  // partial parse ("2x") must be an error, not a silently different gate.
  const double min_speedup = args.options.get_double("min-speedup", 1.0);
  if (!(min_speedup >= 0.0))
    throw std::runtime_error("option --min-speedup expects a number >= 0, "
                             "got '" + args.options.get("min-speedup", "") +
                             "'");
  const double max_regress = args.options.get_double("max-regress", 2.0);
  if (!(max_regress > 0.0))
    throw std::runtime_error("option --max-regress expects a number > 0, "
                             "got '" + args.options.get("max-regress", "") +
                             "'");
  // Which ratios the baseline gate inspects: `evals` is deterministic
  // and machine-independent (CI compares against a BENCH produced on
  // different hardware); `wall` only makes sense on comparable machines.
  const std::string regress_metric = args.options.get("regress-metric", "both");
  if (regress_metric != "both" && regress_metric != "wall" &&
      regress_metric != "evals")
    throw std::runtime_error(
        "option --regress-metric expects both|wall|evals, got '" +
        regress_metric + "'");
  const bool gate_wall = regress_metric != "evals";
  const bool gate_evals = regress_metric != "wall";
  const std::string baseline_path = args.options.get("baseline", "");
  // Parse (and validate) the baseline before benchmarking too: a wrong
  // file must fail in milliseconds, not after the full suite ran.
  std::optional<util::JsonValue> baseline;
  if (!baseline_path.empty()) {
    std::ifstream is(baseline_path);
    if (!is) throw std::runtime_error("cannot open " + baseline_path);
    baseline = util::parse_json(is);
    if (baseline->string_or("bench", "") != "perf")
      throw std::runtime_error(
          baseline_path +
          " is not a BENCH perf document (missing \"bench\":\"perf\")");
  }

  engine::PerfOptions options;
  options.smoke = args.options.get_bool("smoke", false);
  options.repetitions =
      static_cast<int>(args.options.get_int("reps", 0, 0, INT_MAX));
  options.seed = static_cast<std::uint64_t>(args.options.get_int("seed", 1, 0));
  options.filter = args.options.get("filter", "");
  options.threads =
      static_cast<int>(args.options.get_int("threads", 1, 1, INT_MAX));
  const engine::PerfReport report = engine::run_perf(options);
  if (!options.filter.empty() && report.cases.empty())
    throw std::runtime_error("perf --filter '" + options.filter +
                             "' matches no case label");

  const std::string out_path = args.options.get("out", "BENCH_perf.json");
  // Like sweep's '-' emitters: keep stdout machine-parseable when the
  // JSON goes there, printing the table only otherwise.
  if (out_path != "-")
    engine::perf_table(report).print_aligned(
        std::cout, std::string("perf: selection kernel, ") +
                       (report.smoke ? "smoke sizes" : "full sizes"));
  if (out_path == "-") {
    engine::write_perf_json(std::cout, report);
  } else {
    std::ofstream os(out_path);
    if (!os) throw std::runtime_error("cannot open " + out_path);
    engine::write_perf_json(os, report);
    std::cerr << "wrote " << out_path << "\n";
  }

  const std::string error = report.first_error();
  if (!error.empty()) {
    std::cerr << "perf had failing runs; first: " << error << "\n";
    return 2;
  }
  for (const engine::PerfCase& c : report.cases)
    if (!c.objective_match) {
      std::cerr << "perf: selection strategies disagree on the objective of "
                << c.label << " — selection kernel bug\n";
      return 3;
    }
  // The CI gate: the delta kernel must beat the naive scan on the largest
  // case by at least --min-speedup (default 1; 0 disables).
  const engine::PerfCase* largest = report.largest();
  if (min_speedup > 0.0 && largest != nullptr &&
      largest->speedup < min_speedup) {
    std::cerr << "perf: delta kernel speedup " << largest->speedup << " on "
              << largest->label << " is below the required " << min_speedup
              << "\n";
    return 3;
  }
  // The regression gate: diff wall/evals against the committed baseline
  // JSON per matching label; any ratio past --max-regress fails.
  if (baseline.has_value()) {
    const engine::PerfBaselineDiff diff =
        engine::diff_perf_baseline(report, *baseline);
    if (out_path != "-")
      engine::baseline_table(diff).print_aligned(
          std::cout, "perf vs baseline " + baseline_path +
                         " (gate: ratio <= " + std::to_string(max_regress) +
                         ")");
    for (const std::string& label : diff.only_current)
      std::cerr << "perf: case " << label << " has no baseline entry\n";
    if (diff.regressed(max_regress, gate_wall, gate_evals)) {
      const engine::PerfBaselineEntry* worst = diff.worst();
      std::cerr << "perf: regression past --max-regress " << max_regress;
      if (worst != nullptr)
        std::cerr << " (worst wall ratio " << worst->wall_ratio << " on "
                  << worst->label << ")";
      std::cerr << "\n";
      return 3;
    }
  }
  return 0;
}

int cmd_eval(const Args& args) {
  const model::Instance inst = io::load_instance_file(args.file);
  const std::string assignment_path = args.options.get("assignment", "");
  if (assignment_path.empty())
    throw std::runtime_error("eval requires --assignment FILE");
  std::ifstream is(assignment_path);
  if (!is) throw std::runtime_error("cannot open " + assignment_path);
  const model::Assignment a = io::load_assignment(is, inst);
  const auto report = model::validate(a);
  std::cout << "utility:   " << a.utility() << "\n"
            << "streams:   " << a.range_size() << "\n"
            << "pairs:     " << a.num_assigned_pairs() << "\n"
            << "feasible:  " << (report.feasible() ? "yes" : "NO") << "\n";
  for (const auto& v : report.violations)
    std::cout << "violation: " << v.to_string() << "\n";
  return report.feasible() ? 0 : 2;
}

int cmd_help(std::ostream& os) {
  os <<
      "vdist_cli — Video Distribution Under Multiple Constraints\n\n"
      "  vdist_cli gen --kind SCENARIO [scenario params] [--seed S]\n"
      "            [--out FILE]\n"
      "  vdist_cli gen-events FILE [--family NAME] [family params]\n"
      "            [--out FILE]\n"
      "  vdist_cli scenarios\n"
      "  vdist_cli algos\n"
      "  vdist_cli stats FILE\n"
      "  vdist_cli solve FILE --algo NAME [--seed S] [--budget-ms T]\n"
      "            [--verbose 1] [--export 1] [--strict 0] [algo options]\n"
      "  vdist_cli serve FILE --events EVENTS_FILE\n"
      "            [--policy repair|resolve|online] [--bound X]\n"
      "            [--refresh N] [--mode M] [--select S] [--mu X]\n"
      "            [--guard 0|1] [--check N] [--json FILE|-]\n"
      "  vdist_cli compete FILE (--events EVENTS_FILE |\n"
      "            [--family NAME] [--trace k=v,...] [--seed S])\n"
      "            [serve flags] [--every N] [--offline ALGO]\n"
      "            [--min-ratio X] [--csv FILE|-] [--json FILE|-]\n"
      "  vdist_cli sweep --plan FILE | --scenario NAME [--set k=v,...]\n"
      "            [--axis k=v1,v2[;k2=...]] [--algos a,b,c]\n"
      "            [--algo-axis algo:k=v1,v2[;...]] [--replicates N]\n"
      "            [--seed S] [--threads N] [--csv FILE|-] [--json FILE|-]\n"
      "            [--deterministic 1] [--strict 0]\n"
      "  vdist_cli perf [--smoke 1] [--out FILE|-] [--reps N] [--seed S]\n"
      "            [--filter SUBSTR] [--threads N] [--min-speedup X]\n"
      "            [--baseline FILE] [--max-regress R]\n"
      "            [--regress-metric both|wall|evals]\n"
      "  vdist_cli eval FILE --assignment ASSIGNMENT_FILE\n\n"
      "'gen' resolves --kind through the scenario registry ('vdist_cli\n"
      "scenarios' lists every workload family with its declared params)\n"
      "and 'solve' through the solver registry ('vdist_cli algos');\n"
      "unconsumed --key value pairs go to the scenario/algorithm and are\n"
      "checked against its declared keys (disable with --strict 0 on\n"
      "solve and sweep). 'sweep' expands a scenario x algorithm x seed cross-\n"
      "product from a plan file or flags, runs it on a thread pool, and\n"
      "prints per-cell aggregates (mean/min/max objective, gap vs the\n"
      "utility upper bound, wall time); --csv/--json write the table for\n"
      "plotting ('-' = stdout); --deterministic 1 zeroes wall-clock fields\n"
      "so the CSV/JSON is byte-identical across runs and thread counts.\n"
      "Numeric and boolean flags must parse whole ('8x' is an error).\n"
      "'gen-events' draws a deterministic event trace\n"
      "(joins, leaves, stream add/remove, capacity and utility moves)\n"
      "over an instance; --family selects a workload-registry adversary\n"
      "(churn, zipf-drift, flash-crowd, diurnal, hetero-cap — 'vdist_cli\n"
      "scenarios' lists each family's declared params, shared verbatim\n"
      "with the corresponding scenario's and the serve solver's 'trace'\n"
      "option). 'serve' replays such a trace through a serving session\n"
      "(engine/serving.h) under one of three repair policies and emits\n"
      "objective-over-time JSON. With --check N the session is compared\n"
      "against a from-scratch solve every N events (resolve must match\n"
      "bit-exactly, repair must stay within --bound; exit 4 on\n"
      "violation); its JSON 'checks' object reports the checks' median\n"
      "snapshot, row and solve milliseconds, the slowest check and the\n"
      "rows the checks sorted rather than derived. 'compete'\n"
      "replays a trace (from --events FILE, or derived via\n"
      "--family/--trace/--seed) through the same session and\n"
      "solves the OFFLINE optimum on every --every N checkpoint prefix's\n"
      "materialized snapshot, reporting per-prefix online/offline/ratio\n"
      "rows plus min/mean/final aggregates; --offline picks the reference\n"
      "algorithm (default: the mode-matched greedy, under which resolve's\n"
      "ratio is 1.0 bit-exactly), --min-ratio X gates the worst prefix\n"
      "(exit 5 on violation). 'perf' benchmarks the selection-kernel\n"
      "strategies (delta/naive) on scaling registered scenarios and\n"
      "writes BENCH_perf.json with build provenance (exit 3 when the\n"
      "objectives diverge, the largest case's delta-vs-naive speedup\n"
      "falls below --min-speedup, or — with --baseline FILE — any\n"
      "matching case's wall or evals ratio against the committed BENCH\n"
      "JSON exceeds --max-regress, default 2); --filter SUBSTR runs the\n"
      "matching subset of case labels. 'solve\n"
      "--export 1' writes the assignment to stdout in the text format of\n"
      "src/io/instance_io.h; 'eval' validates such a file against the\n"
      "instance (exit 2 if infeasible).\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  try {
    if (args.command == "gen") return cmd_gen(args);
    if (args.command == "gen-events") return cmd_gen_events(args);
    if (args.command == "scenarios") return cmd_scenarios();
    if (args.command == "stats") return cmd_stats(args);
    if (args.command == "algos") return cmd_algos();
    if (args.command == "solve") return cmd_solve(args);
    if (args.command == "serve") return cmd_serve(args);
    if (args.command == "compete") return cmd_compete(args);
    if (args.command == "sweep") return cmd_sweep(args);
    if (args.command == "perf") return cmd_perf(args);
    if (args.command == "eval") return cmd_eval(args);
    if (args.command.empty() || args.command == "help" ||
        args.command == "--help" || args.command == "-h")
      return cmd_help(std::cout);
    // An unrecognized subcommand must not silently look like success.
    std::cerr << "error: unknown command '" << args.command << "'\n\n";
    cmd_help(std::cerr);
    return 1;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
