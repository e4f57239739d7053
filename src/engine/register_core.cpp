// Registry adapters for the src/core algorithm suite. Each adapter maps
// SolveOptions keys onto the algorithm's native option struct and folds
// its native result into a SolveOutcome; nothing here contains algorithm
// logic.
#include <climits>
#include <memory>
#include <utility>

#include "core/allocate_online.h"
#include "core/exact.h"
#include "core/greedy.h"
#include "core/mmd_solver.h"
#include "core/partial_enum.h"
#include "core/select.h"
#include "core/skew_bands.h"
#include "engine/builtin_solvers.h"
#include "engine/registry.h"
#include "engine/serving.h"
#include "util/rng.h"
#include "workload/workload.h"

namespace vdist::engine {

namespace {

using core::SmdMode;

SmdMode parse_mode(const SolveOptions& opts) {
  const std::string mode = opts.get("mode", "feasible");
  if (mode == "feasible") return SmdMode::kFeasible;
  if (mode == "augmented") return SmdMode::kAugmented;
  throw std::invalid_argument(
      "option --mode expects feasible|augmented, got '" + mode + "'");
}

// The `select` option every greedy-family adapter reads: which selection
// kernel strategy runs the argmax (core/select.h). Default delta (exact
// per-stream invalidation); `naive` is the differential-testing / perf
// baseline.
core::GreedyOptions greedy_options(const SolveRequest& req) {
  return {core::parse_select_strategy(req.options.get("select", "delta")),
          req.workspace};
}

core::SkewBandsOptions band_options(const SolveRequest& req) {
  const SolveOptions& opts = req.options;
  core::SkewBandsOptions bands;
  bands.use_partial_enum = opts.get_bool("enum-bands", false);
  bands.seed_size =
      static_cast<int>(opts.get_int("depth", bands.seed_size, 0, INT_MAX));
  bands.mode = parse_mode(opts);
  const core::GreedyOptions greedy = greedy_options(req);
  bands.strategy = greedy.strategy;
  bands.workspace = greedy.workspace;
  return bands;
}

void report_select(SolveOutcome& out, const core::SelectStats& select) {
  out.stats["select_picks"] = static_cast<double>(select.picks);
  out.stats["select_evals"] = static_cast<double>(select.evaluations);
  // Per-phase hot-path counters: w-bar propagation deltas applied,
  // adjacency rows entered, selection-tree leaf-to-root passes
  // (select_heap_sifts keeps its old name). Deterministic, so the
  // perf suite can attribute a wall change to a phase.
  out.stats["select_pairs_touched"] =
      static_cast<double>(select.pairs_touched);
  out.stats["select_rows_walked"] = static_cast<double>(select.rows_walked);
  out.stats["select_heap_sifts"] = static_cast<double>(select.heap_sifts);
  // The greedy prep's user-row sorts (all rows on a cold workspace).
  out.stats["select_rows_sorted"] = static_cast<double>(select.rows_sorted);
}

SolveOutcome run_pipeline(const SolveRequest& req) {
  core::MmdSolverOptions opts;
  opts.bands = band_options(req);
  opts.augment = req.options.get_bool("augment", true);
  core::MmdSolveResult r = core::solve_mmd(*req.instance, opts);
  SolveOutcome out{std::move(r.assignment)};
  out.objective = r.utility;
  out.stats["reduced"] = r.reduced ? 1.0 : 0.0;
  out.stats["alpha"] = r.alpha;
  out.stats["num_bands"] = static_cast<double>(r.num_bands);
  out.stats["chosen_band"] = static_cast<double>(r.chosen_band);
  if (r.reduced)
    out.stats["transform_input_utility"] = r.transform.input_utility;
  report_select(out, r.select);
  return out;
}

SolveOutcome run_bands(const SolveRequest& req) {
  core::SkewBandsResult r =
      core::solve_smd_any_skew(*req.instance, band_options(req));
  SolveOutcome out{std::move(r.assignment)};
  out.objective = r.utility;
  out.stats["alpha"] = r.alpha;
  out.stats["num_bands"] = static_cast<double>(r.num_bands);
  out.stats["chosen_band"] = static_cast<double>(r.chosen_band);
  out.stats["fill_edges"] = static_cast<double>(r.fill_edges);
  report_select(out, r.select);
  return out;
}

SolveOutcome run_fixed_greedy(const SolveRequest& req, SmdMode mode) {
  core::SmdSolveResult r =
      core::solve_unit_skew(*req.instance, mode, greedy_options(req));
  SolveOutcome out{std::move(r.assignment)};
  out.objective = r.utility;
  out.variant = std::move(r.variant);
  report_select(out, r.select);
  return out;
}

SolveOutcome run_plain_greedy(const SolveRequest& req) {
  core::GreedyResult r =
      core::greedy_unit_skew(*req.instance, greedy_options(req));
  SolveOutcome out{std::move(r.assignment)};
  out.objective = r.capped_utility;
  out.stats["considered"] = static_cast<double>(r.trace.num_considered);
  out.stats["skipped_budget"] = static_cast<double>(r.trace.skipped_budget);
  report_select(out, r.select);
  return out;
}

SolveOutcome run_amax(const SolveRequest& req) {
  SolveOutcome out{core::best_single_stream(*req.instance)};
  out.objective = out.assignment.capped_utility();
  return out;
}

SolveOutcome run_partial_enum(const SolveRequest& req) {
  core::PartialEnumOptions opts;
  opts.seed_size = static_cast<int>(
      req.options.get_int("depth", opts.seed_size, 0, INT_MAX));
  opts.mode = parse_mode(req.options);
  opts.max_candidates = static_cast<std::size_t>(req.options.get_int(
      "max-candidates", static_cast<std::int64_t>(opts.max_candidates), 0));
  opts.threads = static_cast<int>(
      req.options.get_int("threads", opts.threads, INT_MIN, INT_MAX));
  const core::GreedyOptions greedy = greedy_options(req);
  opts.strategy = greedy.strategy;
  opts.workspace = greedy.workspace;
  core::PartialEnumResult r = core::partial_enum_unit_skew(*req.instance, opts);
  SolveOutcome out{std::move(r.best.assignment)};
  out.objective = r.best.utility;
  out.variant = std::move(r.best.variant);
  out.stats["candidates"] = static_cast<double>(r.candidates_evaluated);
  out.stats["truncated"] = r.truncated ? 1.0 : 0.0;
  out.stats["frames_reused"] = static_cast<double>(r.frames_reused);
  out.stats["completions_replayed"] =
      static_cast<double>(r.completions_replayed);
  report_select(out, r.select);
  return out;
}

SolveOutcome run_exact(const SolveRequest& req) {
  core::ExactOptions opts;
  opts.max_nodes = static_cast<std::size_t>(req.options.get_int(
      "max-nodes", static_cast<std::int64_t>(opts.max_nodes), 0));
  core::ExactResult r = core::solve_exact(*req.instance, opts);
  SolveOutcome out{std::move(r.assignment)};
  out.objective = r.utility;
  out.stats["nodes"] = static_cast<double>(r.nodes);
  out.stats["proven_optimal"] = r.proven_optimal ? 1.0 : 0.0;
  return out;
}

SolveOutcome run_online(const SolveRequest& req) {
  core::AllocateOptions opts;
  opts.mu = parse_mu_option(req.options);
  opts.guard_feasibility = req.options.get_bool("guard", true);
  opts.workspace = req.workspace;
  if (req.options.get_bool("shuffle", false)) {
    // Randomized arrival order, derived from the request seed so batch
    // sweeps are reproducible per request.
    opts.order.resize(req.instance->num_streams());
    for (std::size_t s = 0; s < opts.order.size(); ++s)
      opts.order[s] = static_cast<model::StreamId>(s);
    util::Rng rng(req.seed);
    rng.shuffle(opts.order);
  }
  core::AllocateResult r = core::allocate_online(*req.instance, opts);
  SolveOutcome out{std::move(r.assignment)};
  out.objective = r.utility;
  out.stats["mu"] = r.mu;
  out.stats["gamma"] = r.gamma;
  out.stats["accepted"] = static_cast<double>(r.accepted);
  out.stats["rejected"] = static_cast<double>(r.rejected);
  out.stats["guard_trips"] = static_cast<double>(r.guard_trips);
  return out;
}

// The serving session as a sweepable solver: derive a deterministic
// event trace from (instance, family, seed, trace overrides), replay it
// through a make_backend() Session under the requested repair policy,
// and report the end-state solution plus the session's repair
// accounting. This is how BatchRunner sweeps exercise the dynamic
// setting without a side-channel event file; `family` selects any
// workload-registry adversary (churn, zipf-drift, flash-crowd, diurnal,
// hetero-cap) as a sweepable axis.
SolveOutcome run_serve(const SolveRequest& req) {
  ServeConfig cfg = ServeConfig::from_options(req.options);
  // Share the batch runner's per-thread workspace like every adapter.
  cfg.workspace = greedy_options(req).workspace;

  // The trace is the workload, not solver randomness: prefer the paired
  // workload_seed (sweeps set it per replicate, batch-index-stable) so
  // every algorithm cell of a replicate churns the identical trace.
  // --trace key=value,... overrides any family knob, including events and
  // seed — a plan line reproduces the exact workload.
  const std::vector<model::InstanceEvent> trace = derive_trace(
      *req.instance, cfg.family,
      req.workload_seed != 0 ? req.workload_seed : req.seed, cfg.events,
      cfg.trace, "option --trace");

  const std::unique_ptr<Session> backend = make_backend(*req.instance, cfg);
  double objective_sum = 0.0;
  double repair_wall_ms = 0.0;
  for (const model::InstanceEvent& event : trace) {
    const RepairStats stats = backend->apply(event);
    objective_sum += stats.objective;
    repair_wall_ms += stats.wall_ms;
  }

  SolveOutcome out{backend->assignment()};
  out.objective = backend->objective();
  out.variant = backend->variant();
  if (req.validate) {
    // Judge feasibility against the world the backend actually serves —
    // the event-churned state — not the pre-churn parent, whose caps
    // and utilities the trace has since moved.
    const model::ValidationReport report = validate_served(*backend);
    out.feasibility = report.feasibility;
    out.stats["violations"] =
        static_cast<double>(report.violations.size());
  }
  const SessionCounters& counters = backend->counters();
  out.stats["events"] = static_cast<double>(counters.events);
  out.stats["local_repairs"] = static_cast<double>(counters.local_repairs);
  out.stats["full_resolves"] = static_cast<double>(counters.full_resolves);
  out.stats["drift_checks"] = static_cast<double>(counters.drift_checks);
  out.stats["online_accepts"] =
      static_cast<double>(counters.online_accepts);
  out.stats["online_rejects"] =
      static_cast<double>(counters.online_rejects);
  out.stats["repair_wall_ms"] = repair_wall_ms;
  if (!trace.empty())
    out.stats["objective_mean"] =
        objective_sum / static_cast<double>(trace.size());
  report_select(out, backend->select_stats());
  return out;
}

}  // namespace

void register_core_solvers(SolverRegistry& r) {
  r.add({.name = "pipeline",
         .description =
             "Theorem 1.1 end-to-end MMD pipeline (reduce, bands, greedy, "
             "transform); options: augment, enum-bands, depth, mode, select",
         .form = InstanceForm::kAny,
         .option_keys = {"augment", "enum-bands", "depth", "mode", "select"}},
        run_pipeline);
  r.add({.name = "bands",
         .description =
             "Section 3 classify-and-select over skew bands; options: "
             "enum-bands, depth, mode, select; stats: alpha, num_bands, "
             "chosen_band, select_picks, select_evals, "
             "select_pairs_touched, select_rows_walked, select_heap_sifts, "
             "select_rows_sorted",
         .form = InstanceForm::kSmd,
         .option_keys = {"enum-bands", "depth", "mode", "select"}},
        run_bands);
  r.add({.name = "greedy",
         .description =
             "Section 2.2 fixed greedy (Thm 2.8): feasible best of A1/A2/"
             "Amax; variant reports the winner; options: select "
             "(delta|naive argmax kernel)",
         .form = InstanceForm::kUnitSkew,
         .option_keys = {"select"}},
        [](const SolveRequest& req) {
          return run_fixed_greedy(req, SmdMode::kFeasible);
        });
  r.add({.name = "greedy-augmented",
         .description =
             "Corollary 2.7 resource-augmented greedy: semi-feasible best "
             "of greedy/Amax (user caps may overrun by one stream); "
             "options: select",
         .form = InstanceForm::kUnitSkew,
         .option_keys = {"select"}},
        [](const SolveRequest& req) {
          return run_fixed_greedy(req, SmdMode::kAugmented);
        });
  r.add({.name = "greedy-plain",
         .description =
             "Algorithm 1 verbatim (semi-feasible, unbounded ratio alone); "
             "options: select; stats: considered, skipped_budget, "
             "select_picks, select_evals, select_pairs_touched, "
             "select_rows_walked, select_heap_sifts, select_rows_sorted",
         .form = InstanceForm::kUnitSkew,
         .option_keys = {"select"}},
        run_plain_greedy);
  r.add({.name = "amax",
         .description =
             "Lemma 2.6 best single stream assigned to all interested users",
         .form = InstanceForm::kUnitSkew,
         .option_keys = {}},
        run_amax);
  r.add({.name = "enum",
         .description =
             "Section 2.3 Sviridenko partial enumeration (shared-prefix "
             "replay + parallel DFS); options: depth, mode, max-candidates, "
             "select, threads; stats: candidates, truncated, frames_reused, "
             "completions_replayed",
         .form = InstanceForm::kUnitSkew,
         .option_keys = {"depth", "mode", "max-candidates", "select",
                         "threads"}},
        run_partial_enum);
  r.add({.name = "exact",
         .description =
             "branch-and-bound exact optimum (<= 62 streams; evaluation "
             "substrate, not part of the paper); options: max-nodes; stats: "
             "nodes, proven_optimal",
         .form = InstanceForm::kAny,
         .option_keys = {"max-nodes"}},
        run_exact);
  r.add({.name = "serve",
         .description =
             "serving session (engine/serving.h): replay a seed-derived "
             "workload event trace through the repair|resolve|online "
             "policy; options: policy, events, bound, refresh, mode, "
             "select, mu, guard, trace, family; "
             "stats: events, local_repairs, full_resolves, drift_checks, "
             "repair_wall_ms, objective_mean",
         .form = InstanceForm::kUnitSkew,
         .deterministic = false,
         .option_keys = ServeConfig::option_keys()},
        run_serve);
  r.add({.name = "online",
         .description =
             "Section 5 Algorithm Allocate (exponential costs); options: "
             "mu, guard, shuffle; stats: mu, gamma, accepted, rejected, "
             "guard_trips",
         .form = InstanceForm::kAny,
         .deterministic = false,
         .option_keys = {"mu", "guard", "shuffle"}},
        run_online);
}

}  // namespace vdist::engine
