#include "engine/competitive.h"

#include <algorithm>
#include <limits>
#include <memory>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "engine/registry.h"

namespace vdist::engine {

namespace {

// The offline reference value on one materialized prefix snapshot,
// through the solver registry so any registered algorithm (exact,
// pipeline, ...) can serve as the reference.
struct OfflinePoint {
  double objective = 0.0;
  double upper_bound = 0.0;
  double wall_ms = 0.0;
};

OfflinePoint solve_offline(const model::Instance& snapshot,
                           const std::string& algorithm,
                           const CompetitiveOptions& opts) {
  SolveRequest req;
  req.instance = &snapshot;
  req.algorithm = algorithm;
  // The greedy-family references must race the same kernel the backend
  // runs, or "bit-exact" would hinge on an accident; algorithms that do
  // not declare `select` (exact...) must not be handed it.
  const SolverInfo& info = SolverRegistry::global().info(algorithm);
  if (std::find(info.option_keys.begin(), info.option_keys.end(),
                "select") != info.option_keys.end())
    req.options.set("select", core::to_string(opts.serve.strategy));
  const SolveResult r = solve(req);
  if (!r.ok)
    throw std::runtime_error("competitive offline solve (" + algorithm +
                             ") failed: " + r.error);
  return {r.objective, r.upper_bound, r.wall_ms};
}

double ratio_of(double online, double offline) {
  if (offline > 0.0) return online / offline;
  return online <= 0.0 ? 1.0 : std::numeric_limits<double>::infinity();
}

}  // namespace

CompetitiveReport run_competitive(const model::Instance& parent,
                                  std::span<const model::InstanceEvent> trace,
                                  const CompetitiveOptions& opts) {
  ServeConfig cfg = opts.serve;
  // Every measured ratio has had its chance to self-correct.
  if (opts.align_refresh) align_refresh(cfg, opts.every);

  CompetitiveReport report;
  report.policy = to_string(cfg.policy);
  report.offline_algorithm =
      !opts.offline.empty()               ? opts.offline
      : cfg.mode == core::SmdMode::kAugmented ? "greedy-augmented"
                                              : "greedy";

  const std::unique_ptr<Session> backend = make_backend(parent, cfg);
  const auto checkpoint = [&](std::size_t applied) {
    const model::Instance snapshot = backend->snapshot();
    const OfflinePoint offline =
        solve_offline(snapshot, report.offline_algorithm, opts);
    report.offline_wall_ms += offline.wall_ms;
    CompetitiveCheckpoint cp;
    cp.event = applied;
    cp.online_objective = backend->objective();
    cp.offline_objective = offline.objective;
    cp.ratio = ratio_of(cp.online_objective, cp.offline_objective);
    cp.upper_bound = offline.upper_bound;
    cp.offline_gap =
        cp.upper_bound > 0.0
            ? (cp.upper_bound - cp.offline_objective) / cp.upper_bound
            : 0.0;
    report.checkpoints.push_back(cp);
  };

  std::size_t applied = 0;
  for (const model::InstanceEvent& event : trace) {
    const RepairStats stats = backend->apply(event);
    report.serve_wall_ms += stats.wall_ms;
    ++applied;
    if (opts.every > 0 && applied % opts.every == 0 &&
        applied != trace.size())
      checkpoint(applied);
  }
  // The whole-trace point is always measured — on an empty trace it is
  // the opening solve, where every policy meets the offline value.
  checkpoint(applied);

  report.counters = backend->counters();
  report.select = backend->select_stats();
  double sum = 0.0;
  report.min_ratio = std::numeric_limits<double>::infinity();
  for (const CompetitiveCheckpoint& cp : report.checkpoints) {
    sum += cp.ratio;
    report.min_ratio = std::min(report.min_ratio, cp.ratio);
  }
  report.mean_ratio =
      sum / static_cast<double>(report.checkpoints.size());
  report.final_ratio = report.checkpoints.back().ratio;
  return report;
}

util::Table competitive_table(const CompetitiveReport& report) {
  util::Table table({"event", "online", "offline", "ratio", "upper_bound",
                     "offline_gap"});
  for (const CompetitiveCheckpoint& cp : report.checkpoints)
    table.row()
        .add(cp.event)
        .add(cp.online_objective, 17)
        .add(cp.offline_objective, 17)
        .add(cp.ratio, 17)
        .add(cp.upper_bound, 17)
        .add(cp.offline_gap, 17);
  return table;
}

void write_competitive_csv(std::ostream& os,
                           const CompetitiveReport& report) {
  competitive_table(report).print_csv(os);
}

void write_competitive_json(std::ostream& os,
                            const CompetitiveReport& report) {
  std::ostringstream doc;
  doc.precision(17);
  doc << "{\"compete\":\"" << report.policy << "\",\"offline\":\""
      << report.offline_algorithm
      << "\",\"events\":" << report.counters.events
      << ",\"min_ratio\":" << report.min_ratio
      << ",\"mean_ratio\":" << report.mean_ratio
      << ",\"final_ratio\":" << report.final_ratio
      << ",\"local_repairs\":" << report.counters.local_repairs
      << ",\"full_resolves\":" << report.counters.full_resolves
      << ",\"drift_checks\":" << report.counters.drift_checks
      << ",\"select_rows_sorted\":" << report.select.rows_sorted
      << ",\"serve_wall_ms\":" << report.serve_wall_ms
      << ",\"offline_wall_ms\":" << report.offline_wall_ms
      << ",\"checkpoints\":[";
  for (std::size_t i = 0; i < report.checkpoints.size(); ++i) {
    const CompetitiveCheckpoint& cp = report.checkpoints[i];
    if (i != 0) doc << ',';
    doc << "{\"event\":" << cp.event
        << ",\"online\":" << cp.online_objective
        << ",\"offline\":" << cp.offline_objective
        << ",\"ratio\":" << cp.ratio
        << ",\"upper_bound\":" << cp.upper_bound
        << ",\"offline_gap\":" << cp.offline_gap << '}';
  }
  doc << "]}\n";
  os << doc.str();
}

}  // namespace vdist::engine
