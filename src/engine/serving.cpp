#include "engine/serving.h"

#include <array>
#include <climits>
#include <cmath>
#include <map>
#include <stdexcept>

#include "workload/workload.h"

namespace vdist::engine {

ServePolicy parse_serve_policy(const std::string& name) {
  if (name == "repair") return ServePolicy::kRepair;
  if (name == "resolve") return ServePolicy::kResolve;
  if (name == "online") return ServePolicy::kOnline;
  throw std::invalid_argument(
      "option --policy expects repair|resolve|online, got '" + name + "'");
}

const char* to_string(ServePolicy policy) noexcept {
  switch (policy) {
    case ServePolicy::kRepair:
      return "repair";
    case ServePolicy::kResolve:
      return "resolve";
    default:
      return "online";
  }
}

namespace {

constexpr std::array<ServeOptionSpec, 10> kServeOptions = {{
    {"policy", "repair", "repair policy per event: repair|resolve|online"},
    {"bound", "0.05", "repair: relative drift tolerated before a resolve"},
    {"refresh", "64", "repair: events between drift checks (0 = never)"},
    {"mode", "feasible", "winner mode: feasible|augmented"},
    {"select", "delta", "argmax kernel: delta|naive"},
    {"mu", "0", "online: learning rate (0 derives the paper's, else > 1)"},
    {"guard", "1", "online: feasibility guard"},
    {"events", "200", "derived event-trace length (registry adapter)"},
    {"trace", "", "comma-separated workload key=value overrides"},
    {"family", "churn", "workload family deriving the trace (see "
                        "`vdist_cli scenarios`)"},
}};

}  // namespace

std::span<const ServeOptionSpec> ServeConfig::declared() {
  return kServeOptions;
}

std::vector<std::string> ServeConfig::option_keys() {
  std::vector<std::string> keys;
  keys.reserve(kServeOptions.size());
  for (const ServeOptionSpec& spec : kServeOptions) keys.push_back(spec.key);
  return keys;
}

ServeConfig ServeConfig::from_options(const SolveOptions& opts) {
  ServeConfig cfg;
  cfg.policy = parse_serve_policy(opts.get("policy", "repair"));
  cfg.bound = opts.get_double("bound", cfg.bound);
  if (!(cfg.bound >= 0.0))
    throw std::invalid_argument(
        "option --bound expects a number >= 0, got '" +
        opts.get("bound", "") + "'");
  cfg.refresh =
      static_cast<int>(opts.get_int("refresh", cfg.refresh, 0, INT_MAX));
  const std::string mode = opts.get("mode", "feasible");
  if (mode == "feasible") {
    cfg.mode = core::SmdMode::kFeasible;
  } else if (mode == "augmented") {
    cfg.mode = core::SmdMode::kAugmented;
  } else {
    throw std::invalid_argument(
        "option --mode expects feasible|augmented, got '" + mode + "'");
  }
  cfg.strategy = core::parse_select_strategy(opts.get("select", "delta"));
  cfg.mu = parse_mu_option(opts);
  cfg.guard = opts.get_bool("guard", cfg.guard);
  cfg.events = static_cast<std::size_t>(
      opts.get_int("events", static_cast<std::int64_t>(cfg.events), 0));
  cfg.trace = opts.get("trace", "");
  cfg.family = opts.get("family", cfg.family);
  // Resolves (and therefore validates) lazily at generation time: the
  // serve adapter and CLI both derive through derive_trace() and
  // WorkloadRegistry::global(), which rejects unknown names with the
  // known-family list.
  return cfg;
}

double parse_mu_option(const SolveOptions& opts) {
  const double mu = opts.get_double("mu", 0.0);
  if (mu == 0.0 || (std::isfinite(mu) && mu > 1.0)) return mu;
  throw std::invalid_argument(
      "option --mu expects 0 (auto) or a finite number > 1, got '" +
      opts.get("mu", "") + "'");
}

std::unique_ptr<Session> make_backend(const model::Instance& parent,
                                      const ServeConfig& cfg) {
  return std::make_unique<Session>(parent, cfg);
}

void align_refresh(ServeConfig& cfg, std::size_t every) {
  if (every == 0 || cfg.policy != ServePolicy::kRepair) return;
  const auto gate = static_cast<int>(every);
  if (cfg.refresh <= 0 || gate % cfg.refresh != 0) cfg.refresh = gate;
}

model::ValidationReport validate_served(Session& backend) {
  const model::Instance snapshot = backend.snapshot();
  model::Assignment on_snapshot(snapshot);
  for (std::size_t u = 0; u < snapshot.num_users(); ++u)
    for (const model::StreamId s :
         backend.assignment().streams_of(static_cast<model::UserId>(u)))
      on_snapshot.assign(static_cast<model::UserId>(u), s);
  return model::validate(on_snapshot);
}

std::vector<model::InstanceEvent> derive_trace(
    const model::Instance& inst, const std::string& family,
    std::uint64_t seed, std::optional<std::size_t> events,
    const std::string& overrides, const std::string& what) {
  std::map<std::string, std::string> params;
  if (events) params["events"] = std::to_string(*events);
  params["seed"] = std::to_string(seed);
  workload::apply_workload_overrides(params, overrides, what);
  return workload::WorkloadRegistry::global().generate(family, inst, params);
}

}  // namespace vdist::engine
