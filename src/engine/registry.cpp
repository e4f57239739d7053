#include "engine/registry.h"

#include <algorithm>
#include <sstream>
#include <stdexcept>

#include "core/select.h"
#include "engine/builtin_solvers.h"
#include "util/stopwatch.h"

namespace vdist::engine {

// --- SolveOptions -----------------------------------------------------------

std::string SolveOptions::format_number(double value) {
  std::ostringstream os;
  os.precision(17);
  os << value;
  return os.str();
}

double SolveOptions::get_double(const std::string& key, double fallback) const {
  const auto it = values_.find(key);
  return it == values_.end() ? fallback
                             : util::parse_double_value("option --" + key,
                                                  it->second);
}

std::int64_t SolveOptions::get_int(const std::string& key,
                                   std::int64_t fallback, std::int64_t lo,
                                   std::int64_t hi) const {
  const auto it = values_.find(key);
  return it == values_.end()
             ? fallback
             : util::parse_int_value("option --" + key, it->second, lo, hi);
}

bool SolveOptions::get_bool(const std::string& key, bool fallback) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  const std::string& v = it->second;
  if (v == "1" || v == "true" || v == "yes" || v == "on") return true;
  if (v == "0" || v == "false" || v == "no" || v == "off") return false;
  throw std::invalid_argument("option --" + key + " expects a boolean, got '" +
                              v + "'");
}

// --- SolverRegistry ---------------------------------------------------------

SolverRegistry& SolverRegistry::global() {
  static SolverRegistry* registry = [] {
    auto* r = new SolverRegistry();
    register_core_solvers(*r);
    register_baseline_solvers(*r);
    return r;
  }();
  return *registry;
}

void SolverRegistry::add(SolverInfo info, SolverFn fn) {
  if (info.name.empty())
    throw std::invalid_argument("solver name must not be empty");
  if (find(info.name) != nullptr)
    throw std::invalid_argument("solver '" + info.name +
                                "' is already registered");
  const auto pos = std::lower_bound(
      entries_.begin(), entries_.end(), info.name,
      [](const Entry& e, const std::string& n) { return e.info.name < n; });
  entries_.insert(pos, Entry{std::move(info), std::move(fn)});
}

const SolverRegistry::Entry* SolverRegistry::find(
    const std::string& name) const {
  const auto pos = std::lower_bound(
      entries_.begin(), entries_.end(), name,
      [](const Entry& e, const std::string& n) { return e.info.name < n; });
  if (pos == entries_.end() || pos->info.name != name) return nullptr;
  return &*pos;
}

bool SolverRegistry::contains(const std::string& name) const {
  return find(name) != nullptr;
}

const SolverInfo& SolverRegistry::info(const std::string& name) const {
  const Entry* e = find(name);
  if (e == nullptr) {
    std::string known;
    for (const Entry& entry : entries_) {
      if (!known.empty()) known += ", ";
      known += entry.info.name;
    }
    throw std::invalid_argument("unknown algorithm '" + name +
                                "' (known: " + known + ")");
  }
  return e->info;
}

std::vector<std::string> SolverRegistry::names() const {
  std::vector<std::string> out;
  out.reserve(entries_.size());
  for (const Entry& e : entries_) out.push_back(e.info.name);
  return out;
}

void SolverRegistry::check_options(const std::string& name,
                                   const SolveOptions& options) const {
  const SolverInfo& meta = info(name);  // throws on unknown algorithm
  for (const auto& [key, value] : options.raw()) {
    if (std::find(meta.option_keys.begin(), meta.option_keys.end(), key) !=
        meta.option_keys.end())
      continue;
    std::string declared;
    for (const std::string& known : meta.option_keys) {
      if (!declared.empty()) declared += ", ";
      declared += known;
    }
    throw std::invalid_argument(
        "algorithm '" + name + "' does not declare option '" + key +
        "' (declared: " + (declared.empty() ? "none" : declared) + ")");
  }
}

namespace {

const char* form_requirement(InstanceForm form) {
  switch (form) {
    case InstanceForm::kSmd:
      return "an SMD instance (m == mc == 1)";
    case InstanceForm::kUnitSkew:
      return "a unit-skew cap-form instance (SMD with load == utility)";
    case InstanceForm::kAny:
      break;
  }
  return "";
}

bool form_satisfied(InstanceForm form, const model::Instance& inst) {
  switch (form) {
    case InstanceForm::kSmd:
      return inst.is_smd();
    case InstanceForm::kUnitSkew:
      return inst.is_smd() && inst.is_unit_skew();
    case InstanceForm::kAny:
      break;
  }
  return true;
}

}  // namespace

SolveResult SolverRegistry::solve(const SolveRequest& req) const {
  if (req.instance == nullptr)
    throw std::invalid_argument("SolveRequest::instance is null");

  SolveResult result;
  result.algorithm = req.algorithm;
  result.tag = req.tag;
  result.seed = req.seed;
  result.upper_bound = req.instance->utility_upper_bound();

  const Entry* entry = find(req.algorithm);
  if (entry == nullptr) {
    try {
      info(req.algorithm);  // throws with the known-names message
    } catch (const std::exception& e) {
      result.error = e.what();
    }
    return result;
  }
  if (!form_satisfied(entry->info.form, *req.instance)) {
    result.error = "algorithm '" + req.algorithm + "' requires " +
                   form_requirement(entry->info.form);
    return result;
  }
  if (req.strict) {
    try {
      check_options(req.algorithm, req.options);
    } catch (const std::exception& e) {
      result.error = e.what();
      return result;
    }
  }

  // Every request is a cold solve: the greedy's row cache is dropped so
  // the stats (select_rows_sorted) do not depend on what the workspace
  // solved before: a sweep reports the same numbers under any schedule,
  // and each perf repetition times a cold solve.
  if (req.workspace != nullptr) req.workspace->invalidate_rows();
  util::Stopwatch watch;
  try {
    SolveOutcome outcome = entry->fn(req);
    result.wall_ms = watch.elapsed_ms();
    result.raw_utility = outcome.assignment.utility();
    result.objective =
        outcome.objective >= 0.0 ? outcome.objective : result.raw_utility;
    result.variant = std::move(outcome.variant);
    result.stats = std::move(outcome.stats);
    if (outcome.feasibility.has_value()) {
      // The adapter validated against its own (mutated) world.
      result.feasibility = *outcome.feasibility;
    } else if (req.validate) {
      const model::ValidationReport report =
          model::validate(outcome.assignment);
      result.feasibility = report.feasibility;
      result.stats["violations"] =
          static_cast<double>(report.violations.size());
    }
    result.assignment = std::move(outcome.assignment);
    result.ok = true;
  } catch (const std::exception& e) {
    result.wall_ms = watch.elapsed_ms();
    result.error = e.what();
    return result;
  }
  result.timed_out =
      req.time_budget_ms > 0.0 && result.wall_ms > req.time_budget_ms;
  return result;
}

RegisterSolver::RegisterSolver(SolverInfo info, SolverRegistry::SolverFn fn) {
  SolverRegistry::global().add(std::move(info), std::move(fn));
}

SolveResult solve(const SolveRequest& req) {
  return SolverRegistry::global().solve(req);
}

}  // namespace vdist::engine
