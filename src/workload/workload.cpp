#include "workload/workload.h"

#include <cmath>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "util/parse.h"
#include "workload/churn.h"
#include "workload/diurnal.h"
#include "workload/flash_crowd.h"
#include "workload/hetero_cap.h"
#include "workload/zipf_drift.h"

namespace vdist::workload {

Params::Params(std::map<std::string, std::string> values)
    : values_(std::move(values)) {}

const std::string& Params::get(const std::string& key) const {
  const auto it = values_.find(key);
  if (it == values_.end())
    throw std::invalid_argument("workload param '" + key +
                                "' was not resolved (registry bug)");
  return it->second;
}

double Params::get_double(const std::string& key) const {
  const double v = util::parse_double_value("workload param " + key, get(key));
  if (!std::isfinite(v))
    throw std::invalid_argument("workload param " + key +
                                " expects a finite number, got '" + get(key) +
                                "'");
  return v;
}

std::uint64_t Params::get_count(const std::string& key) const {
  return util::parse_count_value("workload param " + key, get(key));
}

double Params::get_fraction(const std::string& key) const {
  const double v = get_double(key);
  if (v < 0.0 || v > 1.0)
    throw std::invalid_argument("workload param " + key +
                                " expects a value in [0, 1], got '" +
                                get(key) + "'");
  return v;
}

void register_builtin_workloads(WorkloadRegistry& registry) {
  register_churn(registry);
  register_zipf_drift(registry);
  register_flash_crowd(registry);
  register_diurnal(registry);
  register_hetero_cap(registry);
}

WorkloadRegistry& WorkloadRegistry::global() {
  static WorkloadRegistry* registry = [] {
    auto* r = new WorkloadRegistry();
    register_builtin_workloads(*r);
    return r;
  }();
  return *registry;
}

void WorkloadRegistry::add(std::unique_ptr<WorkloadModel> model) {
  const std::string& name = model->info().name;
  if (contains(name))
    throw std::invalid_argument("workload family '" + name +
                                "' registered twice");
  models_.push_back(std::move(model));
}

bool WorkloadRegistry::contains(const std::string& name) const {
  for (const auto& m : models_)
    if (m->info().name == name) return true;
  return false;
}

const WorkloadModel& WorkloadRegistry::model(const std::string& name) const {
  for (const auto& m : models_)
    if (m->info().name == name) return *m;
  std::ostringstream msg;
  msg << "unknown workload family '" << name << "' (known:";
  for (const auto& m : models_) msg << ' ' << m->info().name;
  msg << ')';
  throw std::invalid_argument(msg.str());
}

std::vector<std::string> WorkloadRegistry::names() const {
  std::vector<std::string> out;
  out.reserve(models_.size());
  for (const auto& m : models_) out.push_back(m->info().name);
  return out;
}

Params WorkloadRegistry::resolve(
    const std::string& name,
    const std::map<std::string, std::string>& overrides) const {
  const WorkloadInfo& info = model(name).info();
  std::map<std::string, std::string> values;
  for (const WorkloadParam& p : info.params) values[p.key] = p.fallback;
  for (const auto& [key, value] : overrides) {
    const auto it = values.find(key);
    if (it == values.end())
      throw std::invalid_argument("workload family '" + name +
                                  "' has no param '" + key + "'");
    it->second = value;
  }
  return Params(std::move(values));
}

std::vector<model::InstanceEvent> WorkloadRegistry::generate(
    const std::string& name, const model::Instance& inst,
    const std::map<std::string, std::string>& overrides) const {
  return model(name).generate(inst, resolve(name, overrides));
}

void apply_workload_overrides(std::map<std::string, std::string>& overrides,
                              const std::string& spec,
                              const std::string& what) {
  std::size_t pos = 0;
  while (pos < spec.size()) {
    std::size_t comma = spec.find(',', pos);
    if (comma == std::string::npos) comma = spec.size();
    const std::string item = spec.substr(pos, comma - pos);
    pos = comma + 1;
    if (item.empty()) continue;
    const std::size_t eq = item.find('=');
    if (eq == std::string::npos || eq == 0)
      throw std::invalid_argument(what +
                                  " expects key=value[,key=value...], got '" +
                                  item + "'");
    overrides[item.substr(0, eq)] = item.substr(eq + 1);
  }
}

std::string workload_param_line(const WorkloadModel& model,
                                const Params& params) {
  std::ostringstream out;
  out << "family=" << model.info().name;
  for (const WorkloadParam& p : model.info().params)
    out << ',' << p.key << '=' << params.get(p.key);
  return out.str();
}

}  // namespace vdist::workload
