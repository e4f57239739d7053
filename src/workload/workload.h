// Workload models: named event-trace families layered over any built
// instance, the dynamic counterpart of the scenario registry. A
// WorkloadModel declares its parameter surface (key / fallback /
// description triples, the same shape as engine::ScenarioParam) and turns
// a resolved parameter set into a deterministic model::InstanceEvent
// trace. The registry is the single source the CLI (`gen-events
// --family`, `compete`), the serve solver's `family` option, and the
// churned-snapshot scenarios resolve through, so every trace is
// reproducible from one `family=NAME,key=value,...` line.
//
// Every family goes through the emitters of workload/trace_state.h:
// generated capacities never drop below the user's largest declared pair
// utility and generated utilities never rise above the declared value,
// so w_u(S) <= W_u keeps holding at every prefix and no pair is clipped
// at its cap. The resolve-policy parity checks (and the competitive
// harness's ratio == 1.0 differential) do not depend on it: the overlay
// gives clipped pairs one meaning in view and snapshot alike.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "model/events.h"
#include "model/instance.h"

namespace vdist::workload {

// One declared workload parameter, in help order. Every family declares
// at least `events` (trace length) and `seed`.
struct WorkloadParam {
  const char* key;
  const char* fallback;
  const char* description;
};

struct WorkloadInfo {
  std::string name;
  std::string description;
  std::vector<WorkloadParam> params;
};

// A resolved parameter set: every declared key present (fallbacks folded
// in by the registry), typed access throwing std::invalid_argument with
// the offending key on malformed values.
class Params {
 public:
  explicit Params(std::map<std::string, std::string> values);

  [[nodiscard]] const std::string& get(const std::string& key) const;
  [[nodiscard]] double get_double(const std::string& key) const;
  [[nodiscard]] std::uint64_t get_count(const std::string& key) const;
  // A double constrained to [0, 1].
  [[nodiscard]] double get_fraction(const std::string& key) const;

  [[nodiscard]] const std::map<std::string, std::string>& values() const {
    return values_;
  }

 private:
  std::map<std::string, std::string> values_;
};

// The generator interface: stateless after construction, so one global
// registry serves concurrent BatchRunner threads.
class WorkloadModel {
 public:
  virtual ~WorkloadModel() = default;
  [[nodiscard]] virtual const WorkloadInfo& info() const = 0;
  // Deterministic in (instance, params): same inputs, byte-identical
  // trace, on any thread. Throws std::invalid_argument on instances the
  // family cannot churn (no users / streams / interest pairs).
  [[nodiscard]] virtual std::vector<model::InstanceEvent> generate(
      const model::Instance& inst, const Params& params) const = 0;
};

class WorkloadRegistry {
 public:
  // The process-wide registry with the builtin families pre-registered:
  // churn, zipf-drift, flash-crowd, diurnal, hetero-cap.
  static WorkloadRegistry& global();

  void add(std::unique_ptr<WorkloadModel> model);
  [[nodiscard]] bool contains(const std::string& name) const;
  // Throws std::invalid_argument (listing the known families) on unknown
  // names.
  [[nodiscard]] const WorkloadModel& model(const std::string& name) const;
  [[nodiscard]] std::vector<std::string> names() const;  // in registration order

  // Folds the family's declared fallbacks under `overrides`; undeclared
  // override keys throw std::invalid_argument naming the key (strict,
  // scenario-registry style).
  [[nodiscard]] Params resolve(
      const std::string& name,
      const std::map<std::string, std::string>& overrides) const;

  [[nodiscard]] std::vector<model::InstanceEvent> generate(
      const std::string& name, const model::Instance& inst,
      const std::map<std::string, std::string>& overrides) const;

 private:
  std::vector<std::unique_ptr<WorkloadModel>> models_;
};

// Parses a comma-separated "key=value,..." list (empty items skipped;
// empty = none) into `overrides`, later keys winning — the one parser
// behind every such list: trace overrides, the churned scenarios' `set`
// param and the CLI's --set. `what` names the flag or param in the
// std::invalid_argument message, e.g. "--set expects key=value[,...]".
void apply_workload_overrides(std::map<std::string, std::string>& overrides,
                              const std::string& spec,
                              const std::string& what);

// The canonical reproduction handle: "family=NAME,key=value,..." over the
// resolved params in declared order.
[[nodiscard]] std::string workload_param_line(const WorkloadModel& model,
                                              const Params& params);

// Registers the builtin families (exposed for tests building their own
// registry; global() already calls it).
void register_builtin_workloads(WorkloadRegistry& registry);

}  // namespace vdist::workload
