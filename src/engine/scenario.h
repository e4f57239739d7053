// The workload counterpart of the solver registry: every instance
// generator in src/gen is wrapped as a named *scenario* with declared,
// string-keyed parameters, so workloads are data — a (name, params, seed)
// triple — rather than code calling a bespoke config struct.
//
//   engine::ScenarioSpec spec;
//   spec.name = "iptv";
//   spec.params.set("streams", 150).set("decorrelate", 1);
//   spec.seed = 42;
//   model::Instance inst = engine::build_scenario(spec);
//
// Each registration declares its parameter names, defaults and one-line
// descriptions, which `vdist_cli scenarios` lists (mirroring
// `vdist_cli algos`) and strict mode checks typos against. Adding a
// workload is one registration in register_scenarios.cpp; the CLI, the
// sweep API (sweep.h) and the tests pick it up by name with no other
// change.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "engine/solver.h"
#include "model/instance.h"

namespace vdist::engine {

// One declared parameter of a scenario registration.
struct ScenarioParam {
  std::string key;
  // Default as a string (the same representation SolveOptions stores);
  // applied when the spec leaves the key unset.
  std::string default_value;
  // One line: what the knob does, units, accepted range.
  std::string description;
};

struct ScenarioInfo {
  std::string name;
  // One line: what workload family this is and which paper section or
  // experiment it substitutes for.
  std::string description;
  std::vector<ScenarioParam> params;

  [[nodiscard]] bool declares(const std::string& key) const;
  [[nodiscard]] const ScenarioParam* find_param(const std::string& key) const;
};

// One workload: which scenario, how, under which seed. Params reuse the
// string-keyed SolveOptions container so CLI flags, plan files and axes
// all flow through the same representation as algorithm options.
// Every field has an initializer, so a designated initializer names only
// the fields it sets.
struct ScenarioSpec {
  std::string name{};
  SolveOptions params{};
  std::uint64_t seed = 1;
  // Optional display label (sweep cells, CSV); the registry ignores it.
  // Lets a plan carry two bases of the same family ("cap", "cap-reduced").
  std::string label{};
};

class ScenarioRegistry {
 public:
  // Builds the instance for a fully-resolved spec: declared defaults are
  // already folded in, every provided key is declared.
  using BuildFn = std::function<model::Instance(const ScenarioSpec&)>;

  // The process-wide registry with every built-in generator registered.
  static ScenarioRegistry& global();

  // Registers a scenario; throws std::invalid_argument on duplicate or
  // empty names.
  void add(ScenarioInfo info, BuildFn fn);

  [[nodiscard]] bool contains(const std::string& name) const;
  // Throws std::invalid_argument (listing known names) when absent.
  [[nodiscard]] const ScenarioInfo& info(const std::string& name) const;
  // Registered names, sorted.
  [[nodiscard]] std::vector<std::string> names() const;

  // Resolves the spec and builds the instance. Unknown scenario names
  // always throw; with strict = true (the default — scenario params are
  // fully declared, so a stray key is a typo) an undeclared param key
  // throws std::invalid_argument listing the declared keys. Defaults are
  // applied for keys the spec leaves unset, so equal specs build
  // identical instances regardless of which defaults were spelled out.
  [[nodiscard]] model::Instance build(const ScenarioSpec& spec,
                                      bool strict = true) const;

  // The param-resolution half of build(): validates keys (per `strict`)
  // and returns the spec with defaults folded in. Exposed so sweeps can
  // label cells by their effective parameters.
  [[nodiscard]] ScenarioSpec resolve(const ScenarioSpec& spec,
                                     bool strict = true) const;

 private:
  ScenarioRegistry() = default;
  struct Entry {
    ScenarioInfo info;
    BuildFn fn;
  };
  std::vector<Entry> entries_;  // sorted by name
  [[nodiscard]] const Entry* find(const std::string& name) const;
};

// Convenience free function: ScenarioRegistry::global().build(spec).
[[nodiscard]] model::Instance build_scenario(const ScenarioSpec& spec,
                                             bool strict = true);

// Registration hook for the built-in generator wrappers
// (register_scenarios.cpp); called exactly once by global().
void register_builtin_scenarios(ScenarioRegistry& registry);

// Static self-registration for out-of-tree scenarios, mirroring
// RegisterSolver.
struct RegisterScenario {
  RegisterScenario(ScenarioInfo info, ScenarioRegistry::BuildFn fn);
};

}  // namespace vdist::engine
