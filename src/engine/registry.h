// The string-keyed solver registry behind engine::solve().
//
// Each algorithm module self-registers through its register_*_solvers()
// hook (register_core.cpp / register_baseline.cpp), which global() invokes
// exactly once — explicit hooks rather than static-initializer objects so
// a static-library link can never silently drop a registration TU. Adding
// an algorithm = one registration in one file; the CLI, every bench and
// the batch runner pick it up by name with no other change. Out-of-tree
// code (tests, plugins) may also add solvers via RegisterSolver.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "engine/solver.h"

namespace vdist::engine {

// What a solver needs the instance to look like; checked before dispatch
// so every algorithm fails the same way on the wrong input form.
enum class InstanceForm {
  kAny,       // full MMD
  kSmd,       // m == mc == 1
  kUnitSkew,  // SMD with load == utility (the Section-2 cap form)
};

// The raw outcome a solver adapter returns; the registry wraps it with
// timing, validation and error capture to build the public SolveResult.
// Every field but the assignment has an initializer, so an adapter names
// the assignment and sets the rest as it needs.
struct SolveOutcome {
  model::Assignment assignment;
  // The algorithm's own objective; negative means "use raw utility".
  double objective = -1.0;
  std::string variant{};
  std::map<std::string, double> stats{};
  // When set, the registry reports this classification instead of
  // validating against the request instance. For adapters whose output
  // is defined over a *different* world than the input — the `serve`
  // session solves the event-churned overlay, so its end state must be
  // judged against the materialized overlay, not the pre-churn parent.
  std::optional<model::Feasibility> feasibility{};
};

struct SolverInfo {
  std::string name;
  // One line: what it is, which paper section, which option keys it reads.
  std::string description;
  InstanceForm form = InstanceForm::kAny;
  // False for algorithms that read SolveRequest::seed.
  bool deterministic = true;
  // Every SolveOptions key the adapter reads. Strict mode
  // (SolveRequest::strict, the CLI default) rejects keys outside this
  // list, catching `--bugdet 0.3`-style typos that lenient mode ignores.
  std::vector<std::string> option_keys{};
};

class SolverRegistry {
 public:
  using SolverFn = std::function<SolveOutcome(const SolveRequest&)>;

  // The process-wide registry with every built-in algorithm registered.
  static SolverRegistry& global();

  // Registers a solver; throws std::invalid_argument on duplicate names.
  void add(SolverInfo info, SolverFn fn);

  [[nodiscard]] bool contains(const std::string& name) const;
  // Throws std::invalid_argument (listing known names) when absent.
  [[nodiscard]] const SolverInfo& info(const std::string& name) const;
  // Registered names, sorted.
  [[nodiscard]] std::vector<std::string> names() const;

  // Strict option validation: throws std::invalid_argument when `options`
  // carries a key the algorithm's registration does not declare (listing
  // the declared keys), or when the algorithm is unknown. Used by
  // SolveRequest::strict and by strict sweeps.
  void check_options(const std::string& name,
                     const SolveOptions& options) const;

  // Dispatches the request: looks up the algorithm, checks the instance
  // form, runs it under a stopwatch, validates the output and fills a
  // SolveResult. Solver exceptions are captured into {ok=false, error};
  // only a null instance throws (that is caller misuse, not data).
  [[nodiscard]] SolveResult solve(const SolveRequest& req) const;

 private:
  SolverRegistry() = default;
  struct Entry {
    SolverInfo info;
    SolverFn fn;
  };
  std::vector<Entry> entries_;  // sorted by name
  [[nodiscard]] const Entry* find(const std::string& name) const;
};

// Static self-registration hook:
//   static engine::RegisterSolver reg{{.name = "greedy", ...}, fn};
struct RegisterSolver {
  RegisterSolver(SolverInfo info, SolverRegistry::SolverFn fn);
};

}  // namespace vdist::engine
