// The unified solver API: every algorithm in the library — the §2 greedy
// family, §2.3 partial enumeration, the §3 band solver, the §4 pipeline,
// the §5 online allocator, the exact branch-and-bound and the baseline
// admission policies — is invoked through one request/result pair.
//
//   SolveRequest req;
//   req.instance = &inst;
//   req.algorithm = "pipeline";
//   req.options.set("augment", "0");
//   engine::SolveResult r = engine::solve(req);
//
// Callers (CLI, benches, tests, future services) never name a concrete
// algorithm type: they look it up by string in the SolverRegistry
// (registry.h), so adding an algorithm is one registration in one file.
#pragma once

#include <cstdint>
#include <limits>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>

#include "model/assignment.h"
#include "model/instance.h"
#include "model/validate.h"
#include "util/parse.h"

namespace vdist::core {
struct SolveWorkspace;
}  // namespace vdist::core

namespace vdist::engine {

// String-keyed per-algorithm options with typed accessors. Keys are
// algorithm-defined (see each registration's description); unknown keys
// are ignored so a sweep can set options that only some algorithms read.
class SolveOptions {
 public:
  SolveOptions() = default;

  SolveOptions& set(const std::string& key, std::string value) {
    values_[key] = std::move(value);
    return *this;
  }
  SolveOptions& set(const std::string& key, double value) {
    return set(key, format_number(value));
  }
  SolveOptions& set(const std::string& key, int value) {
    return set(key, std::to_string(value));
  }

  [[nodiscard]] bool has(const std::string& key) const {
    return values_.count(key) > 0;
  }
  [[nodiscard]] std::string get(const std::string& key,
                                const std::string& fallback) const {
    const auto it = values_.find(key);
    return it == values_.end() ? fallback : it->second;
  }
  // Numbers parse with the util/parse.h whole-token rules, booleans take
  // 1/true/yes/on and 0/false/no/off; errors name "option --key".
  [[nodiscard]] double get_double(const std::string& key,
                                  double fallback) const;
  [[nodiscard]] std::int64_t get_int(
      const std::string& key, std::int64_t fallback,
      std::int64_t lo = std::numeric_limits<std::int64_t>::min(),
      std::int64_t hi = std::numeric_limits<std::int64_t>::max()) const;
  [[nodiscard]] bool get_bool(const std::string& key, bool fallback) const;

  [[nodiscard]] const std::map<std::string, std::string>& raw() const {
    return values_;
  }

 private:
  static std::string format_number(double value);
  std::map<std::string, std::string> values_;
};

// One solve: which instance, which algorithm, how.
struct SolveRequest {
  const model::Instance* instance = nullptr;
  std::string algorithm;
  SolveOptions options;
  // RNG seed for randomized algorithms (ordering shuffles, tie-breaks).
  // Deterministic algorithms ignore it; equal seeds give equal results.
  std::uint64_t seed = 1;
  // Seed for adapters that *generate* their own workload (the serve
  // adapter's event trace). Unlike `seed` — which BatchRunner decorrelates
  // per request index so equal-seeded cells don't accidentally share RNG
  // streams — this passes through the batch runner untouched, so sweep
  // cells paired on the same instance replay the identical workload (a
  // policy axis of a serve sweep must compare objectives on one trace).
  // 0 = fall back to `seed`.
  std::uint64_t workload_seed = 0;
  // Advisory wall-clock budget; 0 = unlimited. Algorithms with an
  // iteration cap derive it where possible, and the runner always reports
  // `timed_out` when the budget was exceeded after the fact.
  double time_budget_ms = 0.0;
  // Skip the from-scratch feasibility validation of the output (it is
  // O(n); microbenchmarks opt out).
  bool validate = true;
  // Reject option keys the algorithm's registration does not declare
  // (error result naming the declared keys). Off by default so a sweep
  // can set options only some algorithms read; the CLI turns it on to
  // catch flag typos.
  bool strict = false;
  // Optional reusable scratch buffers (core/select.h). Algorithms that
  // support it solve on these instead of allocating fresh vectors;
  // BatchRunner supplies one workspace per worker thread when a request
  // leaves this null. Must outlive the solve and must never be shared by
  // two concurrent solves. Each solve starts from a cold greedy row cache
  // (the registry drops it), so the stats never depend on what the
  // workspace solved before.
  core::SolveWorkspace* workspace = nullptr;
  // Opaque caller label, echoed back in the result (batch bookkeeping).
  std::string tag;
};

// What every algorithm reports back, uniformly.
struct SolveResult {
  std::string algorithm;
  std::string tag;
  bool ok = false;
  // Set iff !ok: what went wrong (unknown algorithm, wrong instance form,
  // solver limit exceeded...). The assignment is then empty.
  std::string error;

  // The solution. For semi-feasible algorithms (greedy-plain,
  // greedy-augmented) user caps may be exceeded; `feasibility` says so.
  std::optional<model::Assignment> assignment;
  // The algorithm's own objective: the paper's capped utility
  // sum_u min(W_u, w_u(A)) where that is meaningful, raw utility w(A)
  // otherwise. Equal to raw_utility for feasible assignments.
  double objective = 0.0;
  double raw_utility = 0.0;
  model::Feasibility feasibility = model::Feasibility::kFeasible;
  // Σ w_u(S) over all edges: a trivial upper bound on any objective,
  // echoed for gap computations. stats["proven_optimal"] == 1 (exact
  // solver) makes objective itself the tight bound.
  double upper_bound = 0.0;

  double wall_ms = 0.0;
  bool timed_out = false;
  std::uint64_t seed = 0;

  // Which internal candidate won, when the algorithm races several
  // ("greedy", "A1", "A2", "Amax"...). Empty otherwise.
  std::string variant;
  // Per-algorithm iteration statistics (counts, bands, nodes, trips...).
  // Keys are stable per algorithm and listed in its registry description.
  std::map<std::string, double> stats;

  [[nodiscard]] bool feasible() const noexcept {
    return ok && feasibility == model::Feasibility::kFeasible;
  }
  [[nodiscard]] double stat(const std::string& key,
                            double fallback = 0.0) const {
    const auto it = stats.find(key);
    return it == stats.end() ? fallback : it->second;
  }
  // The assignment, which callers may take by reference. Throws if !ok.
  [[nodiscard]] const model::Assignment& solution() const {
    if (!assignment.has_value())
      throw std::logic_error("SolveResult::solution(): no assignment (" +
                             (error.empty() ? algorithm : error) + ")");
    return *assignment;
  }
};

// Convenience free function: SolverRegistry::global().solve(req).
[[nodiscard]] SolveResult solve(const SolveRequest& req);

}  // namespace vdist::engine
