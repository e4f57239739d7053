// The serving-path benchmark: workloads, one measured pass over the whole
// user path, and the end-to-end / per-layer metrics derived from passes.
//
// A pass drives the library through its public entry points only:
// io::load_instance_file, io::load_events_file, engine::make_backend,
// ServingBackend::apply / snapshot / check_parity / counters /
// select_stats, and engine::solve. With a Tracer attached, the same pass
// records a span around each of those calls and then replays the trace a
// second time through a *mirror* — its own model::InstanceOverlay and
// engine::RepairCore driven through the sequence Session::repair_apply
// runs — which splits the repair policy's per-event cost by layer and must
// reproduce the backend's per-event objective bit for bit.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/select.h"
#include "engine/scenario.h"
#include "engine/serving.h"
#include "spans.h"

namespace wallbench {

struct Workload {
  std::string name;
  vdist::engine::ScenarioSpec scenario;  // the seed is set per run
  std::string family;                    // workload-registry trace family
  std::map<std::string, std::string> trace;  // family overrides (no seed)
  vdist::engine::ServeConfig serve;
  // true: snapshot() + offline enum solve (depth 2) at the trace end, the
  // competitive-ratio checkpoint; false: the trace-end check_parity() is
  // the checkpoint.
  bool enum_at_end = false;
  // Repair workloads: check_parity() also after every this many accepted
  // events (a multiple of serve.refresh, so a drift check just ran); each
  // is a checkpoint. 0: at the trace end only.
  std::size_t parity_every = 0;
  // Independent worlds (instance + trace) per seed; the metrics pool
  // every world's passes.
  std::size_t worlds = 1;
};

[[nodiscard]] std::vector<std::string> workload_names();
// Full shapes, or tiny ones with the same structure when smoke is set.
// Throws std::invalid_argument on an unknown name.
[[nodiscard]] Workload find_workload(const std::string& name, bool smoke);

struct Inputs {
  std::string instance;  // io/instance_io.h text format
  std::string events;    // io/event_io.h text format
};
// The file pair of each of the workload's worlds under dir.
[[nodiscard]] std::vector<Inputs> inputs_in(const Workload& w,
                                            const std::string& dir);

// Builds each world's instance (scenario registry) and event trace
// (workload registry) from the seed and writes them into dir.
void generate_inputs(const Workload& w, std::uint64_t seed,
                     const std::string& dir);

struct PassResult {
  double setup_s = 0.0;  // load instance + load events + make_backend
  double run_s = 0.0;    // the whole pass: setup, replay, checkpoints, checks
  double open_objective = 0.0;
  std::vector<double> apply_us;      // per accepted event
  std::vector<char> drift_checked;   // per accepted event
  std::vector<char> rejected;        // per trace event
  std::vector<double> objective;     // per trace event (after apply)
  // Enum at the trace end, else every check_parity().
  std::vector<double> checkpoint_ms;
  double quality_ratio = 0.0;
  double final_objective = 0.0;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> failures;

  // Work done during the replay (deterministic per seed).
  double drift_checks = 0.0;
  double full_resolves = 0.0;  // escalations (the opening solve excluded)
  vdist::core::SelectStats select;  // the backend's kernel work
  double users_refreshed = 0.0;
  double streams_released = 0.0;
  double streams_added = 0.0;
  double online_accepts = 0.0;  // session totals, opening offers included
  double online_rejects = 0.0;
  double enum_evals = 0.0;
  double frames_reused = 0.0;
  double completions_replayed = 0.0;

  // Traced passes of repair workloads: the mirror replay.
  double mirror_s = 0.0;  // summed per-event mirror step wall
  std::size_t mirror_mismatches = 0;
};

// One pass; tracer == nullptr is the untraced (end-to-end) run.
[[nodiscard]] PassResult run_pass(const Workload& w, const Inputs& in,
                                  Tracer* tracer);

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

struct RunResult {
  std::size_t passes = 0;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> failures;
  double final_objective = 0.0;  // summed over the worlds
  double quality_ratio = 0.0;    // mean over the worlds
  std::vector<Metric> metrics;
  [[nodiscard]] bool correct() const { return failed == 0; }
};

// Repeats rounds (one pass per world) until `seconds` have elapsed (at
// least one). Untraced: the end-to-end metrics, plus extra setups so
// setup_s is a median of at least three. Traced: the per-layer metrics,
// spans kept in `tracer`.
[[nodiscard]] RunResult measure(const Workload& w,
                                const std::vector<Inputs>& worlds,
                                double seconds, Tracer* tracer);

// Every metric measure() reports, in order, for either mode (name and
// unit; the value is 0).
[[nodiscard]] std::vector<Metric> end_to_end_metrics();
[[nodiscard]] std::vector<Metric> per_layer_metrics();

}  // namespace wallbench
