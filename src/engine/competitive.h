// Online-vs-offline competitive-ratio harness: replay a full event trace
// through a serving Session under any policy (online / repair / resolve)
// and, at
// every checkpoint prefix plus the trace end, solve the offline optimum
// on the materialized snapshot instance from scratch. The report carries
// per-prefix (online, offline, ratio) rows and whole-trace aggregates
// (min / mean / final ratio), plus each prefix's Σ w_u(S) upper bound
// and the same relative gap SweepPlan aggregates report — so a policy's
// empirical competitiveness is measured against the offline optimum over
// the whole trace, not just the per-event drift bound.
//
// The differential contract: with the default offline reference (the
// §2.2 greedy in the backend's own mode) the resolve policy's ratio is
// 1.0 bit-exactly at every checkpoint — resolve maintains exactly the
// from-scratch solve of the overlay view, and the overlay applies the
// builder's cap rule itself (model/overlay.h), so the materialized
// snapshot is bit-compatible with that view after any accepted trace.
// Repair stays within its declared drift bound at every aligned
// checkpoint; online has no per-prefix guarantee (that is the
// point of measuring it).
#pragma once

#include <iosfwd>
#include <span>
#include <string>
#include <vector>

#include "engine/serving.h"
#include "model/events.h"
#include "model/instance.h"
#include "util/table.h"

namespace vdist::engine {

struct CompetitiveOptions {
  // The session under test (policy, mode, select, ...). The
  // trace-derivation knobs (events / trace / family) are ignored here —
  // the caller provides the trace.
  ServeConfig serve;
  // Checkpoint interval in events; 0 = the trace end only. The final
  // prefix is always checkpointed.
  std::size_t every = 0;
  // Offline reference algorithm (solver-registry name: exact, pipeline,
  // ...). Empty = the §2.2 greedy matching the backend's mode — the
  // reference under which resolve's ratio is 1.0 bit-exactly.
  std::string offline;
  // kRepair: align the backend's drift-refresh interval with `every` so
  // every gated prefix has had its chance to self-correct (the same rule
  // `vdist_cli serve --check` applies).
  bool align_refresh = true;
};

struct CompetitiveCheckpoint {
  std::size_t event = 0;  // prefix length (events applied so far)
  double online_objective = 0.0;
  double offline_objective = 0.0;
  double ratio = 0.0;        // online / offline (1.0 when both are 0)
  double upper_bound = 0.0;  // snapshot Σ w_u(S)
  double offline_gap = 0.0;  // (upper_bound - offline) / upper_bound
};

struct CompetitiveReport {
  std::string policy;
  std::string offline_algorithm;
  std::vector<CompetitiveCheckpoint> checkpoints;  // last = trace end
  // Aggregates over the checkpoints.
  double min_ratio = 0.0;
  double mean_ratio = 0.0;
  double final_ratio = 0.0;
  SessionCounters counters;
  core::SelectStats select;      // the backend's selection-kernel work
  double serve_wall_ms = 0.0;    // summed backend repair wall
  double offline_wall_ms = 0.0;  // summed offline reference solves
};

// Replays the trace and measures. Throws std::invalid_argument on an
// unknown offline algorithm and std::runtime_error when an offline solve
// fails; backend/apply errors propagate unchanged.
[[nodiscard]] CompetitiveReport run_competitive(
    const model::Instance& parent, std::span<const model::InstanceEvent> trace,
    const CompetitiveOptions& opts);

// One row per checkpoint: event, online, offline, ratio, upper_bound,
// offline_gap — the aligned-text / CSV emitter surface (util::Table).
[[nodiscard]] util::Table competitive_table(const CompetitiveReport& report);
void write_competitive_csv(std::ostream& os, const CompetitiveReport& report);
// The full report (config, aggregates, counters, checkpoint array) as one
// JSON document at round-trip precision.
void write_competitive_json(std::ostream& os, const CompetitiveReport& report);

}  // namespace vdist::engine
