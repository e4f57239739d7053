// The perf subsystem: a registered-scenario benchmark suite comparing the
// selection-kernel strategies (core/select.h) at scaling instance sizes,
// recorded as a machine-readable BENCH JSON so the repository keeps a
// performance trajectory between PRs.
//
// Each case is a (scenario spec, algorithm, options) triple built through
// the ScenarioRegistry; run_perf() solves it once per strategy
// (select=delta / naive) on one reusable SolveWorkspace, repeats
// `repetitions` times keeping the *minimum* wall time (robust against
// scheduler noise), and cross-checks that both strategies produced the
// identical objective — they are pick-for-pick equivalent by
// construction, so any mismatch is a kernel bug, not noise. Every
// repetition is a cold solve: engine::solve() drops the workspace's
// greedy row cache (SolveWorkspace::invalidate_rows) before each
// request, so from the second repetition on, rows sorted by the first
// do not show up as a speedup no cold solve gets.
//
// Driver: `vdist_cli perf [--smoke] [--baseline FILE]` runs the suite,
// prints the table, writes BENCH_perf.json, can enforce a minimum
// delta-vs-naive speedup on the largest case, and can diff the run
// against a committed BENCH JSON (exit 3 past --max-regress).
//
// BENCH_perf.json schema (one object):
//   {
//     "bench": "perf", "smoke": bool, "repetitions": N,
//     "provenance": {"git_sha": str, "compiler": str, "flags": str,
//                    "build_type": str, "hardware_concurrency": N},
//     "cases": [{
//       "label": str, "scenario": str, "algorithm": str,
//       "streams": N, "users": N, "edges": N,
//       "threads": N,        // worker threads the case runs on: the
//                            // enum cases' DFS threads (--threads);
//                            // 1 for every other case. Recorded per
//                            // case so a wall-ms delta against a
//                            // baseline entry with a different thread
//                            // count is visibly not a like-for-like
//                            // comparison.
//       "delta": {"wall_ms": x, "objective": x, "picks": n, "evals": n,
//                 "pairs_touched": n,  // w-bar propagation deltas applied
//                 "rows_walked": n,    // user adjacency rows entered
//                 "heap_sifts": n,     // selection-tree leaf-to-root passes
//                 "frames_reused": n,  // enum cases: leaves scored off a
//                                      // recorded parent frame + trace
//                 "completions_replayed": n,  // ... of those, scored
//                                      // entirely in replay space (no
//                                      // engine completion); 0 elsewhere
//                 "events_per_sec": x},  // serve cases: events stat /
//                                        // event-apply seconds
//                                        // (repair_wall_ms); 0 elsewhere
//       "naive": {...},
//       "speedup": x,        // naive.wall_ms / delta.wall_ms
//       "objective_match": bool  // exact equality across both strategies
//     }, ...],
//     "largest": {"label": str, "streams": N, "speedup": x,
//                 "objective_match": bool}   // case with most streams
//   }
// Pre-PR-6 documents lack "threads"/"events_per_sec"; pre-PR-8 documents
// lack the phase counters ("pairs_touched"/"rows_walked"/"heap_sifts");
// pre-PR-9 documents lack the replay counters ("frames_reused"/
// "completions_replayed", informational, never gated). The baseline
// differ compares the "delta" entries only, never gates on throughput
// (reported, not diffed), and prints "-" for phase counters a baseline
// does not carry; phase counters are shown to make regressions
// attributable but never gate.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "engine/scenario.h"
#include "util/json.h"
#include "util/table.h"

namespace vdist::engine {

// One suite entry: which workload, which algorithm, which fixed options
// (the `select` key is owned by the runner and must be left unset).
struct PerfCaseSpec {
  ScenarioSpec scenario;
  std::string algorithm;
  SolveOptions options;
  std::string label;  // defaults to "<scenario>-<streams>/<algorithm>"
};

struct PerfOptions {
  // Smoke mode: tiny sizes that exercise every code path in seconds (the
  // CI perf-smoke job and the bench-smoke target run this).
  bool smoke = false;
  // Wall-time repetitions per (case, strategy); 0 = 3 full / 2 smoke.
  int repetitions = 0;
  // Scenario seed for the built-in suite (and the request seed for every
  // solve); explicit `cases` keep their own scenario seeds.
  std::uint64_t seed = 1;
  // Case-label substring filter; empty runs everything. `vdist_cli perf
  // --filter enum` reruns just the enumeration cases while iterating.
  std::string filter;
  // Worker threads for the enumeration cases (`vdist_cli perf --threads
  // N` -> the enum solver's "threads" option). Recorded in each affected
  // case's `threads` field; results are bit-identical at any value, so
  // only the wall changes.
  int threads = 1;
  // Empty = default_perf_suite(smoke).
  std::vector<PerfCaseSpec> cases;
};

// One strategy's measurement of one case.
struct PerfMeasurement {
  bool ok = false;
  std::string error;
  double wall_ms = 0.0;  // minimum over the repetitions
  double objective = 0.0;
  double picks = 0.0;  // selection-kernel pop_best() count
  double evals = 0.0;  // effectiveness (re-)evaluations
  // Per-phase hot-path counters (SelectStats): w-bar deltas applied,
  // user adjacency rows entered, and selection-tree leaf-to-root
  // passes (the field keeps its old name). Deterministic
  // like evals, so a wall regression can be attributed to a phase.
  double pairs_touched = 0.0;
  double rows_walked = 0.0;
  double heap_sifts = 0.0;
  // Enumeration cases: shared-prefix replay counters (core/replay.h) —
  // leaves that pulled a recorded parent frame, and those scored without
  // any engine completion. 0 for the other algorithms.
  double frames_reused = 0.0;
  double completions_replayed = 0.0;
  // Serve cases: events applied per second of event-apply wall time
  // (the "events" stat over "repair_wall_ms"; best repetition). 0 for
  // algorithms without an event loop.
  double events_per_sec = 0.0;
};

struct PerfCase {
  std::string label;
  std::string scenario;
  std::string algorithm;
  std::size_t streams = 0;
  std::size_t users = 0;
  std::size_t edges = 0;
  // Worker threads the case solves on (the enum cases' `threads`
  // option; 1 everywhere else). Bugfix: earlier BENCH documents never
  // recorded this, leaving multi-threaded and single-threaded walls
  // indistinguishable in the trajectory.
  unsigned threads = 1;
  PerfMeasurement delta;
  PerfMeasurement naive;
  double speedup = 0.0;  // naive.wall_ms / delta.wall_ms (0 if !ok)
  bool objective_match = false;

  [[nodiscard]] bool ok() const { return delta.ok && naive.ok; }
};

// Where this run came from: stamped into the BENCH JSON so entries are
// comparable across the trajectory (a wall-ms delta from a different
// compiler or machine is a different conversation than one from a code
// change).
struct PerfProvenance {
  std::string git_sha;     // configure-time HEAD ("unknown" outside git)
  std::string compiler;    // from the compiler's own version macros
  std::string flags;       // CMAKE_CXX_FLAGS + per-config flags
  std::string build_type;  // CMAKE_BUILD_TYPE
  unsigned hardware_concurrency = 0;
};
[[nodiscard]] PerfProvenance collect_provenance();

struct PerfReport {
  bool smoke = false;
  int repetitions = 0;
  PerfProvenance provenance;
  std::vector<PerfCase> cases;

  // The case with the most streams (ties: most edges); nullptr when the
  // suite is empty. The CI speedup gate applies to this case.
  [[nodiscard]] const PerfCase* largest() const;
  // First per-case error across the suite; empty when every run worked.
  [[nodiscard]] std::string first_error() const;
};

// The built-in scaling suite over registered scenarios. Full mode tops
// out at a |S| >= 5000 SMD workload (the trajectory's headline number);
// smoke mode shrinks every size but keeps the shape. Includes the
// checkpointed-enumeration cases (depth 1 and 2) and the band-view case.
[[nodiscard]] std::vector<PerfCaseSpec> default_perf_suite(bool smoke);

// Runs the suite. Throws std::invalid_argument on bad specs (unknown
// scenario/algorithm names); per-run solver errors are recorded in the
// measurements instead.
[[nodiscard]] PerfReport run_perf(const PerfOptions& opts = {});

// One row per case: sizes, per-strategy wall/evals, speedup, match.
[[nodiscard]] util::Table perf_table(const PerfReport& report);

// The BENCH_perf.json document described above.
void write_perf_json(std::ostream& os, const PerfReport& report);

// --- Baseline regression diff (`vdist_cli perf --baseline FILE`) -------

// One label present in both the current report and the baseline JSON.
struct PerfBaselineEntry {
  std::string label;
  double baseline_wall_ms = 0.0;
  double current_wall_ms = 0.0;
  double wall_ratio = 0.0;  // current / baseline (> 1 = regression)
  double baseline_evals = 0.0;
  double current_evals = 0.0;
  double evals_ratio = 0.0;  // current / baseline (machine-independent)
  // Phase counters on both sides. Baselines predating the counters
  // (pre-PR-8 schema) report -1 on the baseline side; the table prints
  // "-" there. Informational only — regressed() never gates on these.
  double baseline_pairs_touched = -1.0;
  double current_pairs_touched = 0.0;
  double baseline_rows_walked = -1.0;
  double current_rows_walked = 0.0;
  double baseline_heap_sifts = -1.0;
  double current_heap_sifts = 0.0;
};

struct PerfBaselineDiff {
  std::vector<PerfBaselineEntry> entries;
  std::vector<std::string> only_current;   // new cases, not gated
  std::vector<std::string> only_baseline;  // retired cases, not gated
  // The entry with the worst (largest) wall ratio; nullptr when empty.
  [[nodiscard]] const PerfBaselineEntry* worst() const;
  // True when any entry's gated ratio exceeds `max_regress`. `wall` and
  // `evals` select which ratios participate: evals are deterministic and
  // machine-independent (the right CI gate against a baseline produced
  // elsewhere); wall ratios compare wall clocks and only make sense on
  // comparable hardware.
  [[nodiscard]] bool regressed(double max_regress, bool wall = true,
                               bool evals = true) const;
};

// Matches current cases against a parsed BENCH JSON by label, comparing
// the "delta" measurements; a label whose delta entry is missing or not
// ok on either side is skipped. Throws std::runtime_error when
// `baseline` is not a perf document.
[[nodiscard]] PerfBaselineDiff diff_perf_baseline(
    const PerfReport& current, const util::JsonValue& baseline);

// One row per matched label: walls, wall ratio, evals ratio.
[[nodiscard]] util::Table baseline_table(const PerfBaselineDiff& diff);

}  // namespace vdist::engine
