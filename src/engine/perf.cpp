#include "engine/perf.h"

#include <algorithm>
#include <ostream>
#include <stdexcept>
#include <thread>

#include "core/select.h"
#include "engine/registry.h"
#include "util/json.h"

namespace vdist::engine {

namespace {

PerfCaseSpec make_case(const std::string& scenario, std::int64_t streams,
                       std::int64_t users, const std::string& algorithm) {
  PerfCaseSpec spec;
  spec.scenario.name = scenario;
  spec.scenario.params.set("streams", static_cast<int>(streams));
  spec.scenario.params.set("users", static_cast<int>(users));
  spec.algorithm = algorithm;
  spec.label = scenario + "-" + std::to_string(streams) + "/" + algorithm;
  return spec;
}

PerfMeasurement measure(const model::Instance& inst,
                        const PerfCaseSpec& spec,
                        core::SelectStrategy strategy, int repetitions,
                        std::uint64_t seed, core::SolveWorkspace& ws) {
  SolveRequest req;
  req.instance = &inst;
  req.algorithm = spec.algorithm;
  req.options = spec.options;
  req.options.set("select", core::to_string(strategy));
  req.seed = seed;
  req.validate = false;  // time the solve, not the O(n) validation
  req.workspace = &ws;

  PerfMeasurement out;
  for (int rep = 0; rep < repetitions; ++rep) {
    const SolveResult r = engine::solve(req);
    if (!r.ok) {
      out.ok = false;
      out.error = r.error;
      return out;
    }
    if (rep == 0 || r.wall_ms < out.wall_ms) out.wall_ms = r.wall_ms;
    out.objective = r.objective;
    out.picks = r.stat("select_picks");
    out.evals = r.stat("select_evals");
    out.pairs_touched = r.stat("select_pairs_touched");
    out.rows_walked = r.stat("select_rows_walked");
    out.heap_sifts = r.stat("select_heap_sifts");
    out.frames_reused = r.stat("frames_reused");
    out.completions_replayed = r.stat("completions_replayed");
    // Serve cases: throughput over the event-apply time alone (the
    // repair_wall_ms stat excludes instance generation and the opening
    // solve). Best repetition, consistent with the minimum wall.
    const double events = r.stat("events");
    const double repair_s = r.stat("repair_wall_ms") / 1000.0;
    if (events > 0.0 && repair_s > 0.0)
      out.events_per_sec = std::max(out.events_per_sec, events / repair_s);
    out.ok = true;
  }
  return out;
}

using util::json_number;
using util::json_string;

void json_measurement(std::ostream& os, const PerfMeasurement& m) {
  os << "{\"ok\":" << (m.ok ? "true" : "false") << ",\"error\":";
  json_string(os, m.error);
  os << ",\"wall_ms\":";
  json_number(os, m.wall_ms);
  os << ",\"objective\":";
  json_number(os, m.objective);
  os << ",\"picks\":";
  json_number(os, m.picks);
  os << ",\"evals\":";
  json_number(os, m.evals);
  os << ",\"pairs_touched\":";
  json_number(os, m.pairs_touched);
  os << ",\"rows_walked\":";
  json_number(os, m.rows_walked);
  os << ",\"heap_sifts\":";
  json_number(os, m.heap_sifts);
  os << ",\"frames_reused\":";
  json_number(os, m.frames_reused);
  os << ",\"completions_replayed\":";
  json_number(os, m.completions_replayed);
  os << ",\"events_per_sec\":";
  json_number(os, m.events_per_sec);
  os << '}';
}

double ratio_of(double naive_wall, double fast_wall) {
  if (fast_wall > 0.0) return naive_wall / fast_wall;
  return naive_wall > 0.0 ? util::kInf : 1.0;
}

}  // namespace

PerfProvenance collect_provenance() {
  PerfProvenance p;
#ifdef VDIST_GIT_SHA
  p.git_sha = VDIST_GIT_SHA;
#else
  p.git_sha = "unknown";
#endif
#if defined(__clang__)
  p.compiler = "clang " __clang_version__;
#elif defined(__GNUC__)
  p.compiler = "gcc " __VERSION__;
#else
  p.compiler = "unknown";
#endif
#ifdef VDIST_BUILD_FLAGS
  p.flags = VDIST_BUILD_FLAGS;
#endif
#ifdef VDIST_BUILD_TYPE
  p.build_type = VDIST_BUILD_TYPE;
#endif
  p.hardware_concurrency = std::thread::hardware_concurrency();
  return p;
}

const PerfCase* PerfReport::largest() const {
  const PerfCase* best = nullptr;
  for (const PerfCase& c : cases) {
    if (best == nullptr || c.streams > best->streams ||
        (c.streams == best->streams && c.edges > best->edges))
      best = &c;
  }
  return best;
}

std::string PerfReport::first_error() const {
  for (const PerfCase& c : cases) {
    if (!c.delta.error.empty()) return c.label + ": " + c.delta.error;
    if (!c.naive.error.empty()) return c.label + ": " + c.naive.error;
  }
  return {};
}

std::vector<PerfCaseSpec> default_perf_suite(bool smoke) {
  std::vector<PerfCaseSpec> suite;
  if (smoke) {
    // Tiny shapes, same coverage: the argmax-heavy plain greedy at two
    // sizes, the fixed greedy, the band-view solver, one checkpointed
    // enum completion at each depth.
    suite.push_back(make_case("cap", 200, 50, "greedy-plain"));
    suite.push_back(make_case("cap", 800, 200, "greedy-plain"));
    suite.push_back(make_case("cap", 800, 200, "greedy"));
    suite.push_back(make_case("smd", 400, 80, "bands"));
    suite.back().scenario.params.set("skew", 8);
    suite.push_back(make_case("cap", 120, 30, "enum"));
    suite.back().options.set("depth", 1);
    suite.push_back(make_case("cap", 40, 10, "enum"));
    suite.back().options.set("depth", 2);
    suite.back().label = "cap-40/enum-d2";
    suite.push_back(make_case("cap", 60, 20, "serve"));
    suite.back().options.set("policy", "repair").set("events", 300);
    suite.back().label = "serve-300/repair";
    suite.push_back(make_case("cap", 60, 20, "serve"));
    suite.back().options.set("policy", "resolve").set("events", 300);
    suite.back().label = "serve-300/resolve";
    suite.push_back(make_case("cap", 60, 20, "serve"));
    suite.back().options.set("policy", "repair").set("events", 300).set(
        "family", "flash-crowd");
    suite.back().label = "serve-flash-crowd/repair";
    return suite;
  }
  // Full suite: the plain greedy scaling to |S| = 8000 (the naive scan is
  // O(|S|^2) here, the headline delta-vs-naive gap), the Theorem 2.8
  // greedy at the top size, the Section-3 band-view solver on a skewed
  // SMD workload at |S| = 5000, and the checkpointed §2.3 enumeration at
  // depth 1 (|S| restored completions) and depth 2 (O(|S|^2) completions
  // sharing first-seed frames).
  suite.push_back(make_case("cap", 1000, 250, "greedy-plain"));
  suite.push_back(make_case("cap", 3000, 750, "greedy-plain"));
  suite.push_back(make_case("cap", 8000, 2000, "greedy-plain"));
  suite.push_back(make_case("cap", 8000, 2000, "greedy"));
  suite.push_back(make_case("smd", 1500, 300, "bands"));
  suite.back().scenario.params.set("skew", 8);
  suite.push_back(make_case("smd", 5000, 1000, "bands"));
  suite.back().scenario.params.set("skew", 8);
  suite.push_back(make_case("cap", 400, 100, "enum"));
  suite.back().options.set("depth", 1);
  suite.push_back(make_case("cap", 120, 30, "enum"));
  suite.back().options.set("depth", 2);
  suite.back().label = "cap-120/enum-d2";
  // The serving session on a 10k-event churn trace: incremental repair
  // vs per-event from-scratch re-solves over the same events. The two
  // labels share the instance and trace, so their delta wall ratio IS
  // the session's repair speedup (BENCH commits it); the per-case
  // objective cross-check still runs across the kernel strategies.
  suite.push_back(make_case("cap", 400, 100, "serve"));
  suite.back().options.set("policy", "repair").set("events", 10000);
  suite.back().label = "serve-10k/repair";
  suite.push_back(make_case("cap", 400, 100, "serve"));
  suite.back().options.set("policy", "resolve").set("events", 10000);
  suite.back().label = "serve-10k/resolve";
  // The flash-crowd adversary at the same serving scale: correlated join
  // bursts on one hot stream stress the repair path's completion replay
  // where uniform churn mostly exercises single-user refreshes. The
  // case's events_per_sec is the adversarial-throughput number BENCH
  // commits next to the uniform-churn one.
  suite.push_back(make_case("cap", 400, 100, "serve"));
  suite.back().options.set("policy", "repair").set("events", 10000).set(
      "family", "flash-crowd");
  suite.back().label = "serve-flash-crowd/repair";
  // The session at serving scale: one ~1M-user cap world churned by ~160
  // events under the repair policy. Its events_per_sec is the
  // trajectory's large-world throughput number.
  suite.push_back(make_case("cap", 2000, 1000000, "serve"));
  suite.back().scenario.params.set("interest", 2000);
  suite.back().options.set("policy", "repair").set("events", 160);
  suite.back().label = "serve-1M/repair";
  return suite;
}

PerfReport run_perf(const PerfOptions& opts) {
  PerfReport report;
  report.smoke = opts.smoke;
  report.repetitions =
      opts.repetitions > 0 ? opts.repetitions : (opts.smoke ? 2 : 3);
  report.provenance = collect_provenance();
  // opts.seed re-seeds the built-in suite; explicit case lists carry
  // their own scenario seeds verbatim (no sentinel value is reserved).
  const bool builtin = opts.cases.empty();
  const std::vector<PerfCaseSpec> suite =
      builtin ? default_perf_suite(opts.smoke) : opts.cases;

  core::SolveWorkspace ws;
  for (const PerfCaseSpec& suite_spec : suite) {
    PerfCaseSpec spec = suite_spec;
    // --threads: the enumeration solver's parallel DFS. Results are
    // bit-identical at any thread count, so the measurement is still
    // comparable; the per-case `threads` field records the divergence
    // from a single-threaded baseline.
    if (opts.threads > 1 && spec.algorithm == "enum")
      spec.options.set("threads", opts.threads);
    ScenarioSpec scenario = spec.scenario;
    if (builtin) scenario.seed = opts.seed;
    const std::string label = spec.label.empty()
                                  ? scenario.name + "/" + spec.algorithm
                                  : spec.label;
    // Label filter: resolved before the instance is built, so a filtered
    // run skips the excluded cases' generation cost too.
    if (!opts.filter.empty() && label.find(opts.filter) == std::string::npos)
      continue;
    const model::Instance inst = build_scenario(scenario);

    PerfCase result;
    result.label = label;
    result.scenario = scenario.name;
    result.algorithm = spec.algorithm;
    result.streams = inst.num_streams();
    result.users = inst.num_users();
    result.edges = inst.num_edges();
    result.threads =
        static_cast<unsigned>(spec.options.get_int("threads", 1));
    result.delta = measure(inst, spec, core::SelectStrategy::kDelta,
                           report.repetitions, opts.seed, ws);
    result.naive = measure(inst, spec, core::SelectStrategy::kNaiveScan,
                           report.repetitions, opts.seed, ws);
    if (result.ok()) {
      result.speedup = ratio_of(result.naive.wall_ms, result.delta.wall_ms);
      // The strategies are pick-for-pick equivalent, so the objectives
      // must be bit-identical — any drift is a kernel bug.
      result.objective_match =
          result.delta.objective == result.naive.objective;
    }
    report.cases.push_back(std::move(result));
  }
  return report;
}

util::Table perf_table(const PerfReport& report) {
  util::Table table({"case", "streams", "edges", "thr", "delta_ms",
                     "naive_ms", "speedup", "delta_evals", "objective",
                     "match"});
  for (const PerfCase& c : report.cases) {
    table.row()
        .add(c.label)
        .add(c.streams)
        .add(c.edges)
        .add(static_cast<std::size_t>(c.threads))
        .add(c.delta.wall_ms, 3)
        .add(c.naive.wall_ms, 3)
        .add(c.speedup, 2)
        .add(c.delta.evals, 0)
        .add(c.delta.objective, 4)
        .add(std::string(c.ok() ? (c.objective_match ? "yes" : "NO")
                                : "ERROR"));
  }
  return table;
}

void write_perf_json(std::ostream& os, const PerfReport& report) {
  os << "{\"bench\":\"perf\",\"smoke\":" << (report.smoke ? "true" : "false")
     << ",\"repetitions\":" << report.repetitions << ",\"provenance\":{";
  os << "\"git_sha\":";
  json_string(os, report.provenance.git_sha);
  os << ",\"compiler\":";
  json_string(os, report.provenance.compiler);
  os << ",\"flags\":";
  json_string(os, report.provenance.flags);
  os << ",\"build_type\":";
  json_string(os, report.provenance.build_type);
  os << ",\"hardware_concurrency\":" << report.provenance.hardware_concurrency
     << "},\"cases\":[";
  bool first = true;
  for (const PerfCase& c : report.cases) {
    if (!first) os << ',';
    first = false;
    os << "{\"label\":";
    json_string(os, c.label);
    os << ",\"scenario\":";
    json_string(os, c.scenario);
    os << ",\"algorithm\":";
    json_string(os, c.algorithm);
    os << ",\"streams\":" << c.streams << ",\"users\":" << c.users
       << ",\"edges\":" << c.edges << ",\"threads\":" << c.threads
       << ",\"delta\":";
    json_measurement(os, c.delta);
    os << ",\"naive\":";
    json_measurement(os, c.naive);
    os << ",\"speedup\":";
    json_number(os, c.speedup);
    os << ",\"objective_match\":" << (c.objective_match ? "true" : "false")
       << '}';
  }
  os << "],\"largest\":";
  const PerfCase* largest = report.largest();
  if (largest == nullptr) {
    os << "null";
  } else {
    os << "{\"label\":";
    json_string(os, largest->label);
    os << ",\"streams\":" << largest->streams << ",\"speedup\":";
    json_number(os, largest->speedup);
    os << ",\"objective_match\":"
       << (largest->objective_match ? "true" : "false") << '}';
  }
  os << "}\n";
}

const PerfBaselineEntry* PerfBaselineDiff::worst() const {
  const PerfBaselineEntry* out = nullptr;
  for (const PerfBaselineEntry& e : entries)
    if (out == nullptr || e.wall_ratio > out->wall_ratio) out = &e;
  return out;
}

bool PerfBaselineDiff::regressed(double max_regress, bool wall,
                                 bool evals) const {
  for (const PerfBaselineEntry& e : entries) {
    if (wall && e.wall_ratio > max_regress) return true;
    if (evals && e.evals_ratio > max_regress) return true;
  }
  return false;
}

PerfBaselineDiff diff_perf_baseline(const PerfReport& current,
                                    const util::JsonValue& baseline) {
  if (baseline.string_or("bench", "") != "perf")
    throw std::runtime_error(
        "baseline is not a BENCH perf document (missing \"bench\":\"perf\")");
  const util::JsonValue* cases = baseline.find("cases");
  if (cases == nullptr || !cases->is_array())
    throw std::runtime_error("baseline perf document has no cases array");

  PerfBaselineDiff diff;
  for (const PerfCase& cur : current.cases) {
    const util::JsonValue* match = nullptr;
    for (const util::JsonValue& cand : cases->array)
      if (cand.string_or("label", "") == cur.label) {
        match = &cand;
        break;
      }
    if (match == nullptr) {
      diff.only_current.push_back(cur.label);
      continue;
    }
    const util::JsonValue* base = match->find("delta");
    if (base == nullptr || !base->bool_or("ok", false) || !cur.delta.ok)
      continue;  // nothing comparable on one side

    PerfBaselineEntry entry;
    entry.label = cur.label;
    entry.baseline_wall_ms = base->number_or("wall_ms", 0.0);
    entry.current_wall_ms = cur.delta.wall_ms;
    entry.wall_ratio = entry.baseline_wall_ms > 0.0
                           ? entry.current_wall_ms / entry.baseline_wall_ms
                           : (entry.current_wall_ms > 0.0 ? util::kInf : 1.0);
    entry.baseline_evals = base->number_or("evals", 0.0);
    entry.current_evals = cur.delta.evals;
    entry.evals_ratio = entry.baseline_evals > 0.0
                            ? entry.current_evals / entry.baseline_evals
                            : (entry.current_evals > 0.0 ? util::kInf : 1.0);
    // Phase counters: -1 marks a baseline document predating the
    // counters (pre-PR-8 schema) so the table can print "-" instead of
    // a misleading 0.
    entry.baseline_pairs_touched = base->number_or("pairs_touched", -1.0);
    entry.current_pairs_touched = cur.delta.pairs_touched;
    entry.baseline_rows_walked = base->number_or("rows_walked", -1.0);
    entry.current_rows_walked = cur.delta.rows_walked;
    entry.baseline_heap_sifts = base->number_or("heap_sifts", -1.0);
    entry.current_heap_sifts = cur.delta.heap_sifts;
    diff.entries.push_back(std::move(entry));
  }
  for (const util::JsonValue& cand : cases->array) {
    const std::string label = cand.string_or("label", "");
    const bool present = std::any_of(
        current.cases.begin(), current.cases.end(),
        [&](const PerfCase& c) { return c.label == label; });
    if (!present) diff.only_baseline.push_back(label);
  }
  return diff;
}

namespace {

// "base->now" for one phase counter; "-" on the baseline side when the
// baseline document predates the counters (marked -1 by the differ).
std::string counter_cell(double base, double now) {
  const std::string cur = std::to_string(static_cast<long long>(now));
  if (base < 0.0) return "-/" + cur;
  return std::to_string(static_cast<long long>(base)) + "/" + cur;
}

}  // namespace

util::Table baseline_table(const PerfBaselineDiff& diff) {
  util::Table table({"case", "base_ms", "now_ms", "wall_ratio",
                     "base_evals", "now_evals", "evals_ratio", "pairs(b/n)",
                     "rows(b/n)", "sifts(b/n)"});
  for (const PerfBaselineEntry& e : diff.entries) {
    table.row()
        .add(e.label)
        .add(e.baseline_wall_ms, 3)
        .add(e.current_wall_ms, 3)
        .add(e.wall_ratio, 3)
        .add(e.baseline_evals, 0)
        .add(e.current_evals, 0)
        .add(e.evals_ratio, 3)
        .add(counter_cell(e.baseline_pairs_touched, e.current_pairs_touched))
        .add(counter_cell(e.baseline_rows_walked, e.current_rows_walked))
        .add(counter_cell(e.baseline_heap_sifts, e.current_heap_sifts));
  }
  return table;
}

}  // namespace vdist::engine
