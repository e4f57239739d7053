#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <exception>
#include <limits>
#include <memory>
#include <span>
#include <stdexcept>
#include <string_view>

#include "engine/repair_core.h"
#include "engine/solver.h"
#include "io/event_io.h"
#include "io/instance_io.h"
#include "model/overlay.h"
#include "model/validate.h"
#include "util/stats.h"
#include "util/stopwatch.h"
#include "workload/workload.h"

namespace wallbench {

namespace engine = vdist::engine;
namespace model = vdist::model;
namespace core = vdist::core;
namespace util = vdist::util;

namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},          {"run_s", "s"},
    {"event_p50_us", "us"},    {"event_p99_us", "us"},
    {"events_per_s", "1/s"},   {"checkpoint_p50_ms", "ms"},
    {"quality_ratio", "ratio"}, {"peak_rss_mb", "MB"},
};

constexpr MetricSpec kPerLayer[] = {
    {"io.load_instance_ms", "ms"},
    {"io.load_events_ms", "ms"},
    {"engine.open_ms", "ms"},
    {"engine.repair.winner_us_p50", "us"},
    {"engine.repair.winner_ms_sum", "ms"},
    {"engine.repair.post_event_us_p50", "us"},
    {"engine.repair.post_event_us_p99", "us"},
    {"engine.repair.post_event_ms_sum", "ms"},
    {"model.overlay_apply_us_p50", "us"},
    {"model.overlay_apply_ms_sum", "ms"},
    {"engine.repair.pre_event_us_p50", "us"},
    {"engine.repair.drift_check_ms_p50", "ms"},
    {"engine.repair.drift_check_ms_sum", "ms"},
    {"engine.drift_checks", "count"},
    {"engine.repair.resolve_ms_sum", "ms"},
    {"engine.full_resolves", "count"},
    {"engine.apply_local_us_p50", "us"},
    {"engine.apply_checked_ms_p50", "ms"},
    {"engine.users_refreshed", "count"},
    {"engine.streams_released", "count"},
    {"engine.streams_added", "count"},
    {"core.select.picks", "count"},
    {"core.select.evals", "count"},
    {"core.select.pairs_touched", "count"},
    {"core.select.rows_walked", "count"},
    {"core.select.heap_sifts", "count"},
    {"core.select.useful_ratio", "ratio"},
    {"engine.snapshot_ms", "ms"},
    {"engine.check_parity_ms", "ms"},
    {"core.enum_ms_p50", "ms"},
    {"core.enum_ms_sum", "ms"},
    {"core.enum.evals", "count"},
    {"core.enum.frames_reused", "count"},
    {"core.enum.completions_replayed", "count"},
    {"core.online.accepts", "count"},
    {"core.online.rejects", "count"},
    {"trace.overhead_frac", "ratio"},
    {"trace.mirror_mismatches", "count"},
};

using Clock = std::chrono::steady_clock;

// The offline reference's seed depth. The enum solver's default, 3, takes
// minutes per checkpoint at compete-enum's size.
constexpr int kEnumDepth = 2;

double micros(Clock::duration d) {
  return std::chrono::duration<double, std::micro>(d).count();
}

double median(std::vector<double> xs) {
  return util::percentile(std::move(xs), 50.0);
}

// online / offline, with competitive.cpp's convention for empty worlds.
double ratio_of(double online, double offline) {
  if (offline > 0.0) return online / offline;
  return online <= 0.0 ? 1.0 : std::numeric_limits<double>::infinity();
}

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

void fail(PassResult& r, std::string what) {
  ++r.failed;
  r.failures.push_back(std::move(what));
}

engine::WorldRef world_of(const model::InstanceOverlay& overlay) {
  return engine::WorldRef{&overlay.instance(), overlay.edge_utilities(),
                          overlay.total_utilities(), overlay.capacities(),
                          overlay.stream_alive_flags()};
}

// Replays the accepted events through an overlay + RepairCore driven the
// way Session::repair_apply drives them, with a span per layer call, and
// compares every objective with the backend's.
void mirror_replay(const engine::ServeConfig& cfg,
                   const model::Instance& parent,
                   const std::vector<model::InstanceEvent>& events,
                   PassResult& r, Tracer* tr) {
  model::InstanceOverlay overlay(parent);
  core::SolveWorkspace workspace;
  core::SelectStats select;
  engine::RepairCore repair;
  const engine::RepairCore::Context ctx{&workspace, cfg.strategy, cfg.mode};
  const char* variant = "";
  double objective = 0.0;
  {
    SpanScope span(tr, "engine.repair.resolve");
    repair.resolve(world_of(overlay), ctx, select);
    objective = repair.winner_objective(world_of(overlay), cfg.mode, &variant);
  }
  if (!same_bits(objective, r.open_objective)) ++r.mirror_mismatches;

  std::size_t accepted = 0;
  for (std::size_t i = 0; i < events.size(); ++i) {
    if (r.rejected[i]) continue;
    ++accepted;
    const model::InstanceEvent& event = events[i];
    const auto event_id = static_cast<std::int64_t>(i);
    const auto start = Clock::now();
    {
      SpanScope step(tr, "mirror.step", event_id);
      engine::RepairCore::PreEvent pre;
      {
        SpanScope span(tr, "engine.repair.pre_event", event_id);
        pre = repair.pre_event(world_of(overlay), event);
      }
      {
        SpanScope span(tr, "model.overlay_apply", event_id);
        overlay.apply(event);
      }
      {
        SpanScope span(tr, "engine.repair.post_event", event_id);
        engine::RepairStats stats;
        repair.post_event(world_of(overlay), event, pre, ctx, select, stats);
      }
      {
        SpanScope span(tr, "engine.repair.winner", event_id);
        objective =
            repair.winner_objective(world_of(overlay), cfg.mode, &variant);
      }
      if (cfg.refresh > 0 &&
          accepted % static_cast<std::size_t>(cfg.refresh) == 0) {
        double fresh = 0.0;
        {
          SpanScope span(tr, "engine.repair.drift_check", event_id);
          fresh = engine::fresh_winner_objective(world_of(overlay), ctx,
                                                 select);
        }
        if ((fresh - objective) / std::max(fresh, 1.0) > cfg.bound) {
          SpanScope span(tr, "engine.repair.resolve", event_id);
          repair.resolve(world_of(overlay), ctx, select);
          objective =
              repair.winner_objective(world_of(overlay), cfg.mode, &variant);
        }
      }
    }
    r.mirror_s +=
        std::chrono::duration<double>(Clock::now() - start).count();
    if (!same_bits(objective, r.objective[i])) ++r.mirror_mismatches;
  }
  ++r.attempted;
  if (r.mirror_mismatches > 0)
    fail(r, "mirror: " + std::to_string(r.mirror_mismatches) +
                " objectives differ from the backend's");
}

// Durations of every span with this name, in units of ns_per_unit
// nanoseconds (1e3: us, 1e6: ms, 1e9: s).
std::vector<double> span_durations(const Tracer& tr, const char* name,
                                   double ns_per_unit) {
  std::vector<double> out;
  for (const Span& s : tr.spans())
    if (std::string_view(s.name) == name)
      out.push_back(static_cast<double>(s.end_ns - s.start_ns) / ns_per_unit);
  return out;
}

double sum(const std::vector<double>& xs) {
  double total = 0.0;
  for (const double x : xs) total += x;
  return total;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::vector<Metric> emit(std::span<const MetricSpec> specs,
                         const std::map<std::string, double>& values) {
  std::vector<Metric> out;
  for (const MetricSpec& spec : specs)
    out.push_back({spec.name, spec.unit, values.at(spec.name)});
  return out;
}

std::vector<Metric> declared(std::span<const MetricSpec> specs) {
  std::vector<Metric> out;
  for (const MetricSpec& spec : specs) out.push_back({spec.name, spec.unit});
  return out;
}

// Setup only (the extra samples of setup_s); returns its wall and the
// opening objective.
std::pair<double, double> run_setup(const Workload& w, const Inputs& in) {
  util::Stopwatch watch;
  const model::Instance inst = vdist::io::load_instance_file(in.instance);
  const std::vector<model::InstanceEvent> events =
      vdist::io::load_events_file(in.events);
  const auto backend = engine::make_backend(inst, w.serve);
  return {watch.elapsed_s(), backend->objective()};
}

void absorb(RunResult& run, const PassResult& p) {
  run.attempted += p.attempted;
  run.failed += p.failed;
  run.failures.insert(run.failures.end(), p.failures.begin(),
                      p.failures.end());
}

// Pass j ran world j % worlds; each must end on the same bits as that
// world's first pass.
void check_repeats(RunResult& run, std::span<const PassResult> first,
                   const std::vector<PassResult>& passes) {
  for (std::size_t j = 0; j < passes.size(); ++j) {
    const PassResult& ref = first[j % first.size()];
    ++run.attempted;
    if (!same_bits(passes[j].final_objective, ref.final_objective) ||
        !same_bits(passes[j].quality_ratio, ref.quality_ratio)) {
      ++run.failed;
      run.failures.push_back("repeat: final objective or quality_ratio "
                             "differs between passes of one world");
    }
  }
}

}  // namespace

std::vector<std::string> workload_names() {
  return {"serve-8k", "compete-enum"};
}

Workload find_workload(const std::string& name, bool smoke) {
  Workload w;
  w.name = name;
  w.scenario.name = "cap";
  const auto shape = [&](std::size_t streams, std::size_t users,
                         std::size_t events) {
    w.scenario.params.set("streams", static_cast<int>(streams));
    w.scenario.params.set("users", static_cast<int>(users));
    w.trace["events"] = std::to_string(events);
  };
  if (name == "serve-8k") {
    // Many streams, few users: per-event cost is the completion. A
    // world's replay and parity costs vary with its seed by up to ~15%;
    // four worlds per seed, each checked ten times, keep the medians
    // steady across seeds.
    smoke ? shape(160, 40, 256) : shape(8000, 2000, 10240);
    w.family = "churn";
    w.parity_every = smoke ? 64 : 1024;
    w.worlds = smoke ? 2 : 4;
  } else if (name == "compete-enum") {
    // The online policy against an offline enum reference. One small
    // world's ratio and enum cost vary widely with its seed; pooling
    // several worlds per seed keeps the figures steady across seeds. The
    // apply() calls after a mid-trace enum solve would run cold, at costs
    // that vary widely from run to run; solving at the trace end only
    // keeps them out of the event tail.
    smoke ? shape(24, 8, 120) : shape(200, 50, 400);
    w.family = "zipf-drift";
    w.serve.policy = engine::ServePolicy::kOnline;
    w.enum_at_end = true;
    w.worlds = smoke ? 2 : 60;
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  return w;
}

std::vector<Inputs> inputs_in(const Workload& w, const std::string& dir) {
  std::vector<Inputs> out;
  for (std::size_t k = 0; k < w.worlds; ++k)
    out.push_back({dir + "/instance-" + std::to_string(k) + ".vd",
                   dir + "/events-" + std::to_string(k) + ".ev"});
  return out;
}

void generate_inputs(const Workload& w, std::uint64_t seed,
                     const std::string& dir) {
  const std::vector<Inputs> files = inputs_in(w, dir);
  for (std::size_t k = 0; k < w.worlds; ++k) {
    const std::uint64_t world_seed = seed * w.worlds + k;
    engine::ScenarioSpec spec = w.scenario;
    spec.seed = world_seed;
    const model::Instance inst = engine::build_scenario(spec);
    std::map<std::string, std::string> overrides = w.trace;
    overrides["seed"] = std::to_string(world_seed);
    const std::vector<model::InstanceEvent> events =
        vdist::workload::WorkloadRegistry::global().generate(w.family, inst,
                                                             overrides);
    vdist::io::save_instance_file(files[k].instance, inst);
    vdist::io::save_events_file(files[k].events, events);
  }
}

PassResult run_pass(const Workload& w, const Inputs& in, Tracer* tr) {
  PassResult r;
  util::Stopwatch pass_watch;

  // --- Setup: the two loads and the opening solve.
  model::Instance inst = [&] {
    SpanScope span(tr, "io.load_instance");
    return vdist::io::load_instance_file(in.instance);
  }();
  std::vector<model::InstanceEvent> events;
  {
    SpanScope span(tr, "io.load_events");
    events = vdist::io::load_events_file(in.events);
  }
  std::unique_ptr<engine::ServingBackend> backend;
  {
    SpanScope span(tr, "engine.open");
    backend = engine::make_backend(inst, w.serve);
  }
  r.setup_s = pass_watch.elapsed_s();
  r.open_objective = backend->objective();
  const engine::SessionCounters opened = backend->counters();
  const core::SelectStats select0 = backend->select_stats();

  // check_parity(), timed as a checkpoint unless the enum solve is one.
  const auto parity_check = [&](std::int64_t event_id) {
    ++r.attempted;
    util::Stopwatch watch;
    engine::ParityReport parity;
    {
      SpanScope span(tr, "engine.check_parity", event_id);
      parity = backend->check_parity();
    }
    if (!w.enum_at_end) r.checkpoint_ms.push_back(watch.elapsed_ms());
    if (!parity.ok) fail(r, "check_parity: " + parity.detail);
    return parity;
  };

  // --- Replay.
  const std::size_t n = events.size();
  r.rejected.assign(n, 0);
  r.objective.assign(n, 0.0);
  r.apply_us.reserve(n);
  r.drift_checked.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const auto event_id = static_cast<std::int64_t>(i);
    ++r.attempted;
    engine::RepairStats stats;
    double wall_us = 0.0;
    try {
      // The span's own cost stays outside the timed bracket, so the
      // traced pass times apply() as the untraced one does.
      SpanScope span(tr, "engine.apply", event_id);
      const auto start = Clock::now();
      stats = backend->apply(events[i]);
      wall_us = micros(Clock::now() - start);
    } catch (const std::exception& e) {
      r.rejected[i] = 1;
      fail(r, "event " + std::to_string(i) + " rejected: " + e.what());
      continue;
    }
    r.apply_us.push_back(wall_us);
    r.drift_checked.push_back(stats.drift_checked ? 1 : 0);
    r.objective[i] = stats.objective;
    r.users_refreshed += static_cast<double>(stats.users_refreshed);
    r.streams_released += static_cast<double>(stats.streams_released);
    r.streams_added += static_cast<double>(stats.streams_added);
    if (w.parity_every > 0 && i + 1 < n &&
        r.apply_us.size() % w.parity_every == 0)
      parity_check(event_id);
  }

  // --- The offline reference at the trace end.
  if (w.enum_at_end) {
    const auto last = static_cast<std::int64_t>(n) - 1;
    util::Stopwatch watch;
    model::Instance snapshot = [&] {
      SpanScope span(tr, "engine.snapshot", last);
      return backend->snapshot();
    }();
    engine::SolveRequest req;
    req.instance = &snapshot;
    req.algorithm = "enum";
    req.options.set("depth", kEnumDepth)
        .set("threads", 1)
        .set("select", core::to_string(w.serve.strategy));
    engine::SolveResult res;
    {
      SpanScope span(tr, "core.enum", last);
      res = engine::solve(req);
    }
    r.checkpoint_ms.push_back(watch.elapsed_ms());
    ++r.attempted;
    if (res.ok) {
      r.quality_ratio = ratio_of(backend->objective(), res.objective);
      r.enum_evals = res.stat("select_evals");
      r.frames_reused = res.stat("frames_reused");
      r.completions_replayed = res.stat("completions_replayed");
    } else {
      fail(r, "offline enum solve: " + res.error);
    }
  }

  // --- Final checks: parity against a fresh solve, then feasibility of
  // the served assignment on the world as it is now (serve --check's rule).
  const engine::ParityReport parity = parity_check(-1);
  if (!w.enum_at_end)
    r.quality_ratio = ratio_of(backend->objective(), parity.fresh);
  ++r.attempted;
  {
    const model::Instance snapshot = [&] {
      SpanScope span(tr, "engine.snapshot");
      return backend->snapshot();
    }();
    SpanScope span(tr, "engine.feasibility");
    model::Assignment served(snapshot);
    const model::Assignment& a = backend->assignment();
    for (std::size_t u = 0; u < snapshot.num_users(); ++u)
      for (const model::StreamId s :
           a.streams_of(static_cast<model::UserId>(u)))
        served.assign(static_cast<model::UserId>(u), s);
    const model::ValidationReport report = model::validate(served);
    // The online policy never revokes, so a capacity drop may leave user
    // caps exceeded; only the server budget binds it.
    const bool ok = w.serve.policy == engine::ServePolicy::kOnline
                        ? report.server_feasible()
                        : report.feasible();
    if (!ok) fail(r, "the served assignment is infeasible on snapshot()");
  }
  if (!std::isfinite(r.quality_ratio)) {
    fail(r, "quality_ratio is not finite");
    r.quality_ratio = 0.0;
  }
  r.final_objective = backend->objective();
  r.run_s = pass_watch.elapsed_s();

  const engine::SessionCounters& c = backend->counters();
  r.full_resolves = static_cast<double>(c.full_resolves - opened.full_resolves);
  r.drift_checks = static_cast<double>(c.drift_checks - opened.drift_checks);
  r.online_accepts = static_cast<double>(c.online_accepts);
  r.online_rejects = static_cast<double>(c.online_rejects);
  const core::SelectStats& s = backend->select_stats();
  r.select.picks = s.picks - select0.picks;
  r.select.evaluations = s.evaluations - select0.evaluations;
  r.select.pairs_touched = s.pairs_touched - select0.pairs_touched;
  r.select.rows_walked = s.rows_walked - select0.rows_walked;
  r.select.heap_sifts = s.heap_sifts - select0.heap_sifts;

  if (tr != nullptr && w.serve.policy == engine::ServePolicy::kRepair) {
    backend.reset();
    mirror_replay(w.serve, inst, events, r, tr);
  }
  return r;
}

RunResult measure(const Workload& w, const std::vector<Inputs>& worlds,
                  double seconds, Tracer* tracer) {
  RunResult run;
  util::Stopwatch total;
  std::vector<PassResult> passes;
  double rss_mb = 0.0;
  do {
    for (const Inputs& in : worlds) passes.push_back(run_pass(w, in, tracer));
    if (rss_mb == 0.0) rss_mb = peak_rss_mb();  // before results pile up
  } while (total.elapsed_s() < seconds);

  for (const PassResult& p : passes) absorb(run, p);
  const std::span<const PassResult> first(passes.data(), worlds.size());
  check_repeats(run, first, passes);
  run.passes = passes.size();
  for (const PassResult& p : first) {
    run.final_objective += p.final_objective;
    run.quality_ratio += p.quality_ratio / static_cast<double>(first.size());
  }

  std::vector<double> apply_us;
  std::vector<double> local_us;
  std::vector<double> checked_ms;
  for (const PassResult& p : passes)
    for (std::size_t i = 0; i < p.apply_us.size(); ++i) {
      apply_us.push_back(p.apply_us[i]);
      if (p.drift_checked[i])
        checked_ms.push_back(p.apply_us[i] / 1e3);
      else
        local_us.push_back(p.apply_us[i]);
    }
  std::map<std::string, double> v;

  if (tracer == nullptr) {
    std::vector<double> setups;
    std::vector<double> runs;
    std::vector<double> checkpoints;
    for (const PassResult& p : passes) {
      setups.push_back(p.setup_s);
      runs.push_back(p.run_s);
      checkpoints.insert(checkpoints.end(), p.checkpoint_ms.begin(),
                         p.checkpoint_ms.end());
    }
    util::Stopwatch extra;
    for (std::size_t k = 0;
         setups.size() < 3 ||
         (setups.size() < 9 && extra.elapsed_s() < 0.1 * seconds);
         ++k) {
      const auto [setup_s, open_objective] =
          run_setup(w, worlds[k % worlds.size()]);
      setups.push_back(setup_s);
      ++run.attempted;
      if (!same_bits(open_objective, first[k % first.size()].open_objective)) {
        ++run.failed;
        run.failures.push_back("repeat: opening objective differs");
      }
    }
    v["setup_s"] = median(setups);
    v["run_s"] = median(runs);
    v["event_p50_us"] = util::percentile(apply_us, 50.0);
    v["event_p99_us"] = util::percentile(apply_us, 99.0);
    v["events_per_s"] =
        static_cast<double>(apply_us.size()) / (sum(apply_us) * 1e-6);
    v["checkpoint_p50_ms"] = median(checkpoints);
    v["quality_ratio"] = run.quality_ratio;
    v["peak_rss_mb"] = rss_mb;
    run.metrics = emit(kEndToEnd, v);
    return run;
  }

  const Tracer& tr = *tracer;
  const auto rounds = static_cast<double>(passes.size() / worlds.size());
  const auto p50 = [&](const char* name, double unit) {
    return median(span_durations(tr, name, unit));
  };
  const auto per_round_ms = [&](const char* name) {
    return sum(span_durations(tr, name, 1e6)) / rounds;
  };
  // Work counts of one round (every world once).
  PassResult t;
  for (std::size_t k = 0; k < worlds.size(); ++k) {
    const PassResult& p = passes[k];
    t.drift_checks += p.drift_checks;
    t.full_resolves += p.full_resolves;
    t.users_refreshed += p.users_refreshed;
    t.streams_released += p.streams_released;
    t.streams_added += p.streams_added;
    t.select.merge(p.select);
    t.enum_evals += p.enum_evals;
    t.frames_reused += p.frames_reused;
    t.completions_replayed += p.completions_replayed;
    t.online_accepts += p.online_accepts;
    t.online_rejects += p.online_rejects;
  }
  v["io.load_instance_ms"] = p50("io.load_instance", 1e6);
  v["io.load_events_ms"] = p50("io.load_events", 1e6);
  v["engine.open_ms"] = p50("engine.open", 1e6);
  v["engine.repair.winner_us_p50"] = p50("engine.repair.winner", 1e3);
  v["engine.repair.winner_ms_sum"] = per_round_ms("engine.repair.winner");
  v["engine.repair.post_event_us_p50"] = p50("engine.repair.post_event", 1e3);
  v["engine.repair.post_event_us_p99"] = util::percentile(
      span_durations(tr, "engine.repair.post_event", 1e3), 99.0);
  v["engine.repair.post_event_ms_sum"] =
      per_round_ms("engine.repair.post_event");
  v["model.overlay_apply_us_p50"] = p50("model.overlay_apply", 1e3);
  v["model.overlay_apply_ms_sum"] = per_round_ms("model.overlay_apply");
  v["engine.repair.pre_event_us_p50"] = p50("engine.repair.pre_event", 1e3);
  v["engine.repair.drift_check_ms_p50"] =
      p50("engine.repair.drift_check", 1e6);
  v["engine.repair.drift_check_ms_sum"] =
      per_round_ms("engine.repair.drift_check");
  v["engine.drift_checks"] = t.drift_checks;
  // The mirror's opening resolve carries no event; escalations do.
  double resolve_ms = 0.0;
  for (const Span& s : tr.spans())
    if (std::string_view(s.name) == "engine.repair.resolve" && s.event >= 0)
      resolve_ms += static_cast<double>(s.end_ns - s.start_ns) / 1e6;
  v["engine.repair.resolve_ms_sum"] = resolve_ms / rounds;
  v["engine.full_resolves"] = t.full_resolves;
  v["engine.apply_local_us_p50"] = util::percentile(local_us, 50.0);
  v["engine.apply_checked_ms_p50"] = util::percentile(checked_ms, 50.0);
  v["engine.users_refreshed"] = t.users_refreshed;
  v["engine.streams_released"] = t.streams_released;
  v["engine.streams_added"] = t.streams_added;
  v["core.select.picks"] = static_cast<double>(t.select.picks);
  v["core.select.evals"] = static_cast<double>(t.select.evaluations);
  v["core.select.pairs_touched"] = static_cast<double>(t.select.pairs_touched);
  v["core.select.rows_walked"] = static_cast<double>(t.select.rows_walked);
  v["core.select.heap_sifts"] = static_cast<double>(t.select.heap_sifts);
  v["core.select.useful_ratio"] =
      t.select.evaluations > 0 ? static_cast<double>(t.select.picks) /
                                     static_cast<double>(t.select.evaluations)
                               : 0.0;
  v["engine.snapshot_ms"] = p50("engine.snapshot", 1e6);
  v["engine.check_parity_ms"] = p50("engine.check_parity", 1e6);
  v["core.enum_ms_p50"] = p50("core.enum", 1e6);
  v["core.enum_ms_sum"] = per_round_ms("core.enum");
  v["core.enum.evals"] = t.enum_evals;
  v["core.enum.frames_reused"] = t.frames_reused;
  v["core.enum.completions_replayed"] = t.completions_replayed;
  v["core.online.accepts"] = t.online_accepts;
  v["core.online.rejects"] = t.online_rejects;
  // The traced replay against the untraced one: on repair workloads the
  // mirror (whose split is reported) against the backend's apply(); on
  // the others apply() with its span against apply() alone.
  double traced_s = 0.0;
  std::size_t mismatches = 0;
  for (const PassResult& p : passes) {
    traced_s += p.mirror_s;
    mismatches += p.mirror_mismatches;
  }
  if (w.serve.policy != engine::ServePolicy::kRepair)
    traced_s = sum(span_durations(tr, "engine.apply", 1e9));
  const double plain_s = sum(apply_us) * 1e-6;
  v["trace.overhead_frac"] = plain_s > 0.0 ? traced_s / plain_s - 1.0 : 0.0;
  v["trace.mirror_mismatches"] = static_cast<double>(mismatches);
  run.metrics = emit(kPerLayer, v);
  return run;
}

std::vector<Metric> end_to_end_metrics() { return declared(kEndToEnd); }
std::vector<Metric> per_layer_metrics() { return declared(kPerLayer); }

}  // namespace wallbench
