// Self-test of the serving-path benchmark. BENCHMARK.json declares the
// harness's workloads and metrics (names and units, in order). On the
// smoke shapes of every workload: generation is deterministic in the
// seed, both runs pass their checks, the mirror reproduces the backend,
// the reported metrics are the declared ones and are well-named, and a
// rejected event fails the run.
//
//   wallbench_selftest WORK_DIR BENCHMARK_JSON
#include <cmath>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <iterator>
#include <regex>
#include <string>

#include "harness.h"
#include "util/json.h"

namespace {

int failures = 0;

void expect(bool ok, const std::string& what) {
  if (!ok) {
    ++failures;
    std::cerr << "FAIL: " << what << "\n";
  }
}

std::string slurp(const std::string& path) {
  std::ifstream is(path);
  return {std::istreambuf_iterator<char>(is), {}};
}

double metric(const wallbench::RunResult& run, const std::string& name) {
  for (const wallbench::Metric& m : run.metrics)
    if (m.name == name) return m.value;
  return NAN;
}

void check_metrics(const wallbench::RunResult& run,
                   const std::vector<wallbench::Metric>& declared,
                   const std::string& label) {
  static const std::regex name_re("[A-Za-z0-9_.-]+");
  expect(run.metrics.size() == declared.size(), label + ": metric count");
  for (std::size_t i = 0; i < run.metrics.size() && i < declared.size(); ++i) {
    const wallbench::Metric& m = run.metrics[i];
    expect(m.name == declared[i].name && m.unit == declared[i].unit,
           label + ": metric " + m.name + " in order");
    expect(std::regex_match(m.name, name_re), label + ": name " + m.name);
    expect(std::isfinite(m.value), label + ": " + m.name + " finite");
  }
}

// The "name" (and "unit") of each entry of BENCHMARK.json's array `key`.
std::vector<wallbench::Metric> listed(const vdist::util::JsonValue& doc,
                                      const std::string& key) {
  std::vector<wallbench::Metric> out;
  const vdist::util::JsonValue* entries = doc.find(key);
  if (entries != nullptr)
    for (const vdist::util::JsonValue& e : entries->array)
      out.push_back({e.string_or("name", ""), e.string_or("unit", "")});
  return out;
}

void same_list(const std::vector<wallbench::Metric>& json,
               const std::vector<wallbench::Metric>& harness,
               const std::string& key) {
  bool same = json.size() == harness.size();
  for (std::size_t i = 0; same && i < json.size(); ++i)
    same = json[i].name == harness[i].name && json[i].unit == harness[i].unit;
  expect(same, "BENCHMARK.json " + key + " differ from the harness's");
}

void test_declared(const std::string& benchmark_json) {
  std::ifstream is(benchmark_json);
  expect(is.good(), "cannot read " + benchmark_json);
  const vdist::util::JsonValue doc = vdist::util::parse_json(is);
  std::vector<wallbench::Metric> workloads;
  for (const std::string& name : wallbench::workload_names())
    workloads.push_back({name, ""});
  same_list(listed(doc, "workloads"), workloads, "workloads");
  same_list(listed(doc, "end_to_end"), wallbench::end_to_end_metrics(),
            "end_to_end metrics");
  same_list(listed(doc, "per_layer"), wallbench::per_layer_metrics(),
            "per_layer metrics");
}

void test_workload(const std::string& name, const std::filesystem::path& work) {
  const wallbench::Workload w = wallbench::find_workload(name, true);
  const std::filesystem::path a = work / (name + "-a");
  const std::filesystem::path b = work / (name + "-b");
  std::filesystem::create_directories(a);
  std::filesystem::create_directories(b);
  wallbench::generate_inputs(w, 3, a.string());
  wallbench::generate_inputs(w, 3, b.string());
  const std::vector<wallbench::Inputs> in =
      wallbench::inputs_in(w, a.string());
  const std::vector<wallbench::Inputs> again =
      wallbench::inputs_in(w, b.string());
  for (std::size_t k = 0; k < in.size(); ++k)
    expect(slurp(in[k].instance) == slurp(again[k].instance) &&
               slurp(in[k].events) == slurp(again[k].events),
           name + ": inputs are a function of the seed");
  if (in.size() > 1)
    expect(slurp(in[0].instance) != slurp(in[1].instance),
           name + ": worlds of one seed differ");

  const wallbench::RunResult plain = wallbench::measure(w, in, 0.0, nullptr);
  for (const std::string& f : plain.failures) std::cerr << "  " << f << "\n";
  expect(plain.correct() && plain.attempted > 0, name + ": untraced checks");
  check_metrics(plain, wallbench::end_to_end_metrics(), name + " untraced");
  expect(metric(plain, "setup_s") > 0.0 && metric(plain, "run_s") > 0.0 &&
             metric(plain, "event_p50_us") > 0.0 &&
             metric(plain, "checkpoint_p50_ms") > 0.0 &&
             metric(plain, "quality_ratio") > 0.0,
         name + ": end-to-end metrics are nonzero");

  wallbench::Tracer tracer;
  const wallbench::RunResult traced = wallbench::measure(w, in, 0.0, &tracer);
  for (const std::string& f : traced.failures) std::cerr << "  " << f << "\n";
  expect(traced.correct(), name + ": traced checks");
  check_metrics(traced, wallbench::per_layer_metrics(), name + " traced");
  expect(metric(traced, "trace.mirror_mismatches") == 0.0,
         name + ": mirror reproduces the backend");
  expect(traced.final_objective == plain.final_objective,
         name + ": traced and untraced runs end on the same objective");
  expect(!tracer.spans().empty(), name + ": spans recorded");
  if (w.serve.policy == vdist::engine::ServePolicy::kRepair)
    expect(metric(traced, "engine.repair.winner_us_p50") > 0.0,
           name + ": the mirror ran");
  else
    expect(metric(traced, "core.enum_ms_p50") > 0.0,
           name + ": the offline enum ran");

  // A repair pass checks parity every parity_every events and at the
  // trace end; an enum pass has the one trace-end checkpoint.
  const std::size_t events = std::stoul(w.trace.at("events"));
  const wallbench::PassResult pass = wallbench::run_pass(w, in[0], nullptr);
  expect(pass.checkpoint_ms.size() ==
             (w.parity_every > 0 ? events / w.parity_every : 1),
         name + ": checkpoints per pass");

  // An event naming a user the world does not have is rejected by
  // apply() and must fail the run.
  {
    std::ofstream os(in[0].events, std::ios::app);
    os << "leave 999999\n";
  }
  const wallbench::PassResult bad = wallbench::run_pass(w, in[0], nullptr);
  expect(bad.failed == 1 && bad.rejected.back() == 1,
         name + ": a rejected event counts as a failure");
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 3) {
    std::cerr << "usage: wallbench_selftest WORK_DIR BENCHMARK_JSON\n";
    return 2;
  }
  const std::filesystem::path work = argv[1];
  std::filesystem::remove_all(work);
  try {
    test_declared(argv[2]);
  } catch (const std::exception& e) {
    expect(false, std::string("BENCHMARK.json: ") + e.what());
  }
  for (const std::string& name : wallbench::workload_names()) {
    try {
      test_workload(name, work);
    } catch (const std::exception& e) {
      expect(false, name + ": threw " + e.what());
    }
  }
  std::cout << (failures == 0 ? "wallbench selftest: ok\n"
                              : "wallbench selftest: FAILED\n");
  return failures == 0 ? 0 : 1;
}
