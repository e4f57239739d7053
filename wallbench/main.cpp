// vdist_wallbench: the serving-path benchmark's measuring program.
//
//   vdist_wallbench gen --workload W --seed N --out DIR
//       writes DIR/instance-K.vd and DIR/events-K.ev for each world K
//       of (W, N)
//   vdist_wallbench run --workload W --dir DIR --seconds S --trace 0|1
//                       [--spans FILE] [--expect FILE --expect-tag TAG]
//       measures W on the inputs in DIR and prints, as the last line of
//       stdout, {"correct","attempted","failed","metrics"}: the end-to-end
//       metrics with --trace 0, the per-layer ones with --trace 1. The
//       line before it carries the build's provenance. Exit 1 when any
//       check failed.
//
// VDIST_BENCH_SMOKE in the environment selects tiny shapes of the same
// workloads. --expect FILE keeps the final objective and
// quality_ratio of one seed under TAG (the build) and fails a later run
// of that seed and build whose values differ.
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>

#include "engine/perf.h"
#include "harness.h"

namespace {

using wallbench::RunResult;

std::map<std::string, std::string> parse_flags(int argc, char** argv) {
  std::map<std::string, std::string> flags;
  for (int i = 2; i < argc; ++i) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0)
      throw std::invalid_argument("unexpected argument '" + key + "'");
    if (i + 1 >= argc) throw std::invalid_argument(key + " needs a value");
    flags[key.substr(2)] = argv[++i];
  }
  return flags;
}

std::string need(const std::map<std::string, std::string>& flags,
                 const std::string& key) {
  const auto it = flags.find(key);
  if (it == flags.end())
    throw std::invalid_argument("missing --" + key);
  return it->second;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += (c == '\n' ? ' ' : c);
  }
  return out;
}

// Compares (or records) the seed's final values under the build tag.
void check_expectation(const std::string& path, const std::string& tag,
                       RunResult& run) {
  std::ostringstream now;
  now << std::setprecision(17) << run.final_objective << ' '
      << run.quality_ratio;
  std::ifstream is(path);
  std::string stored_tag;
  std::string stored;
  if (is && std::getline(is, stored_tag) && std::getline(is, stored) &&
      stored_tag == tag) {
    ++run.attempted;
    if (stored != now.str()) {
      ++run.failed;
      run.failures.push_back("repeat: final objective / quality_ratio " +
                             now.str() + " differ from an earlier run's " +
                             stored);
    }
    return;
  }
  std::ofstream os(path);
  os << tag << '\n' << now.str() << '\n';
}

int cmd_run(const std::map<std::string, std::string>& flags, bool smoke) {
  const wallbench::Workload w =
      wallbench::find_workload(need(flags, "workload"), smoke);
  const double seconds = std::stod(need(flags, "seconds"));
  const bool trace = need(flags, "trace") == "1";
  wallbench::Tracer tracer;
  RunResult run = wallbench::measure(
      w, wallbench::inputs_in(w, need(flags, "dir")), seconds,
      trace ? &tracer : nullptr);
  if (flags.count("expect"))
    check_expectation(flags.at("expect"), need(flags, "expect-tag"), run);
  if (trace && flags.count("spans")) {
    std::ofstream os(flags.at("spans"));
    tracer.write_jsonl(os);
  }
  for (const std::string& f : run.failures)
    std::cerr << "wallbench: FAILED " << f << "\n";

  const vdist::engine::PerfProvenance prov =
      vdist::engine::collect_provenance();
  std::cout << std::setprecision(17) << "{\"provenance\":{\"git_sha\":\""
            << json_escape(prov.git_sha) << "\",\"compiler\":\""
            << json_escape(prov.compiler) << "\",\"flags\":\""
            << json_escape(prov.flags) << "\",\"build_type\":\""
            << json_escape(prov.build_type)
            << "\",\"hardware_concurrency\":" << prov.hardware_concurrency
            << "},\"workload\":\"" << w.name << "\",\"smoke\":"
            << (smoke ? "true" : "false") << ",\"passes\":" << run.passes
            << ",\"final_objective\":" << run.final_objective << "}\n";
  std::cout << "{\"correct\":" << (run.correct() ? "true" : "false")
            << ",\"attempted\":" << run.attempted
            << ",\"failed\":" << run.failed << ",\"metrics\":{";
  for (std::size_t i = 0; i < run.metrics.size(); ++i) {
    const wallbench::Metric& m = run.metrics[i];
    std::cout << (i ? "," : "") << '"' << m.name << "\":{\"value\":"
              << (std::isfinite(m.value) ? m.value : 0.0) << ",\"unit\":\""
              << m.unit << "\"}";
  }
  std::cout << "}}\n";
  return run.correct() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    if (argc < 2)
      throw std::invalid_argument("usage: vdist_wallbench gen|run ...");
    const std::string command = argv[1];
    const auto flags = parse_flags(argc, argv);
    const bool smoke = std::getenv("VDIST_BENCH_SMOKE") != nullptr;
    if (command == "gen") {
      wallbench::generate_inputs(
          wallbench::find_workload(need(flags, "workload"), smoke),
          std::stoull(need(flags, "seed")), need(flags, "out"));
      return 0;
    }
    if (command == "run") return cmd_run(flags, smoke);
    throw std::invalid_argument("unknown command '" + command + "'");
  } catch (const std::exception& e) {
    std::cerr << "vdist_wallbench: " << e.what() << "\n";
    return 2;
  }
}
