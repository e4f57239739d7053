// Committed-reference pick tests: the kernel's exact output — the
// (user, stream) pair set and the bit-exact objective — is pinned to
// tests/data/select_reference.txt for every registered scenario × three
// seeds × both strategies. The delta==naive differentials in
// test_select.cpp prove the strategies agree with *each other*; this
// suite proves they agree with the *past* — a layout or SIMD rework that
// shifts any pick (the exact failure mode of the SoA/AVX2 rebuild)
// breaks here even if it shifts both strategies identically.
//
// Regenerate after an intentional pick change:
//   VDIST_UPDATE_SELECT_REFERENCE=1 ./build/vdist_tests \
//     --gtest_filter='SelectReference.*'
// The file lives in the source tree (VDIST_TESTS_DIR, stamped by CMake),
// so the rewrite lands in the checkout regardless of build directory.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "assignment_pairs.h"
#include "core/select.h"
#include "engine/registry.h"
#include "engine/scenario.h"
#include "model/instance.h"

#ifndef VDIST_TESTS_DIR
#define VDIST_TESTS_DIR "tests"
#endif

namespace vdist {
namespace {

using engine::ScenarioRegistry;
using engine::ScenarioSpec;
using engine::SolveRequest;
using engine::SolveResult;
using model::Instance;

constexpr const char* kReferencePath =
    VDIST_TESTS_DIR "/data/select_reference.txt";

// What the reference pins per (scenario, seed, algorithm): the objective
// double bit-for-bit, and the pair set as a count + order-independent
// digest (the pairs are hashed in sorted order).
struct ReferenceRow {
  std::uint64_t objective_bits = 0;
  std::uint64_t pair_count = 0;
  std::uint64_t pair_hash = 0;

  bool operator==(const ReferenceRow&) const = default;
};

std::uint64_t fnv1a_mix(std::uint64_t h, std::uint64_t v) {
  for (int byte = 0; byte < 8; ++byte) {
    h ^= (v >> (8 * byte)) & 0xffu;
    h *= 1099511628211ull;
  }
  return h;
}

ReferenceRow row_of(const SolveResult& r) {
  ReferenceRow row;
  double objective = r.objective;
  std::memcpy(&row.objective_bits, &objective, sizeof objective);
  const auto pair_list = testing::pairs(r.solution());
  row.pair_count = pair_list.size();
  std::uint64_t h = 1469598103934665603ull;  // FNV offset basis
  for (const auto& [u, s] : pair_list) {
    h = fnv1a_mix(h, static_cast<std::uint64_t>(u));
    h = fnv1a_mix(h, static_cast<std::uint64_t>(s));
  }
  row.pair_hash = h;
  return row;
}

// "scenario seed algorithm" — strategies share one row by construction
// (they are pick-for-pick identical; the test asserts both against
// the same committed row).
std::string key_of(const std::string& scenario, std::uint64_t seed,
                   const std::string& algorithm) {
  return scenario + " " + std::to_string(seed) + " " + algorithm;
}

std::map<std::string, ReferenceRow> load_reference(const std::string& path) {
  std::map<std::string, ReferenceRow> rows;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    std::string scenario, algorithm;
    std::uint64_t seed = 0;
    ReferenceRow row;
    ls >> scenario >> seed >> algorithm >> std::hex >> row.objective_bits >>
        std::dec >> row.pair_count >> std::hex >> row.pair_hash;
    if (!ls.fail())
      rows[key_of(scenario, seed, algorithm)] = row;
  }
  return rows;
}

void write_reference(const std::string& path,
                     const std::map<std::string, ReferenceRow>& rows) {
  std::ofstream out(path);
  ASSERT_TRUE(out.good()) << "cannot write " << path;
  out << "# Committed kernel reference: scenario seed algorithm "
         "objective_bits(hex) pair_count pair_hash(hex)\n"
      << "# Regenerate: VDIST_UPDATE_SELECT_REFERENCE=1 ./vdist_tests "
         "--gtest_filter='SelectReference.*'\n";
  for (const auto& [key, row] : rows) {
    out << key << ' ' << std::hex << row.objective_bits << std::dec << ' '
        << row.pair_count << ' ' << std::hex << row.pair_hash << std::dec
        << '\n';
  }
}

SolveResult solve_with(const Instance& inst, const std::string& algorithm,
                       const char* select) {
  SolveRequest req;
  req.instance = &inst;
  req.algorithm = algorithm;
  req.options.set("select", select);
  if (algorithm == "enum") req.options.set("depth", 1);
  req.strict = true;
  return engine::solve(req);
}

// The algorithms the reference pins: the universal pipeline entry point
// on every scenario, plus the Algorithm-1 greedy (the rebuilt hot path's
// primary consumer) where the instance form admits it.
std::vector<std::string> reference_algorithms(const Instance& inst) {
  std::vector<std::string> algos = {"pipeline"};
  if (inst.is_smd() && inst.is_unit_skew()) algos.push_back("greedy-plain");
  return algos;
}

TEST(SelectReference, AllStrategiesMatchCommittedPicks) {
  const bool update =
      std::getenv("VDIST_UPDATE_SELECT_REFERENCE") != nullptr;
  const std::map<std::string, ReferenceRow> committed =
      load_reference(kReferencePath);
  if (!update) {
    ASSERT_FALSE(committed.empty())
        << kReferencePath << " missing or empty; regenerate with "
        << "VDIST_UPDATE_SELECT_REFERENCE=1";
  }

  std::map<std::string, ReferenceRow> regenerated;
  const ScenarioRegistry& registry = ScenarioRegistry::global();
  for (const std::string& name : registry.names()) {
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      ScenarioSpec spec;
      spec.name = name;
      spec.seed = seed;
      // The churn rows were drawn when the churn scenario replayed 60
      // events by default; it now takes its family's default (200), so
      // the rows pin that same 60-event snapshot explicitly.
      if (name == "churn") spec.params.set("events", 60);
      const Instance inst = engine::build_scenario(spec);
      for (const std::string& algo : reference_algorithms(inst)) {
        const std::string key = key_of(name, seed, algo);
        // Both strategies are asserted against the one committed row —
        // pick-for-pick identity to the past AND to each other.
        for (const char* strategy : {"delta", "naive"}) {
          const SolveResult r = solve_with(inst, algo, strategy);
          ASSERT_TRUE(r.ok) << key << "/" << strategy << ": " << r.error;
          const ReferenceRow row = row_of(r);
          if (update) {
            const auto [it, inserted] = regenerated.emplace(key, row);
            EXPECT_EQ(it->second, row)
                << key << "/" << strategy
                << ": strategies disagree while regenerating";
          } else {
            const auto it = committed.find(key);
            if (it == committed.end()) {
              ADD_FAILURE() << key << " not in " << kReferencePath
                            << "; regenerate with "
                            << "VDIST_UPDATE_SELECT_REFERENCE=1";
              continue;
            }
            EXPECT_EQ(it->second, row)
                << key << "/" << strategy
                << ": picks diverge from the committed reference";
          }
        }
      }
    }
  }
  if (update) write_reference(kReferencePath, regenerated);
}

}  // namespace
}  // namespace vdist
