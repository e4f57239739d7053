// Committed-reference repair tests: the serving engine's incremental
// repair (engine::Session under the repair policy) is pinned to
// tests/data/repair_reference.txt per event, for every workload family
// × two cap worlds × both selection strategies. Each row
// carries a rolling FNV digest of assignment()'s pair set over every
// event, the per-event race winners (one letter per event), and the
// final objective to 12 significant digits. World 1 (48 streams × 20
// users) races A1/A2/Amax (kFeasible); world 2 (120 × 60, a looser
// budget) races the semi-feasible greedy against Amax (kAugmented).
// Both budgets bind, so completions skip over-budget streams that later
// events (releases, restores) let back in. The parity suites prove the
// repair stays within its quality bound; this suite proves it picks
// exactly what it picked in the past — a rework of the completion
// selector or of the race bookkeeping that shifts any pick, at any
// event, breaks here even when every quality bound still holds.
//
// Regenerate after an intentional pick change:
//   VDIST_UPDATE_REPAIR_REFERENCE=1 ./build/vdist_tests
//     --gtest_filter='RepairReference.*'
// The file lives in the source tree (VDIST_TESTS_DIR, stamped by CMake),
// so the rewrite lands in the checkout regardless of build directory.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "assignment_pairs.h"
#include "core/select.h"
#include "engine/serving.h"
#include "gen/random_instances.h"
#include "model/instance.h"
#include "workload/workload.h"

#ifndef VDIST_TESTS_DIR
#define VDIST_TESTS_DIR "tests"
#endif

namespace vdist {
namespace {

using model::Instance;
using model::InstanceEvent;

constexpr const char* kReferencePath =
    VDIST_TESTS_DIR "/data/repair_reference.txt";

const std::vector<std::string> kFamilies = {"churn", "zipf-drift",
                                            "flash-crowd", "diurnal",
                                            "hetero-cap"};

// What the reference pins per (family, world seed): the rolling pair
// digest, the per-event winner letters, and the final objective.
struct ReferenceRow {
  std::uint64_t pair_hash = 0;
  std::string variants;
  std::string objective;

  bool operator==(const ReferenceRow&) const = default;
};

std::uint64_t fnv1a_mix(std::uint64_t h, std::uint64_t v) {
  for (int byte = 0; byte < 8; ++byte) {
    h ^= (v >> (8 * byte)) & 0xffu;
    h *= 1099511628211ull;
  }
  return h;
}

char variant_letter(const char* variant) {
  const std::string v = variant;
  if (v == "greedy") return 'g';
  if (v == "A1") return '1';
  if (v == "A2") return '2';
  if (v == "Amax") return 'm';
  return '?';
}

std::string objective_text(double objective) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.12g", objective);
  return buf;
}

Instance world(std::uint64_t seed) {
  gen::RandomCapConfig cfg;
  cfg.num_streams = seed == 1 ? 48 : 120;
  cfg.num_users = seed == 1 ? 20 : 60;
  cfg.interest_per_stream = seed == 1 ? 5.0 : 6.0;
  cfg.budget_fraction = seed == 1 ? 0.3 : 0.45;
  cfg.seed = seed;
  return gen::random_cap_instance(cfg);
}

// Replays the family's trace through a repair session and folds every
// event's assignment into the row.
ReferenceRow replay(const Instance& inst,
                    const std::vector<InstanceEvent>& trace,
                    core::SmdMode mode, core::SelectStrategy strategy) {
  engine::ServeConfig opts;
  opts.policy = engine::ServePolicy::kRepair;
  opts.mode = mode;
  opts.strategy = strategy;
  opts.refresh = 40;  // drift checks (and resolves) mid-trace
  engine::Session session(inst, opts);
  ReferenceRow row;
  row.pair_hash = 1469598103934665603ull;  // FNV offset basis
  for (const InstanceEvent& event : trace) {
    session.apply(event);
    const auto pair_list = testing::pairs(session.assignment());
    row.pair_hash = fnv1a_mix(row.pair_hash, pair_list.size());
    for (const auto& [u, s] : pair_list) {
      row.pair_hash = fnv1a_mix(row.pair_hash, static_cast<std::uint64_t>(u));
      row.pair_hash = fnv1a_mix(row.pair_hash, static_cast<std::uint64_t>(s));
    }
    row.variants.push_back(variant_letter(session.variant()));
  }
  row.objective = objective_text(session.objective());
  return row;
}

std::string key_of(const std::string& family, std::uint64_t seed) {
  return family + " " + std::to_string(seed);
}

std::map<std::string, ReferenceRow> load_reference(const std::string& path) {
  std::map<std::string, ReferenceRow> rows;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    std::string family;
    std::uint64_t seed = 0;
    ReferenceRow row;
    ls >> family >> seed >> std::hex >> row.pair_hash >> std::dec >>
        row.objective >> row.variants;
    if (!ls.fail()) rows[key_of(family, seed)] = row;
  }
  return rows;
}

void write_reference(const std::string& path,
                     const std::map<std::string, ReferenceRow>& rows) {
  std::ofstream out(path);
  ASSERT_TRUE(out.good()) << "cannot write " << path;
  out << "# Committed repair reference: family world_seed pair_hash(hex) "
         "final_objective(%.12g) per-event winners (g=greedy 1=A1 2=A2 "
         "m=Amax)\n"
      << "# Regenerate: VDIST_UPDATE_REPAIR_REFERENCE=1 ./vdist_tests "
         "--gtest_filter='RepairReference.*'\n";
  for (const auto& [key, row] : rows)
    out << key << ' ' << std::hex << row.pair_hash << std::dec << ' '
        << row.objective << ' ' << row.variants << '\n';
}

TEST(RepairReference, AllStrategiesMatchCommittedPicks) {
  const bool update =
      std::getenv("VDIST_UPDATE_REPAIR_REFERENCE") != nullptr;
  const std::map<std::string, ReferenceRow> committed =
      load_reference(kReferencePath);
  if (!update) {
    ASSERT_FALSE(committed.empty())
        << kReferencePath << " missing or empty; regenerate with "
        << "VDIST_UPDATE_REPAIR_REFERENCE=1";
  }

  std::map<std::string, ReferenceRow> regenerated;
  const workload::WorkloadRegistry& registry =
      workload::WorkloadRegistry::global();
  for (const std::string& family : kFamilies) {
    for (const std::uint64_t seed : {1ull, 2ull}) {
      const Instance inst = world(seed);
      const std::vector<InstanceEvent> trace = registry.generate(
          family, inst, {{"events", "240"}, {"seed", std::to_string(seed)}});
      const core::SmdMode mode = seed == 1 ? core::SmdMode::kFeasible
                                           : core::SmdMode::kAugmented;
      const std::string key = key_of(family, seed);
      // Both strategies are asserted against the one committed row:
      // pick-for-pick identity to the past AND to each other.
      for (const core::SelectStrategy strategy :
           {core::SelectStrategy::kDelta, core::SelectStrategy::kNaiveScan}) {
        const char* name = core::to_string(strategy);
        const ReferenceRow row = replay(inst, trace, mode, strategy);
        if (update) {
          const auto [it, inserted] = regenerated.emplace(key, row);
          EXPECT_EQ(it->second, row)
              << key << "/" << name
              << ": strategies disagree while regenerating";
          continue;
        }
        const auto it = committed.find(key);
        if (it == committed.end()) {
          ADD_FAILURE() << key << " not in " << kReferencePath
                        << "; regenerate with VDIST_UPDATE_REPAIR_REFERENCE=1";
          continue;
        }
        EXPECT_EQ(it->second.pair_hash, row.pair_hash)
            << key << "/" << name << ": pair sets diverge";
        EXPECT_EQ(it->second.variants, row.variants)
            << key << "/" << name << ": race winners diverge";
        EXPECT_EQ(it->second.objective, row.objective)
            << key << "/" << name << ": final objective diverges";
      }
    }
  }
  if (update) write_reference(kReferencePath, regenerated);
}

}  // namespace
}  // namespace vdist
