// Committed-reference trace tests: every workload family's generator is
// pinned to tests/data/workload_reference.txt byte for byte. Each row is
// one (family, cell) pair: an FNV-1a digest of the trace's io::save_events
// text and the event count. The cells vary the instance (three random cap
// worlds and a hand-built world whose users include unbounded caps), the
// seed, the trace length and the family's own knobs — churn's mix weights
// and scale ranges, diurnal's cycles/phases/amplitude, and so on — so a
// refactor of any generator that shifts one RNG draw, one fallback or one
// clamp breaks here even when every parity contract still holds.
//
// Regenerate after an intentional trace change:
//   VDIST_UPDATE_WORKLOAD_REFERENCE=1 ./build/vdist_tests
//     --gtest_filter='WorkloadReference.*'
// The file lives in the source tree (VDIST_TESTS_DIR, stamped by CMake),
// so the rewrite lands in the checkout regardless of build directory.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "gen/random_instances.h"
#include "io/event_io.h"
#include "model/factory.h"
#include "model/instance.h"
#include "util/float_cmp.h"
#include "workload/workload.h"

#ifndef VDIST_TESTS_DIR
#define VDIST_TESTS_DIR "tests"
#endif

namespace vdist {
namespace {

using model::Instance;

constexpr const char* kReferencePath =
    VDIST_TESTS_DIR "/data/workload_reference.txt";

struct Cell {
  std::string family;
  std::string name;  // unique within the family
  int world;         // index into worlds()
  std::map<std::string, std::string> overrides;
};

// Four worlds: three random cap forms of growing size and a hand-built
// one where two users have unbounded caps (capacity draws skip them).
const std::vector<Instance>& worlds() {
  static const std::vector<Instance> built = [] {
    std::vector<Instance> out;
    for (const auto& [streams, users, seed] :
         {std::tuple{30u, 12u, 3u}, {60u, 25u, 8u}, {16u, 6u, 21u}}) {
      gen::RandomCapConfig cfg;
      cfg.num_streams = streams;
      cfg.num_users = users;
      cfg.seed = seed;
      out.push_back(gen::random_cap_instance(cfg));
    }
    std::vector<model::CapEdge> edges;
    for (std::uint32_t s = 0; s < 8; ++s)
      for (std::uint32_t u = 0; u < 5; ++u)
        if ((s + 2 * u) % 3 != 0)
          edges.push_back({static_cast<model::UserId>(u),
                           static_cast<model::StreamId>(s),
                           1.0 + static_cast<double>((3 * s + u) % 7)});
    out.push_back(model::build_cap_instance(
        {3, 1, 4, 1, 5, 9, 2, 6}, 12.0,
        {util::kInf, 9.0, util::kInf, 14.0, 6.0}, edges));
    return out;
  }();
  return built;
}

std::vector<Cell> cells() {
  return {
      {"churn", "defaults", 0, {}},
      {"churn", "mix", 1,
       {{"events", "300"}, {"seed", "41"}, {"w-user-leave", "4"},
        {"w-user-join", "0.5"}, {"w-stream-remove", "3"},
        {"w-stream-add", "0"}, {"w-capacity", "1"}, {"w-utility", "0.25"},
        {"cap-scale-min", "0.5"}, {"cap-scale-max", "1.6"},
        {"utility-scale-min", "0.2"}, {"utility-scale-max", "0.9"}}},
      {"churn", "fallbacks", 3,
       {{"events", "150"}, {"seed", "5"}, {"w-user-leave", "0"},
        {"w-user-join", "3"}, {"w-stream-remove", "0"},
        {"w-stream-add", "3"}, {"w-capacity", "2"}, {"w-utility", "0"},
        {"utility-scale-min", "0.6"}, {"utility-scale-max", "0.6"}}},
      {"churn", "small", 2, {{"events", "90"}, {"seed", "17"}}},
      {"zipf-drift", "defaults", 0, {}},
      {"zipf-drift", "knobs", 1,
       {{"events", "250"}, {"seed", "3"}, {"alpha", "1.4"}, {"drift", "0.1"},
        {"churn", "0.2"}}},
      {"zipf-drift", "unbounded", 3, {{"events", "120"}, {"seed", "9"}}},
      {"flash-crowd", "defaults", 0, {}},
      {"flash-crowd", "knobs", 1,
       {{"events", "320"}, {"seed", "12"}, {"bursts", "3"}, {"ramp", "0.5"},
        {"decay", "0.2"}}},
      {"flash-crowd", "unbounded", 3, {{"events", "100"}, {"seed", "4"}}},
      {"diurnal", "defaults", 0, {}},
      {"diurnal", "knobs", 1,
       {{"events", "333"}, {"seed", "23"}, {"cycles", "3"}, {"phases", "5"},
        {"amplitude", "0.35"}}},
      {"diurnal", "unbounded", 3,
       {{"events", "140"}, {"seed", "6"}, {"cycles", "1"}, {"phases", "2"},
        {"amplitude", "1"}}},
      {"hetero-cap", "defaults", 0, {}},
      {"hetero-cap", "knobs", 1,
       {{"events", "210"}, {"seed", "8"}, {"gold", "0.4"}, {"silver", "0.1"},
        {"gold-cap", "2.5"}, {"bronze-cap", "0.3"}, {"switch", "0.6"}}},
      {"hetero-cap", "unbounded", 3, {{"events", "80"}, {"seed", "2"}}},
  };
}

struct ReferenceRow {
  std::uint64_t text_hash = 0;
  std::size_t events = 0;

  bool operator==(const ReferenceRow&) const = default;
};

std::uint64_t fnv1a(const std::string& text) {
  std::uint64_t h = 1469598103934665603ull;
  for (const char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

std::map<std::string, ReferenceRow> load_reference(const std::string& path) {
  std::map<std::string, ReferenceRow> rows;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    std::string family, cell;
    ReferenceRow row;
    ls >> family >> cell >> std::hex >> row.text_hash >> std::dec >>
        row.events;
    if (!ls.fail()) rows[family + " " + cell] = row;
  }
  return rows;
}

void write_reference(const std::string& path,
                     const std::map<std::string, ReferenceRow>& rows) {
  std::ofstream out(path);
  ASSERT_TRUE(out.good()) << "cannot write " << path;
  out << "# Committed workload reference: family cell "
         "fnv1a(save_events text, hex) event_count\n"
      << "# Regenerate: VDIST_UPDATE_WORKLOAD_REFERENCE=1 ./vdist_tests "
         "--gtest_filter='WorkloadReference.*'\n";
  for (const auto& [key, row] : rows)
    out << key << ' ' << std::hex << row.text_hash << std::dec << ' '
        << row.events << '\n';
}

TEST(WorkloadReference, EveryFamilyMatchesCommittedTraces) {
  const bool update =
      std::getenv("VDIST_UPDATE_WORKLOAD_REFERENCE") != nullptr;
  const std::map<std::string, ReferenceRow> committed =
      load_reference(kReferencePath);
  if (!update) {
    ASSERT_FALSE(committed.empty())
        << kReferencePath << " missing or empty; regenerate with "
        << "VDIST_UPDATE_WORKLOAD_REFERENCE=1";
  }

  std::map<std::string, ReferenceRow> regenerated;
  const workload::WorkloadRegistry& registry =
      workload::WorkloadRegistry::global();
  for (const Cell& cell : cells()) {
    const auto trace = registry.generate(
        cell.family, worlds()[static_cast<std::size_t>(cell.world)],
        cell.overrides);
    std::ostringstream text;
    io::save_events(text, trace);
    const ReferenceRow row{fnv1a(text.str()), trace.size()};
    const std::string key = cell.family + " " + cell.name;
    if (update) {
      regenerated[key] = row;
      continue;
    }
    const auto it = committed.find(key);
    if (it == committed.end()) {
      ADD_FAILURE() << key << " not in " << kReferencePath
                    << "; regenerate with VDIST_UPDATE_WORKLOAD_REFERENCE=1";
      continue;
    }
    EXPECT_EQ(it->second.events, row.events) << key << ": length diverges";
    EXPECT_EQ(it->second.text_hash, row.text_hash)
        << key << ": trace bytes diverge";
  }
  if (update) write_reference(kReferencePath, regenerated);
}

}  // namespace
}  // namespace vdist
