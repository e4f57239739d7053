// Differential tests for InstanceBuilder::build(): the counting-sort CSR
// must be bit-identical to the comparison-sort build it replaced, kept
// here as the reference, on every registered scenario, under any order of
// adds, with dropped and zeroed edges mixed in, and through the overlay's
// snapshot and rebuild paths.
#include "model/instance.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "engine/scenario.h"
#include "gen/random_instances.h"
#include "model/overlay.h"
#include "util/float_cmp.h"
#include "util/rng.h"
#include "workload/workload.h"

namespace vdist::model {
namespace {

// Everything a builder is fed, in add order.
struct RawInput {
  int m = 1;
  int mc = 1;
  std::vector<double> budgets;
  std::vector<std::vector<double>> costs;  // per stream
  std::vector<std::vector<double>> caps;   // per user
  struct Edge {
    UserId u;
    StreamId s;
    double w;
    std::vector<double> loads;
  };
  std::vector<Edge> edges;
};

struct Csr {
  std::vector<EdgeId> stream_offsets, user_offsets, user_edge_idx;
  std::vector<UserId> edge_user;
  std::vector<StreamId> user_edge_stream;
  std::vector<double> utility, loads, totals;
  double grand = 0.0;
  std::size_t zeroed = 0;
};

// The comparison-sort build the counting sorts replaced: filter, sort by
// (stream, user), reject adjacent duplicates, fill, then sort an index
// permutation by (user, stream) for the mirror.
Csr reference_build(const RawInput& in) {
  Csr out;
  std::vector<RawInput::Edge> kept;
  for (const RawInput::Edge& e : in.edges) {
    if (e.w <= 0.0) continue;
    bool over_cap = false;
    for (std::size_t j = 0; j < e.loads.size(); ++j)
      over_cap = over_cap ||
                 !util::approx_le(e.loads[j],
                                  in.caps[static_cast<std::size_t>(e.u)][j]);
    if (over_cap) {
      ++out.zeroed;
      continue;
    }
    kept.push_back(e);
  }
  std::sort(kept.begin(), kept.end(), [](const auto& a, const auto& b) {
    return a.s != b.s ? a.s < b.s : a.u < b.u;
  });
  for (std::size_t i = 1; i < kept.size(); ++i)
    if (kept[i].s == kept[i - 1].s && kept[i].u == kept[i - 1].u)
      throw std::invalid_argument("build: duplicate (user, stream) interest");
  out.stream_offsets.assign(in.costs.size() + 1, 0);
  out.totals.assign(in.costs.size(), 0.0);
  for (const RawInput::Edge& e : kept) {
    ++out.stream_offsets[static_cast<std::size_t>(e.s) + 1];
    out.edge_user.push_back(e.u);
    out.utility.push_back(e.w);
    out.loads.insert(out.loads.end(), e.loads.begin(), e.loads.end());
    out.totals[static_cast<std::size_t>(e.s)] += e.w;
    out.grand += e.w;
  }
  std::partial_sum(out.stream_offsets.begin(), out.stream_offsets.end(),
                   out.stream_offsets.begin());
  std::vector<EdgeId> order(kept.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](EdgeId a, EdgeId b) {
    const auto& ea = kept[static_cast<std::size_t>(a)];
    const auto& eb = kept[static_cast<std::size_t>(b)];
    return ea.u != eb.u ? ea.u < eb.u : ea.s < eb.s;
  });
  out.user_offsets.assign(in.caps.size() + 1, 0);
  for (const EdgeId e : order) {
    ++out.user_offsets[static_cast<std::size_t>(kept[static_cast<std::size_t>(e)].u) + 1];
    out.user_edge_idx.push_back(e);
    out.user_edge_stream.push_back(kept[static_cast<std::size_t>(e)].s);
  }
  std::partial_sum(out.user_offsets.begin(), out.user_offsets.end(),
                   out.user_offsets.begin());
  return out;
}

// The builder under test, fed `in` with its edges in `order`.
Instance build_new(const RawInput& in, const std::vector<std::size_t>& order) {
  InstanceBuilder b(in.m, in.mc);
  for (int i = 0; i < in.m; ++i)
    b.set_budget(i, in.budgets[static_cast<std::size_t>(i)]);
  for (const auto& c : in.costs) b.add_stream(c);
  for (const auto& k : in.caps) b.add_user(k);
  for (const std::size_t k : order) {
    const RawInput::Edge& e = in.edges[k];
    b.add_interest(e.u, e.s, e.w, e.loads);
  }
  return std::move(b).build();
}

std::vector<std::size_t> identity_order(const RawInput& in) {
  std::vector<std::size_t> order(in.edges.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  return order;
}

std::vector<std::size_t> shuffled_order(const RawInput& in,
                                        std::uint64_t seed) {
  std::vector<std::size_t> order = identity_order(in);
  util::Rng rng(seed);
  rng.shuffle(order);
  return order;
}

// The builder input that reproduces `inst` (its kept edges, in CSR order).
RawInput raw_of(const Instance& inst) {
  RawInput in;
  in.m = inst.num_server_measures();
  in.mc = inst.num_user_measures();
  in.budgets.assign(inst.budgets().begin(), inst.budgets().end());
  for (std::size_t s = 0; s < inst.num_streams(); ++s) {
    in.costs.emplace_back();
    for (int i = 0; i < in.m; ++i)
      in.costs.back().push_back(inst.cost(static_cast<StreamId>(s), i));
  }
  for (std::size_t u = 0; u < inst.num_users(); ++u) {
    in.caps.emplace_back();
    for (int j = 0; j < in.mc; ++j)
      in.caps.back().push_back(inst.capacity(static_cast<UserId>(u), j));
  }
  for (std::size_t s = 0; s < inst.num_streams(); ++s) {
    const auto sid = static_cast<StreamId>(s);
    for (EdgeId e = inst.first_edge(sid); e < inst.last_edge(sid); ++e) {
      RawInput::Edge edge{inst.edge_user(e), sid, inst.edge_utility(e), {}};
      for (int j = 0; j < in.mc; ++j) edge.loads.push_back(inst.edge_load(e, j));
      in.edges.push_back(std::move(edge));
    }
  }
  return in;
}

// Twins of existing pairs that the builder must drop without calling them
// duplicates: a zero-utility twin, and (where some cap is finite) a twin
// whose load exceeds the cap.
void add_dropped_twins(RawInput& in, std::uint64_t seed) {
  if (in.edges.empty()) return;
  util::Rng rng(seed);
  const std::size_t n = in.edges.size();
  for (int t = 0; t < 8; ++t) {
    RawInput::Edge twin =
        in.edges[static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(n) - 1))];
    if (t % 2 == 0) {
      twin.w = 0.0;
    } else {
      const auto& caps = in.caps[static_cast<std::size_t>(twin.u)];
      const auto j = std::find_if(caps.begin(), caps.end(), [](double k) {
        return !util::is_unbounded(k);
      });
      if (j == caps.end()) continue;
      twin.loads[static_cast<std::size_t>(j - caps.begin())] = 2.0 * *j + 1.0;
    }
    in.edges.push_back(std::move(twin));
  }
}

template <typename T>
std::vector<T> to_vector(std::span<const T> s) {
  return {s.begin(), s.end()};
}

std::vector<std::uint64_t> bits(const std::vector<double>& v) {
  std::vector<std::uint64_t> out;
  for (const double x : v) out.push_back(std::bit_cast<std::uint64_t>(x));
  return out;
}

// Every CSR array of a built instance.
Csr csr_of(const Instance& inst) {
  Csr out;
  out.stream_offsets = to_vector(inst.stream_offsets());
  out.edge_user = to_vector(inst.edge_users());
  out.utility = to_vector(inst.edge_utilities());
  for (std::size_t e = 0; e < inst.num_edges(); ++e)
    for (int j = 0; j < inst.num_user_measures(); ++j)
      out.loads.push_back(inst.edge_load(static_cast<EdgeId>(e), j));
  out.user_offsets = to_vector(inst.user_offsets());
  out.user_edge_idx = to_vector(inst.user_edge_indices());
  out.user_edge_stream = to_vector(inst.user_edge_streams());
  out.totals = to_vector(inst.stream_total_utilities());
  out.grand = inst.utility_upper_bound();
  out.zeroed = inst.num_edges_zeroed_by_capacity();
  return out;
}

void expect_matches(const Instance& inst, const Csr& ref,
                    const std::string& where) {
  const Csr got = csr_of(inst);
  EXPECT_EQ(got.stream_offsets, ref.stream_offsets) << where;
  EXPECT_EQ(got.edge_user, ref.edge_user) << where;
  EXPECT_EQ(bits(got.utility), bits(ref.utility)) << where;
  EXPECT_EQ(bits(got.loads), bits(ref.loads)) << where;
  EXPECT_EQ(got.user_offsets, ref.user_offsets) << where;
  EXPECT_EQ(got.user_edge_idx, ref.user_edge_idx) << where;
  EXPECT_EQ(got.user_edge_stream, ref.user_edge_stream) << where;
  EXPECT_EQ(bits(got.totals), bits(ref.totals)) << where;
  EXPECT_EQ(bits({got.grand}), bits({ref.grand})) << where;
  EXPECT_EQ(got.zeroed, ref.zeroed) << where;
}

// Both builds of `in`, under the given add order.
void expect_builds_agree(const RawInput& in,
                         const std::vector<std::size_t>& order,
                         const std::string& where) {
  const Csr ref = reference_build(in);
  expect_matches(build_new(in, order), ref, where);
}

TEST(InstanceBuild, MatchesComparisonSortOnEveryScenarioInAnyAddOrder) {
  for (const std::string& name : engine::ScenarioRegistry::global().names()) {
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      engine::ScenarioSpec spec;
      spec.name = name;
      spec.seed = seed;
      const Instance inst = engine::build_scenario(spec);
      const std::string where = name + " seed " + std::to_string(seed);
      RawInput in = raw_of(inst);
      // Rebuilding a built instance from its own kept edges is a fixed
      // point (the edges the generator's build zeroed are not among them).
      Csr fixed_point = reference_build(in);
      fixed_point.zeroed = inst.num_edges_zeroed_by_capacity();
      expect_matches(inst, fixed_point, where);
      expect_builds_agree(in, identity_order(in), where + " csr order");
      expect_builds_agree(in, shuffled_order(in, seed), where + " shuffled");
      add_dropped_twins(in, seed);
      expect_builds_agree(in, shuffled_order(in, seed + 100),
                          where + " shuffled, dropped twins");
    }
  }
}

// Random multi-measure inputs: m = 2 with mc in {0, 1, 2}, some edges
// over a cap, some zero, on a shuffled add order.
TEST(InstanceBuild, MatchesComparisonSortForMultiMeasureAndZeroCapacityForms) {
  for (const int mc : {0, 1, 2}) {
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      util::Rng rng(seed * 31 + static_cast<std::uint64_t>(mc));
      RawInput in;
      in.m = 2;
      in.mc = mc;
      in.budgets = {10.0, kUnbounded};
      const int streams = 30;
      const int users = 17;
      for (int s = 0; s < streams; ++s)
        in.costs.push_back({rng.uniform(0.0, 10.0), rng.uniform(0.0, 50.0)});
      for (int u = 0; u < users; ++u) {
        in.caps.emplace_back();
        for (int j = 0; j < mc; ++j)
          in.caps.back().push_back(j == 1 && u % 5 == 0 ? kUnbounded
                                                        : rng.uniform(1.0, 4.0));
      }
      for (int s = 0; s < streams; ++s) {
        for (int u = 0; u < users; ++u) {
          if (rng.uniform() < 0.6) continue;
          RawInput::Edge e{u, s, rng.uniform() < 0.1 ? 0.0 : rng.uniform(0.1, 3.0),
                           {}};
          for (int j = 0; j < mc; ++j) e.loads.push_back(rng.uniform(0.0, 4.5));
          in.edges.push_back(std::move(e));
        }
      }
      const std::string where = "mc " + std::to_string(mc) + " seed " +
                                std::to_string(seed);
      expect_builds_agree(in, shuffled_order(in, seed), where);
      const Instance built = build_new(in, identity_order(in));
      EXPECT_FALSE(built.is_unit_skew()) << where;
      if (mc >= 1) EXPECT_GT(built.num_edges_zeroed_by_capacity(), 0u) << where;
    }
  }
}

InstanceBuilder one_measure_builder(int streams, int users) {
  InstanceBuilder b(1, 1);
  b.set_budget(0, 10.0);
  for (int s = 0; s < streams; ++s) b.add_stream({1.0});
  for (int u = 0; u < users; ++u) b.add_user({5.0});
  return b;
}

TEST(InstanceBuild, RejectsDuplicatesThatAreNotAdjacentInAddOrder) {
  InstanceBuilder b = one_measure_builder(3, 3);
  b.add_interest(0, 1, 1.0, {1.0});
  b.add_interest(2, 0, 1.0, {1.0});
  b.add_interest(1, 1, 1.0, {1.0});
  b.add_interest(2, 2, 1.0, {1.0});
  b.add_interest(0, 1, 2.0, {2.0});  // twin of the first add
  try {
    (void)std::move(b).build();
    FAIL() << "duplicate accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(), "build: duplicate (user, stream) interest");
  }
}

TEST(InstanceBuild, DuplicateOfADroppedTwinIsNotAnError) {
  InstanceBuilder b = one_measure_builder(2, 2);
  b.add_interest(0, 0, 0.0, {0.0});  // zero utility: dropped
  b.add_interest(1, 1, 9.0, {9.0});  // load above the cap: zeroed
  b.add_interest(0, 1, 1.0, {1.0});
  b.add_interest(1, 1, 2.0, {2.0});
  b.add_interest(0, 0, 3.0, {3.0});
  const Instance inst = std::move(b).build();
  EXPECT_EQ(inst.num_edges(), 3u);
  EXPECT_EQ(inst.num_edges_zeroed_by_capacity(), 1u);
  EXPECT_EQ(inst.utility(0, 0), 3.0);
  EXPECT_EQ(inst.utility(1, 1), 2.0);
  EXPECT_TRUE(inst.is_unit_skew());
}

// The overlay's snapshot against the reference build of the same
// effective state: dead pairs dropped, the effective caps applied.
RawInput effective_state(const InstanceOverlay& overlay) {
  const Instance& base = overlay.instance();
  RawInput in = raw_of(base);
  in.edges.clear();
  for (std::size_t u = 0; u < base.num_users(); ++u)
    in.caps[u] = {overlay.capacity(static_cast<UserId>(u))};
  for (std::size_t s = 0; s < base.num_streams(); ++s) {
    const auto sid = static_cast<StreamId>(s);
    for (EdgeId e = base.first_edge(sid); e < base.last_edge(sid); ++e) {
      const double w = overlay.edge_utility(e);
      if (w > 0.0) in.edges.push_back({base.edge_user(e), sid, w, {w}});
    }
  }
  return in;
}

Instance cap_world(std::uint64_t seed) {
  gen::RandomCapConfig cfg;
  cfg.num_streams = 40;
  cfg.num_users = 15;
  cfg.seed = seed;
  return gen::random_cap_instance(cfg);
}

TEST(InstanceBuild, MaterializeMatchesReferenceAfterAppendsAndChurn) {
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    const Instance parent = cap_world(seed);
    InstanceOverlay overlay(parent);
    const std::string where = "seed " + std::to_string(seed);
    expect_matches(overlay.materialize(),
                   reference_build(effective_state(overlay)), where);

    // Appends rebuild the base; its CSR must match the reference too.
    const std::vector<InterestSpec> user_interests = {
        {3, kInvalidUser, 0.5}, {0, kInvalidUser, 0.25}};
    overlay.append_user(2.0, user_interests);
    const std::vector<InterestSpec> stream_interests = {
        {kInvalidStream, 1, 0.75}, {kInvalidStream, 15, 0.5}};
    overlay.append_stream(1.0, stream_interests);
    EXPECT_EQ(overlay.generation(), 2u);
    const Instance& base = overlay.instance();
    expect_matches(base, reference_build(raw_of(base)), where + " rebuilt");
    expect_matches(overlay.materialize(),
                   reference_build(effective_state(overlay)),
                   where + " after appends");

    for (const InstanceEvent& ev : workload::WorkloadRegistry::global().generate(
             "churn", base,
             {{"events", "60"}, {"seed", std::to_string(seed + 10)}}))
      overlay.apply(ev);
    expect_matches(overlay.materialize(),
                   reference_build(effective_state(overlay)),
                   where + " after churn");
  }
}

TEST(InstanceBuild, SnapshotRejectsSpansOfTheWrongSize) {
  const Instance parent = cap_world(1);
  const std::vector<double> caps(parent.num_users(), 1.0);
  const std::vector<double> short_edges(parent.num_edges() - 1, 1.0);
  EXPECT_THROW((void)snapshot_instance(parent, short_edges, caps),
               std::invalid_argument);
}

}  // namespace
}  // namespace vdist::model
