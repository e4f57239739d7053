// Differential tests for InstanceBuilder::build(): the counting-sort CSR
// must be bit-identical to the comparison-sort build it replaced, kept
// here as the reference, on every registered scenario, under any order of
// adds, with dropped and zeroed edges mixed in, and through the overlay's
// rebuild path. snapshot_instance(), which filters a base CSR instead of
// building, is held to the same reference after every event of a seeded
// random trace over the whole event vocabulary.
#include "model/instance.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "engine/scenario.h"
#include "gen/random_instances.h"
#include "io/event_io.h"
#include "io/instance_io.h"
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
      if (mc >= 1) {
        EXPECT_GT(built.num_edges_zeroed_by_capacity(), 0u) << where;
      }
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

// A base whose costs, budgets or loads the snapshot's cap form cannot
// carry is refused, not flattened to one measure or to load == utility.
TEST(InstanceBuild, SnapshotRejectsABaseThatIsNotUnitSkewCapForm) {
  const auto snapshot_of = [](const Instance& base) {
    const std::vector<double> w(base.edge_utilities().begin(),
                                base.edge_utilities().end());
    const std::vector<double> caps(base.num_users(), 5.0);
    return snapshot_instance(base, w, caps);
  };
  InstanceBuilder two_costs(2, 1);
  two_costs.add_stream({1.0, 2.0});
  two_costs.add_user({5.0});
  two_costs.add_interest(0, 0, 1.0, {1.0});
  EXPECT_THROW((void)snapshot_of(std::move(two_costs).build()),
               std::invalid_argument);

  InstanceBuilder loads_differ = one_measure_builder(2, 2);
  loads_differ.add_interest(0, 0, 1.0, {2.0});
  loads_differ.add_interest(1, 1, 1.0, {1.0});
  const Instance skewed = std::move(loads_differ).build();
  ASSERT_TRUE(skewed.is_smd());
  ASSERT_FALSE(skewed.is_unit_skew());
  EXPECT_THROW((void)snapshot_of(skewed), std::invalid_argument);

  InstanceBuilder no_caps(1, 0);
  no_caps.add_stream({1.0});
  no_caps.add_user({});
  no_caps.add_interest(0, 0, 1.0, {});
  EXPECT_THROW((void)snapshot_of(std::move(no_caps).build()),
               std::invalid_argument);
}

// NaN, negative and infinite utilities and NaN or negative caps throw
// instead of vanishing through the w > 0 filter; 0, -0 and an unbounded
// or zero cap are accepted.
TEST(InstanceBuild, SnapshotRejectsUtilitiesAndCapsItCannotRepresent) {
  const Instance parent = cap_world(2);
  const std::vector<double> w(parent.edge_utilities().begin(),
                              parent.edge_utilities().end());
  const std::vector<double> caps(parent.num_users(), 3.0);
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(), -1.0,
                           -std::numeric_limits<double>::denorm_min(),
                           kUnbounded, -kUnbounded}) {
    std::vector<double> edges = w;
    edges[edges.size() / 2] = bad;
    EXPECT_THROW((void)snapshot_instance(parent, edges, caps),
                 std::invalid_argument)
        << "utility " << bad;
  }
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(), -1.0,
                           -kUnbounded}) {
    std::vector<double> k = caps;
    k.back() = bad;
    EXPECT_THROW((void)snapshot_instance(parent, w, k), std::invalid_argument)
        << "cap " << bad;
  }
  std::vector<double> edges = w;
  edges[0] = 0.0;
  edges[1] = -0.0;
  std::vector<double> k = caps;
  k[0] = 0.0;
  k[1] = kUnbounded;
  const Instance snap = snapshot_instance(parent, edges, k);
  EXPECT_EQ(snap.num_edges() + 2 + snap.num_edges_zeroed_by_capacity(),
            parent.num_edges());
}

// --- Seeded differential of snapshots over the accepted vocabulary -------

StreamId stream_of_edge(const Instance& inst, EdgeId e) {
  const auto offsets = inst.stream_offsets();
  return static_cast<StreamId>(
      std::upper_bound(offsets.begin(), offsets.end(), e) - offsets.begin() -
      1);
}

InstanceEvent make_event(EventType type, UserId u, StreamId s, double value) {
  InstanceEvent ev;
  ev.type = type;
  ev.user = u;
  ev.stream = s;
  ev.value = value;
  return ev;
}

// Distinct random ids in [0, count), at most `most` of them.
std::vector<std::int32_t> distinct_ids(util::Rng& rng, std::size_t count,
                                       int most) {
  std::set<std::int32_t> ids;
  const auto n = rng.uniform_int(1, most);
  for (std::int64_t k = 0; k < n; ++k)
    ids.insert(static_cast<std::int32_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(count) - 1)));
  return {ids.begin(), ids.end()};
}

// One random accepted event against the overlay's current state. Unlike
// generator traces these push pairs across their caps: caps of 0, inf,
// exactly a pair's utility and one ulp below it; utilities of 0, -0,
// exactly the user's cap and above it; plus (re)joins with a new cap,
// leaves, stream removes and restores, and user and stream appends.
InstanceEvent random_event(const InstanceOverlay& overlay, util::Rng& rng) {
  const Instance& base = overlay.instance();
  const auto e = static_cast<EdgeId>(rng.uniform_int(
      0, static_cast<std::int64_t>(base.num_edges()) - 1));
  const UserId u = base.edge_user(e);
  const StreamId s = stream_of_edge(base, e);
  const double w = overlay.edge_utility(e) > 0.0 ? overlay.edge_utility(e)
                                                 : base.edge_utility(e);
  const double cap = overlay.declared_capacity(u);
  const double finite_cap = util::is_unbounded(cap) ? w : cap;
  switch (rng.uniform_int(0, 19)) {
    case 0:
      return make_event(EventType::kUserJoin, u, kInvalidStream, 0.0);
    case 1:
      return make_event(EventType::kUserJoin, u, kInvalidStream,
                        rng.uniform(0.5, 3.0) * w);
    case 2:
    case 3:
      return make_event(EventType::kUserLeave, u, kInvalidStream, 0.0);
    case 4:
      return make_event(EventType::kCapacityChange, u, kInvalidStream, 0.0);
    case 5:
      return make_event(EventType::kCapacityChange, u, kInvalidStream,
                        kUnbounded);
    case 6:
      return make_event(EventType::kCapacityChange, u, kInvalidStream, w);
    case 7:
      return make_event(EventType::kCapacityChange, u, kInvalidStream,
                        std::nextafter(w, 0.0));
    case 8:
      return make_event(EventType::kUtilityChange, u, s, 0.0);
    case 9:
      return make_event(EventType::kUtilityChange, u, s, -0.0);
    case 10:
      return make_event(EventType::kUtilityChange, u, s, finite_cap);
    case 11:
      return make_event(EventType::kUtilityChange, u, s,
                        finite_cap * rng.uniform(1.01, 2.0) + 0.25);
    case 12:
      return make_event(EventType::kUtilityChange, u, s,
                        rng.uniform(0.25, 1.5) * w);
    case 13:
    case 14:
      return make_event(EventType::kStreamRemove, kInvalidUser, s, 0.0);
    case 15:
    case 16:
      return make_event(EventType::kStreamAdd, kInvalidUser, s, 0.0);
    case 17: {
      InstanceEvent ev = make_event(
          EventType::kUserJoin, static_cast<UserId>(overlay.num_users()),
          kInvalidStream, rng.bernoulli(0.2) ? kUnbounded
                                             : rng.uniform(1.0, 20.0));
      for (const std::int32_t peer :
           distinct_ids(rng, overlay.num_streams(), 3))
        ev.interests.push_back({peer, kInvalidUser, rng.uniform(0.5, 12.0)});
      return ev;
    }
    case 18: {
      const double budget = overlay.budget();
      InstanceEvent ev = make_event(
          EventType::kStreamAdd, kInvalidUser,
          static_cast<StreamId>(overlay.num_streams()),
          rng.uniform(0.0, util::is_unbounded(budget) ? 10.0 : budget));
      for (const std::int32_t peer : distinct_ids(rng, overlay.num_users(), 3))
        ev.interests.push_back({kInvalidStream, peer, rng.uniform(0.5, 12.0)});
      return ev;
    }
    default:  // a rejoin with the pair's own utility as the new cap
      return make_event(EventType::kUserJoin, u, kInvalidStream, w);
  }
}

// One event the overlay must refuse: an unknown id, a NaN or negative
// utility, a negative or NaN cap, an appended stream that costs more than
// the budget or an appended user that names a stream twice.
InstanceEvent invalid_event(const InstanceOverlay& overlay, util::Rng& rng) {
  const Instance& base = overlay.instance();
  const auto e = static_cast<EdgeId>(rng.uniform_int(
      0, static_cast<std::int64_t>(base.num_edges()) - 1));
  const UserId u = base.edge_user(e);
  const StreamId s = stream_of_edge(base, e);
  const auto users = static_cast<UserId>(overlay.num_users());
  const auto streams = static_cast<StreamId>(overlay.num_streams());
  const double nan = std::numeric_limits<double>::quiet_NaN();
  switch (rng.uniform_int(0, 10)) {
    case 0:
      return make_event(EventType::kUserLeave, users + 1, kInvalidStream, 0.0);
    case 9: {
      InstanceEvent ev = make_event(EventType::kUserJoin, users,
                                    kInvalidStream, 5.0);
      ev.interests = {{s, kInvalidUser, 1.0}, {s, kInvalidUser, 2.0}};
      return ev;
    }
    case 10:
      if (!util::is_unbounded(overlay.budget()))
        return make_event(EventType::kStreamAdd, kInvalidUser, streams,
                          2.0 * overlay.budget() + 1.0);
      [[fallthrough]];
    case 1:
      return make_event(EventType::kUserJoin, -1, kInvalidStream, 0.0);
    case 2:
      return make_event(EventType::kStreamRemove, kInvalidUser, streams + 1,
                        0.0);
    case 3:
      return make_event(EventType::kUtilityChange, u, streams, 1.0);
    case 4:
      return make_event(EventType::kUtilityChange, u, s, nan);
    case 5:
      return make_event(EventType::kUtilityChange, u, s, -1.0);
    case 6:
      return make_event(EventType::kCapacityChange, u, kInvalidStream, -1.0);
    case 7:
      return make_event(EventType::kCapacityChange, u, kInvalidStream, nan);
    default:
      return make_event(EventType::kCapacityChange, users, kInvalidStream,
                        1.0);
  }
}

// Raw spans over `base` with a few pairs and caps moved to the builder's
// edge cases: 0, -0, exactly the cap, an ulp above it (still admitted by
// approx_le) and well above it (zeroed); caps of 0 and inf.
void perturb(const Instance& base, std::vector<double>& w,
             std::vector<double>& caps, util::Rng& rng) {
  for (std::size_t e = 0; e < w.size(); ++e) {
    if (!rng.bernoulli(0.15)) continue;
    const double k = caps[static_cast<std::size_t>(
        base.edge_user(static_cast<EdgeId>(e)))];
    const double finite = util::is_unbounded(k) ? 4.0 : k;
    switch (rng.uniform_int(0, 4)) {
      case 0: w[e] = 0.0; break;
      case 1: w[e] = -0.0; break;
      case 2: w[e] = finite; break;
      case 3: w[e] = std::nextafter(finite, kUnbounded); break;
      default: w[e] = 2.0 * finite + 1.0; break;
    }
  }
  for (double& k : caps) {
    if (!rng.bernoulli(0.1)) continue;
    k = rng.bernoulli(0.5) ? 0.0 : kUnbounded;
  }
}

// The builder input of raw snapshot spans: every edge of base with its
// span value (the reference drops the w <= 0 ones and zeroes the rest
// over their cap).
RawInput raw_spans(const Instance& base, const std::vector<double>& w,
                   const std::vector<double>& caps) {
  RawInput in = raw_of(base);
  for (std::size_t u = 0; u < caps.size(); ++u) in.caps[u] = {caps[u]};
  for (std::size_t e = 0; e < in.edges.size(); ++e)
    in.edges[e].w = in.edges[e].loads[0] = w[e];
  return in;
}

// Every value a snapshot carries, beyond the CSR arrays: caps, costs,
// budget, names and the unit-skew flag.
void expect_same_header(const Instance& got, const Instance& want,
                        const std::string& where) {
  ASSERT_EQ(got.num_users(), want.num_users()) << where;
  ASSERT_EQ(got.num_streams(), want.num_streams()) << where;
  EXPECT_EQ(got.is_unit_skew(), want.is_unit_skew()) << where;
  EXPECT_EQ(bits(to_vector(got.budgets())), bits(to_vector(want.budgets())))
      << where;
  EXPECT_EQ(bits(to_vector(got.costs_of_measure(0))),
            bits(to_vector(want.costs_of_measure(0))))
      << where;
  EXPECT_EQ(bits(to_vector(got.capacities_single_measure())),
            bits(to_vector(want.capacities_single_measure())))
      << where;
  for (std::size_t s = 0; s < got.num_streams(); ++s)
    EXPECT_EQ(got.stream_name(static_cast<StreamId>(s)),
              want.stream_name(static_cast<StreamId>(s)))
        << where;
  for (std::size_t u = 0; u < got.num_users(); ++u)
    EXPECT_EQ(got.user_name(static_cast<UserId>(u)),
              want.user_name(static_cast<UserId>(u)))
        << where;
}

// materialize() after every event of a seeded random trace equals the
// reference build of the overlay's effective state, and its header is
// the base's with the effective caps. Every invalid event throws and
// leaves materialize() byte-identical. On the side, raw spans with pairs
// moved onto and across their caps check the zeroed count.
void expect_snapshots_match_reference(InstanceOverlay& overlay,
                                      std::uint64_t seed, int events,
                                      const std::string& name) {
  util::Rng rng(seed);
  std::uint64_t last_uid = overlay.instance().uid();
  Instance before = overlay.materialize();
  for (int i = 0; i < events; ++i) {
    const std::string where = name + " event " + std::to_string(i);
    if (rng.bernoulli(0.1)) {
      const InstanceEvent bad = invalid_event(overlay, rng);
      EXPECT_THROW(overlay.apply(bad), std::invalid_argument) << where;
      const Instance after = overlay.materialize();
      expect_matches(after, csr_of(before), where + " (rejected)");
      expect_same_header(after, before, where + " (rejected)");
      continue;
    }
    overlay.apply(random_event(overlay, rng));
    const Instance& base = overlay.instance();
    const Instance snap = overlay.materialize();
    const RawInput state = effective_state(overlay);
    expect_matches(snap, reference_build(state), where);
    EXPECT_EQ(snap.num_edges_zeroed_by_capacity(), 0u) << where;
    EXPECT_TRUE(snap.is_unit_skew()) << where;
    double upper = 0.0;
    for (const RawInput::Edge& e : state.edges) upper += e.w;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(snap.utility_upper_bound()),
              std::bit_cast<std::uint64_t>(upper))
        << where;
    EXPECT_EQ(bits(to_vector(snap.capacities_single_measure())),
              bits(to_vector(overlay.capacities())))
        << where;
    EXPECT_EQ(bits(to_vector(snap.costs_of_measure(0))),
              bits(to_vector(base.costs_of_measure(0))))
        << where;
    EXPECT_EQ(snap.budget(0), base.budget(0)) << where;
    for (std::size_t s = 0; s < snap.num_streams(); ++s)
      EXPECT_EQ(snap.stream_name(static_cast<StreamId>(s)),
                base.stream_name(static_cast<StreamId>(s)))
          << where;
    for (std::size_t u = 0; u < snap.num_users(); ++u)
      EXPECT_EQ(snap.user_name(static_cast<UserId>(u)),
                base.user_name(static_cast<UserId>(u)))
          << where;
    EXPECT_NE(snap.uid(), 0u) << where;
    EXPECT_NE(snap.uid(), base.uid()) << where;
    EXPECT_NE(snap.uid(), last_uid) << where;
    last_uid = snap.uid();

    std::vector<double> w(overlay.edge_utilities().begin(),
                          overlay.edge_utilities().end());
    std::vector<double> caps(overlay.capacities().begin(),
                             overlay.capacities().end());
    perturb(base, w, caps, rng);
    const Csr raw_ref = reference_build(raw_spans(base, w, caps));
    expect_matches(snapshot_instance(base, w, caps), raw_ref, where + " raw");
    before = snap;
  }
}

TEST(InstanceBuild, SnapshotMatchesReferenceOverTheWholeEventVocabulary) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const Instance parent = cap_world(seed);
    InstanceOverlay overlay(parent);
    expect_snapshots_match_reference(overlay, seed * 7919, 250,
                                     "cap_world " + std::to_string(seed));
  }

  // The committed cap-crossing world: its own trace first, then a random
  // one from where it ends.
  const std::string traces = VDIST_TESTS_DIR "/../bench/traces/";
  const Instance breakers =
      io::load_instance_file(traces + "contract_breakers.vd");
  InstanceOverlay overlay(breakers);
  int i = 0;
  for (const InstanceEvent& ev :
       io::load_events_file(traces + "contract_breakers.events")) {
    overlay.apply(ev);
    expect_matches(overlay.materialize(),
                   reference_build(effective_state(overlay)),
                   "contract_breakers event " + std::to_string(i++));
  }
  expect_snapshots_match_reference(overlay, 17, 250, "contract_breakers");
}

}  // namespace
}  // namespace vdist::model
