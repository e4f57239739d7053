// model::InstanceOverlay: tombstone/restore semantics, value events,
// appends with rebuild, and the materialize() <-> view() contract the
// serving-session parity suite relies on.
#include "model/overlay.h"

#include <gtest/gtest.h>

#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "gen/random_instances.h"
#include "io/event_io.h"
#include "io/instance_io.h"
#include "model/factory.h"
#include "workload/workload.h"

namespace vdist::model {
namespace {

Instance small_cap() {
  // 3 streams x 3 users; every value distinct so accounting mistakes show.
  return build_cap_instance({2.0, 3.0, 4.0}, 9.0, {10.0, 12.0, 14.0},
                            {{0, 0, 4.0},
                             {1, 0, 5.0},
                             {1, 1, 6.0},
                             {2, 1, 7.0},
                             {2, 2, 8.0}});
}

TEST(InstanceOverlay, RequiresCapForm) {
  InstanceBuilder b(2, 1);
  b.set_budget(0, 1.0);
  b.set_budget(1, 1.0);
  const Instance mmd = std::move(b).build();
  EXPECT_THROW(InstanceOverlay{mmd}, std::invalid_argument);
}

TEST(InstanceOverlay, StartsAsIdentityOverTheParent) {
  const Instance inst = small_cap();
  InstanceOverlay overlay(inst);
  EXPECT_EQ(&overlay.instance(), &inst);
  EXPECT_EQ(overlay.generation(), 0u);
  for (std::size_t s = 0; s < inst.num_streams(); ++s)
    EXPECT_DOUBLE_EQ(overlay.total_utility(static_cast<StreamId>(s)),
                     inst.total_utility(static_cast<StreamId>(s)));
  for (std::size_t u = 0; u < inst.num_users(); ++u)
    EXPECT_DOUBLE_EQ(overlay.capacity(static_cast<UserId>(u)),
                     inst.capacity(static_cast<UserId>(u), 0));
  EXPECT_DOUBLE_EQ(overlay.pair_utility(1, 1), 6.0);
}

TEST(InstanceOverlay, UserLeaveZeroesAndJoinRestoresExactly) {
  const Instance parent = small_cap();
  InstanceOverlay overlay(parent);
  const double t0 = overlay.total_utility(0);
  EXPECT_TRUE(overlay.user_leave(1));
  EXPECT_FALSE(overlay.user_leave(1));  // idempotent
  EXPECT_DOUBLE_EQ(overlay.capacity(1), 0.0);
  EXPECT_DOUBLE_EQ(overlay.pair_utility(1, 0), 0.0);
  EXPECT_DOUBLE_EQ(overlay.pair_utility(1, 1), 0.0);
  EXPECT_DOUBLE_EQ(overlay.total_utility(0), 4.0);  // only user 0 left
  EXPECT_TRUE(overlay.user_join(1));
  EXPECT_DOUBLE_EQ(overlay.capacity(1), 12.0);
  EXPECT_DOUBLE_EQ(overlay.pair_utility(1, 0), 5.0);
  EXPECT_DOUBLE_EQ(overlay.total_utility(0), t0);
}

TEST(InstanceOverlay, StreamTombstoneAndRestore) {
  const Instance parent = small_cap();
  InstanceOverlay overlay(parent);
  EXPECT_TRUE(overlay.stream_remove(1));
  EXPECT_DOUBLE_EQ(overlay.total_utility(1), 0.0);
  EXPECT_DOUBLE_EQ(overlay.pair_utility(2, 1), 0.0);
  EXPECT_TRUE(overlay.stream_add(1));
  EXPECT_DOUBLE_EQ(overlay.total_utility(1), 13.0);
}

TEST(InstanceOverlay, UtilityOverrideSurvivesTombstoneCycle) {
  const Instance parent = small_cap();
  InstanceOverlay overlay(parent);
  overlay.set_utility(1, 1, 2.5);
  EXPECT_DOUBLE_EQ(overlay.pair_utility(1, 1), 2.5);
  EXPECT_DOUBLE_EQ(overlay.total_utility(1), 2.5 + 7.0);
  overlay.user_leave(1);
  EXPECT_DOUBLE_EQ(overlay.pair_utility(1, 1), 0.0);
  overlay.user_join(1);
  EXPECT_DOUBLE_EQ(overlay.pair_utility(1, 1), 2.5)
      << "an explicit override must outlive a tombstone/restore cycle";
  EXPECT_THROW(overlay.set_utility(0, 2, 1.0), std::invalid_argument)
      << "pair outside the interest graph";
}

TEST(InstanceOverlay, CapacityChangeIsDeclaredWhileDeparted) {
  const Instance parent = small_cap();
  InstanceOverlay overlay(parent);
  overlay.user_leave(2);
  overlay.set_capacity(2, 21.0);
  EXPECT_DOUBLE_EQ(overlay.capacity(2), 0.0) << "departed: effective cap 0";
  overlay.user_join(2);
  EXPECT_DOUBLE_EQ(overlay.capacity(2), 21.0);
}

// A join's cap <= 0 keeps the declared cap; NaN is no cap at all and is
// rejected like set_capacity's, departed or alive, with nothing changed.
TEST(InstanceOverlay, JoinRejectsANaNCapAndChangesNothing) {
  const Instance parent = small_cap();
  InstanceOverlay overlay(parent);
  const auto state = [&] {
    std::vector<double> out(overlay.edge_utilities().begin(),
                            overlay.edge_utilities().end());
    out.insert(out.end(), overlay.capacities().begin(),
               overlay.capacities().end());
    out.insert(out.end(), overlay.total_utilities().begin(),
               overlay.total_utilities().end());
    return out;
  };
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const auto alive = state();
  EXPECT_THROW(overlay.user_join(1, nan), std::invalid_argument);
  EXPECT_EQ(state(), alive);
  EXPECT_TRUE(overlay.user_alive(1));

  overlay.user_leave(1);
  const auto departed = state();
  EXPECT_THROW(overlay.user_join(1, nan), std::invalid_argument);
  InstanceEvent join;
  join.type = EventType::kUserJoin;
  join.user = 1;
  join.value = nan;
  EXPECT_THROW(overlay.apply(join), std::invalid_argument);
  EXPECT_EQ(state(), departed);
  EXPECT_FALSE(overlay.user_alive(1));

  EXPECT_TRUE(overlay.user_join(1, -3.0));  // negative: keep the declared
  EXPECT_DOUBLE_EQ(overlay.capacity(1), 12.0);
}

TEST(InstanceOverlay, AppendUserRebuildsWithStableEntityIds) {
  const Instance parent = small_cap();
  InstanceOverlay overlay(parent);
  overlay.set_utility(1, 1, 2.5);  // must survive the rebuild
  overlay.user_leave(0);           // so must the tombstone
  const UserId added = overlay.append_user(
      9.0, std::vector<InterestSpec>{{/*stream=*/0, kInvalidUser, 3.5},
                                     {/*stream=*/2, kInvalidUser, 1.5}});
  EXPECT_EQ(added, 3);
  EXPECT_EQ(overlay.generation(), 1u);
  EXPECT_NE(&overlay.instance(), &parent);
  EXPECT_EQ(overlay.num_users(), 4u);
  EXPECT_DOUBLE_EQ(overlay.pair_utility(added, 0), 3.5);
  EXPECT_DOUBLE_EQ(overlay.capacity(added), 9.0);
  EXPECT_DOUBLE_EQ(overlay.pair_utility(1, 1), 2.5);
  EXPECT_DOUBLE_EQ(overlay.pair_utility(0, 0), 0.0);  // still departed
  EXPECT_DOUBLE_EQ(overlay.total_utility(0), 5.0 + 3.5);
  // The view stays coherent over the rebuilt base.
  const InstanceView view = overlay.view();
  EXPECT_EQ(view.num_users(), 4u);
  EXPECT_DOUBLE_EQ(view.total_utility(0), 8.5);
}

// A pair above its appended user's cap is structure all the same: 0
// while the cap excludes it, back when the cap admits it. The base holds
// structure only, so its caps are unbounded.
TEST(InstanceOverlay, AppendedPairAboveItsCapComesBackWithTheCap) {
  const Instance parent = small_cap();
  InstanceOverlay overlay(parent);
  const UserId added = overlay.append_user(
      2.0, std::vector<InterestSpec>{{/*stream=*/1, kInvalidUser, 3.0},
                                     {/*stream=*/0, kInvalidUser, 1.5}});
  EXPECT_TRUE(overlay.instance().find_edge(added, 1).has_value());
  EXPECT_EQ(overlay.instance().capacity(added, 0), kUnbounded);
  EXPECT_DOUBLE_EQ(overlay.pair_utility(added, 1), 0.0);
  EXPECT_DOUBLE_EQ(overlay.pair_utility(added, 0), 1.5);
  EXPECT_DOUBLE_EQ(overlay.capacity(added), 2.0);
  overlay.set_capacity(added, 3.0);
  EXPECT_DOUBLE_EQ(overlay.pair_utility(added, 1), 3.0);
  EXPECT_DOUBLE_EQ(overlay.total_utility(1), 6.0 + 7.0 + 3.0);
}

TEST(InstanceOverlay, AppendStreamOffersToExistingUsers) {
  const Instance parent = small_cap();
  InstanceOverlay overlay(parent);
  const StreamId added = overlay.append_stream(
      1.5, std::vector<InterestSpec>{{kInvalidStream, /*user=*/0, 2.0},
                                     {kInvalidStream, /*user=*/2, 3.0}});
  EXPECT_EQ(added, 3);
  EXPECT_EQ(overlay.num_streams(), 4u);
  EXPECT_DOUBLE_EQ(overlay.total_utility(added), 5.0);
  EXPECT_DOUBLE_EQ(overlay.instance().cost(added, 0), 1.5);
  EXPECT_THROW(
      overlay.append_stream(
          1.0, std::vector<InterestSpec>{{kInvalidStream, 99, 1.0}}),
      std::invalid_argument);
}

TEST(InstanceOverlay, MaterializeBakesTheEffectiveState) {
  const Instance parent = small_cap();
  InstanceOverlay overlay(parent);
  overlay.user_leave(0);
  overlay.stream_remove(2);
  overlay.set_utility(1, 1, 2.5);
  overlay.set_capacity(2, 9.0);
  const Instance snap = overlay.materialize();
  EXPECT_EQ(snap.num_streams(), 3u);
  EXPECT_EQ(snap.num_users(), 3u);
  EXPECT_TRUE(snap.is_unit_skew());
  EXPECT_DOUBLE_EQ(snap.capacity(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(snap.capacity(2, 0), 9.0);
  EXPECT_DOUBLE_EQ(snap.utility(1, 1), 2.5);
  EXPECT_DOUBLE_EQ(snap.utility(0, 0), 0.0);  // departed user's pair gone
  EXPECT_DOUBLE_EQ(snap.total_utility(2), 0.0);
  // Totals must be bit-equal to the overlay view (the parity basis).
  for (std::size_t s = 0; s < snap.num_streams(); ++s)
    EXPECT_EQ(snap.total_utility(static_cast<StreamId>(s)),
              overlay.total_utility(static_cast<StreamId>(s)));
}

// One meaning for a pair above its user's cap: the builder's rule (w = 0
// unless w is approx_le the cap) holds in the live view as in the
// snapshot, through capacity, utility and join events, and the pair
// comes back when the cap admits it again.
TEST(InstanceOverlay, PairsAboveTheCapAreClippedInViewAndSnapshotAlike) {
  const Instance parent = small_cap();
  InstanceOverlay overlay(parent);
  const auto expect_agree = [&](const char* step) {
    const Instance snap = overlay.materialize();
    for (std::size_t uu = 0; uu < overlay.num_users(); ++uu)
      for (std::size_t ss = 0; ss < overlay.num_streams(); ++ss) {
        const auto u = static_cast<UserId>(uu);
        const auto s = static_cast<StreamId>(ss);
        EXPECT_EQ(snap.utility(u, s), overlay.pair_utility(u, s)) << step;
      }
    for (std::size_t ss = 0; ss < overlay.num_streams(); ++ss)
      EXPECT_EQ(snap.total_utility(static_cast<StreamId>(ss)),
                overlay.total_utility(static_cast<StreamId>(ss)))
          << step;
  };
  overlay.set_capacity(1, 5.5);  // (1, 1) = 6 crosses, (1, 0) = 5 stays
  EXPECT_EQ(overlay.pair_utility(1, 1), 0.0);
  EXPECT_EQ(overlay.pair_utility(1, 0), 5.0);
  EXPECT_EQ(overlay.total_utility(1), 7.0);
  EXPECT_EQ(overlay.total_utility(0), 9.0);
  expect_agree("cap below a pair");
  overlay.set_utility(2, 2, 20.0);  // above user 2's cap of 14
  EXPECT_EQ(overlay.pair_utility(2, 2), 0.0);
  EXPECT_EQ(overlay.total_utility(2), 0.0);
  expect_agree("utility above the cap");
  overlay.user_leave(0);
  overlay.user_join(0, 3.0);  // (0, 0) = 4 returns above the new cap
  EXPECT_EQ(overlay.pair_utility(0, 0), 0.0);
  EXPECT_EQ(overlay.total_utility(0), 5.0);
  expect_agree("join below a pair");
  overlay.set_capacity(1, 12.0);
  overlay.set_capacity(2, 25.0);
  overlay.user_join(0, 10.0);  // already alive: a cap change
  EXPECT_EQ(overlay.pair_utility(1, 1), 6.0);
  EXPECT_EQ(overlay.pair_utility(2, 2), 20.0);
  EXPECT_EQ(overlay.pair_utility(0, 0), 4.0);
  EXPECT_EQ(overlay.total_utility(0), 9.0);
  EXPECT_EQ(overlay.total_utility(1), 13.0);
  EXPECT_EQ(overlay.total_utility(2), 20.0);
  expect_agree("caps lifted");
}

TEST(InstanceOverlay, ApplyDispatchesAndValidates) {
  const Instance parent = small_cap();
  InstanceOverlay overlay(parent);
  InstanceEvent ev;
  ev.type = EventType::kCapacityChange;
  ev.user = 0;
  ev.value = 99.0;
  overlay.apply(ev);
  EXPECT_DOUBLE_EQ(overlay.capacity(0), 99.0);
  ev.user = 77;
  EXPECT_THROW(overlay.apply(ev), std::invalid_argument);
  InstanceEvent bad_stream;
  bad_stream.type = EventType::kStreamRemove;
  bad_stream.stream = 42;
  EXPECT_THROW(overlay.apply(bad_stream), std::invalid_argument);
}

TEST(EventTrace, DeterministicAndParitySafe) {
  gen::RandomCapConfig cfg;
  cfg.num_streams = 25;
  cfg.num_users = 10;
  cfg.seed = 11;
  const Instance inst = gen::random_cap_instance(cfg);
  const std::map<std::string, std::string> ecfg = {{"events", "300"},
                                                   {"seed", "21"}};
  const workload::WorkloadRegistry& registry =
      workload::WorkloadRegistry::global();
  const auto a = registry.generate("churn", inst, ecfg);
  const auto b = registry.generate("churn", inst, ecfg);
  ASSERT_EQ(a.size(), 300u);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(static_cast<int>(a[i].type), static_cast<int>(b[i].type));
    EXPECT_EQ(a[i].user, b[i].user);
    EXPECT_EQ(a[i].stream, b[i].stream);
    EXPECT_EQ(a[i].value, b[i].value);
  }
  // Replay keeps every live pair within its user's cap (the standing
  // w <= W assumption that makes materialize() parity-exact).
  InstanceOverlay overlay(inst);
  for (const InstanceEvent& ev : a) {
    overlay.apply(ev);
    for (std::size_t u = 0; u < overlay.num_users(); ++u) {
      if (!overlay.user_alive(static_cast<UserId>(u))) continue;
      const auto edges = overlay.instance().edges_of(static_cast<UserId>(u));
      for (const EdgeId e : edges)
        EXPECT_LE(overlay.edge_utility(e),
                  overlay.capacity(static_cast<UserId>(u)) + 1e-12);
    }
  }
}

TEST(EventIo, RoundTripsEveryEventKind) {
  std::vector<InstanceEvent> events(6);
  events[0].type = EventType::kUserLeave;
  events[0].user = 3;
  events[1].type = EventType::kUserJoin;
  events[1].user = 3;
  events[1].value = 7.5;
  events[2].type = EventType::kStreamRemove;
  events[2].stream = 2;
  events[3].type = EventType::kStreamAdd;
  events[3].stream = 5;
  events[3].value = 1.25;
  events[3].interests = {{kInvalidStream, 0, 2.0}, {kInvalidStream, 4, 0.5}};
  events[4].type = EventType::kCapacityChange;
  events[4].user = 1;
  events[4].value = model::kUnbounded;
  events[5].type = EventType::kUtilityChange;
  events[5].user = 2;
  events[5].stream = 1;
  events[5].value = 0.062559604644775391;

  std::ostringstream os;
  io::save_events(os, events);
  std::istringstream is(os.str());
  const auto loaded = io::load_events(is);
  ASSERT_EQ(loaded.size(), events.size());
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(static_cast<int>(loaded[i].type),
              static_cast<int>(events[i].type));
    EXPECT_EQ(loaded[i].user, events[i].user);
    EXPECT_EQ(loaded[i].stream, events[i].stream);
    EXPECT_EQ(loaded[i].value, events[i].value);  // exact round-trip
    ASSERT_EQ(loaded[i].interests.size(), events[i].interests.size());
    for (std::size_t k = 0; k < events[i].interests.size(); ++k) {
      EXPECT_EQ(loaded[i].interests[k].user, events[i].interests[k].user);
      EXPECT_EQ(loaded[i].interests[k].utility,
                events[i].interests[k].utility);
    }
  }

  std::istringstream bad("vdist-events 1\nfrobnicate 3\n");
  EXPECT_THROW(io::load_events(bad), std::runtime_error);
  std::istringstream headerless("leave 3\n");
  EXPECT_THROW(io::load_events(headerless), std::runtime_error);
  // An id past INT32_MAX is rejected, not wrapped onto a small id.
  std::istringstream wide("vdist-events 1\ncapacity 4294967296 1.5\n");
  try {
    (void)io::load_events(wide);
    ADD_FAILURE() << "id 4294967296 was accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(
                  "line 2: expected a non-negative id, got '4294967296'"),
              std::string::npos)
        << e.what();
  }
}

}  // namespace
}  // namespace vdist::model
