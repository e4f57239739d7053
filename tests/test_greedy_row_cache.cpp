// The greedy's prepared rows (SolveWorkspace::user_edge_w/_s, cost_order)
// persist across engines: a warm workspace re-sorts only the rows of users
// whose utilities changed. These tests hold the warm path to the cold one
// bit for bit — the prepared arrays and the drift check's fresh value —
// through churn on every registered scenario, across instance switches
// (another instance on the same workspace, a destroyed instance's storage
// reused, overlay appends), surrogate band views on one base, and a
// 0.0/-0.0 flip that == cannot see.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "cap_form.h"
#include "core/greedy.h"
#include "core/select.h"
#include "core/skew_bands.h"
#include "engine/repair_core.h"
#include "engine/scenario.h"
#include "engine/solver.h"
#include "gen/random_instances.h"
#include "io/instance_io.h"
#include "model/factory.h"
#include "model/instance.h"
#include "model/overlay.h"
#include "model/view.h"
#include "workload/workload.h"

namespace vdist {
namespace {

using core::SolveWorkspace;
using engine::RepairCore;
using engine::WorldRef;
using model::Instance;
using model::InstanceOverlay;
using model::StreamId;
using model::UserId;
using vdist::testing::cap_form_of;

// What one engine prep leaves in a workspace, with utilities as bits.
struct Rows {
  std::vector<std::uint64_t> w;
  std::vector<StreamId> s;
  std::vector<StreamId> cost_order;
  bool operator==(const Rows&) const = default;
};

Rows rows_of(const SolveWorkspace& ws) {
  Rows r;
  for (const double x : ws.user_edge_w)
    r.w.push_back(std::bit_cast<std::uint64_t>(x));
  r.s = ws.user_edge_s;
  r.cost_order = ws.cost_order;
  return r;
}

// Builds an engine on `view` over `ws` (its constructor is the prep) and
// returns the rows it sorted.
std::size_t prep(const model::InstanceView& view, SolveWorkspace& ws) {
  core::GreedyOptions opts;
  opts.workspace = &ws;
  opts.build_assignment = false;
  core::GreedyEngine engine(view, ws, opts);
  return engine.result().select.rows_sorted;
}

// The drift check's yardstick on `ws`: the fresh value's bits and the
// rows its prep sorted.
struct Fresh {
  std::uint64_t bits = 0;
  std::size_t rows_sorted = 0;
};

Fresh fresh(const WorldRef& w, SolveWorkspace& ws, core::SmdMode mode) {
  core::SelectStats select;
  const RepairCore::Context ctx{&ws, core::SelectStrategy::kDelta, mode};
  const double value = engine::fresh_winner_objective(w, ctx, select);
  return {std::bit_cast<std::uint64_t>(value), select.rows_sorted};
}

WorldRef world_of(const InstanceOverlay& overlay) {
  return WorldRef{&overlay.instance(), overlay.edge_utilities(),
                  overlay.total_utilities(), overlay.capacities(),
                  overlay.stream_alive_flags()};
}

// Checks the warm workspace's drift check against a cold one on the
// overlay's current world; returns the rows the warm prep sorted.
std::size_t expect_warm_equals_cold(const InstanceOverlay& overlay,
                                    SolveWorkspace& warm, core::SmdMode mode,
                                    const std::string& where) {
  SolveWorkspace cold;
  const Fresh w = fresh(world_of(overlay), warm, mode);
  const Fresh c = fresh(world_of(overlay), cold, mode);
  EXPECT_EQ(w.bits, c.bits) << where;
  EXPECT_TRUE(rows_of(warm) == rows_of(cold)) << where;
  EXPECT_EQ(c.rows_sorted, overlay.num_users()) << where;
  EXPECT_LE(w.rows_sorted, overlay.num_users()) << where;
  return w.rows_sorted;
}

Instance cap_world(std::uint64_t seed) {
  gen::RandomCapConfig cfg;
  cfg.num_streams = 40;
  cfg.num_users = 15;
  cfg.seed = seed;
  return gen::random_cap_instance(cfg);
}

TEST(GreedyRowCache, InstanceUidIsUniquePerBuildAndSharedByCopies) {
  const Instance a = cap_world(1);
  const Instance b = cap_world(1);
  EXPECT_NE(a.uid(), 0u);
  EXPECT_NE(a.uid(), b.uid());  // same content, separate builds
  const Instance copy = a;
  EXPECT_EQ(copy.uid(), a.uid());

  InstanceOverlay overlay(a);
  EXPECT_EQ(overlay.instance().uid(), a.uid());
  EXPECT_NE(overlay.materialize().uid(), a.uid());
  EXPECT_NE(overlay.materialize().uid(), overlay.materialize().uid());
  const std::vector<model::InterestSpec> interests = {
      {3, model::kInvalidUser, 0.5}};
  overlay.append_user(2.0, interests);
  EXPECT_NE(overlay.instance().uid(), a.uid());

  std::stringstream text;
  io::save_instance(text, a);
  EXPECT_NE(io::load_instance(text).uid(), a.uid());
}

// Every registered scenario (in cap form) × seeds 1-3 through a churn
// trace: at every 8th event a workspace reused since the start agrees
// with a fresh one on the fresh value and the prepared arrays.
TEST(GreedyRowCache, WarmEqualsColdThroughChurnOnEveryScenario) {
  std::size_t warm_sorted = 0;
  std::size_t cold_sorted = 0;
  for (const std::string& name : engine::ScenarioRegistry::global().names()) {
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      engine::ScenarioSpec spec;
      spec.name = name;
      spec.seed = seed;
      const Instance inst = cap_form_of(engine::build_scenario(spec));
      const std::vector<model::InstanceEvent> trace =
          workload::WorkloadRegistry::global().generate(
              "churn", inst,
              {{"events", "64"}, {"seed", std::to_string(seed)}});
      InstanceOverlay overlay(inst);
      SolveWorkspace warm;
      const core::SmdMode mode = seed == 2 ? core::SmdMode::kAugmented
                                           : core::SmdMode::kFeasible;
      for (std::size_t i = 0; i < trace.size(); ++i) {
        overlay.apply(trace[i]);
        if (i % 8 != 7) continue;
        const std::string where =
            name + " seed " + std::to_string(seed) + " event " +
            std::to_string(i);
        warm_sorted += expect_warm_equals_cold(overlay, warm, mode, where);
        cold_sorted += overlay.num_users();
      }
    }
  }
  // Each world's first check is cold; later ones re-sort changed rows.
  EXPECT_LT(2 * warm_sorted, cold_sorted);
}

// A solve of another instance on the same workspace (the parity check's
// snapshot) evicts the rows; the next drift check is a cold one.
TEST(GreedyRowCache, SolvingAnotherInstanceEvictsTheRows) {
  const Instance inst = cap_world(2);
  InstanceOverlay overlay(inst);
  SolveWorkspace ws;
  (void)expect_warm_equals_cold(overlay, ws, core::SmdMode::kFeasible,
                                "open");
  overlay.set_capacity(0, overlay.capacity(0) * 0.5);
  EXPECT_LE(expect_warm_equals_cold(overlay, ws, core::SmdMode::kFeasible,
                                    "warm"),
            1u);

  const Instance snapshot = overlay.materialize();
  core::GreedyOptions opts;
  opts.workspace = &ws;
  (void)core::solve_unit_skew(snapshot, core::SmdMode::kFeasible, opts);
  EXPECT_EQ(ws.row_key.uid, snapshot.uid());

  EXPECT_EQ(expect_warm_equals_cold(overlay, ws, core::SmdMode::kFeasible,
                                    "after the snapshot solve"),
            overlay.num_users());
}

// Two instances with the same dimensions and the same utilities in base
// edge order, different topology, built into the same storage: only the
// uid tells them apart, and it does.
TEST(GreedyRowCache, ReusedStorageWithEqualDimensionsDoesNotHit) {
  const std::vector<double> costs = {1.0, 2.0};
  const std::vector<double> caps = {10.0, 10.0};
  std::optional<Instance> slot;
  slot.emplace(model::build_cap_instance(costs, 5.0, caps,
                                         {{0, 0, 1.0}, {1, 1, 2.0}}));
  const Instance* const address = &*slot;
  const std::uint64_t first_uid = slot->uid();
  SolveWorkspace ws;
  EXPECT_EQ(prep(model::InstanceView::cap_form(*slot), ws), 2u);
  const Rows first = rows_of(ws);

  slot.reset();
  slot.emplace(model::build_cap_instance(costs, 5.0, caps,
                                         {{1, 0, 1.0}, {0, 1, 2.0}}));
  ASSERT_EQ(&*slot, address);
  EXPECT_NE(slot->uid(), first_uid);
  EXPECT_EQ(prep(model::InstanceView::cap_form(*slot), ws), 2u);
  SolveWorkspace cold;
  (void)prep(model::InstanceView::cap_form(*slot), cold);
  EXPECT_TRUE(rows_of(ws) == rows_of(cold));
  EXPECT_FALSE(rows_of(ws) == first);  // the rows really did change
}

// Surrogate views on one base (the §3 band solver's shape): each view
// keeps a third of the edges at a scaled utility and zeroes the rest.
// Alternating them on one workspace matches a cold prep every time.
TEST(GreedyRowCache, SurrogateBandViewsOnOneBase) {
  const Instance base = cap_world(3);
  const std::size_t E = base.num_edges();
  struct Band {
    std::vector<double> w, totals, caps;
  };
  std::vector<Band> bands(3);
  for (std::size_t b = 0; b < bands.size(); ++b) {
    Band& band = bands[b];
    band.w.assign(E, 0.0);
    band.totals.assign(base.num_streams(), 0.0);
    for (std::size_t s = 0; s < base.num_streams(); ++s) {
      const auto sid = static_cast<StreamId>(s);
      for (model::EdgeId e = base.first_edge(sid); e < base.last_edge(sid);
           ++e) {
        const auto ee = static_cast<std::size_t>(e);
        if (ee % bands.size() != b) continue;
        band.w[ee] = base.edge_utility(e) * static_cast<double>(b + 1);
        band.totals[s] += band.w[ee];
      }
    }
    for (std::size_t u = 0; u < base.num_users(); ++u)
      band.caps.push_back(base.capacity(static_cast<UserId>(u), 0) *
                          static_cast<double>(b + 1));
  }
  SolveWorkspace ws;
  for (int round = 0; round < 2; ++round) {
    for (std::size_t b = 0; b < bands.size(); ++b) {
      const model::InstanceView view(base, bands[b].w, bands[b].totals,
                                     bands[b].caps);
      (void)prep(view, ws);
      SolveWorkspace cold;
      (void)prep(view, cold);
      EXPECT_TRUE(rows_of(ws) == rows_of(cold))
          << "round " << round << " band " << b;
    }
  }

  // The band solver itself: its second solve on the workspace starts
  // from the last band's rows and returns the cold result.
  gen::RandomSmdConfig cfg;
  cfg.num_streams = 40;
  cfg.num_users = 15;
  cfg.target_skew = 16.0;
  const Instance smd = gen::random_smd_instance(cfg);
  core::SkewBandsOptions opts;
  const core::SkewBandsResult cold = core::solve_smd_any_skew(smd, opts);
  opts.workspace = &ws;
  (void)core::solve_smd_any_skew(smd, opts);
  const core::SkewBandsResult warm = core::solve_smd_any_skew(smd, opts);
  EXPECT_GT(cold.num_bands, 1);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(warm.utility),
            std::bit_cast<std::uint64_t>(cold.utility));
  EXPECT_EQ(warm.chosen_band, cold.chosen_band);
  EXPECT_EQ(warm.select.picks, cold.select.picks);
  EXPECT_EQ(warm.select.evaluations, cold.select.evaluations);
  EXPECT_EQ(warm.select.pairs_touched, cold.select.pairs_touched);
}

// 0.0 == -0.0, but the two are different bits in user_edge_w: a flip
// re-sorts exactly the edge's row, and the warm rows match a cold prep.
TEST(GreedyRowCache, ZeroSignFlipIsAChange) {
  const Instance base = cap_world(4);
  std::vector<double> w(base.edge_utilities().begin(),
                        base.edge_utilities().end());
  const std::vector<double> totals(base.stream_total_utilities().begin(),
                                   base.stream_total_utilities().end());
  const std::vector<double> caps(base.capacities_single_measure().begin(),
                                 base.capacities_single_measure().end());
  const model::InstanceView view(base, w, totals, caps);
  SolveWorkspace ws;
  EXPECT_EQ(prep(view, ws), base.num_users());
  EXPECT_EQ(prep(view, ws), 0u);  // nothing changed

  const std::size_t e = base.num_edges() / 2;
  for (const double value : {0.0, -0.0, 0.0}) {
    w[e] = value;
    EXPECT_EQ(prep(view, ws), 1u) << value;
    SolveWorkspace cold;
    (void)prep(view, cold);
    EXPECT_TRUE(rows_of(ws) == rows_of(cold)) << value;
  }
}

// Appends rebuild the overlay's base, a new instance: the next check is
// cold, and the one after it warm again.
TEST(GreedyRowCache, AppendsRebuildAndStayExact) {
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    const Instance parent = cap_world(seed);
    InstanceOverlay overlay(parent);
    SolveWorkspace ws;
    const std::string where = "seed " + std::to_string(seed);
    (void)expect_warm_equals_cold(overlay, ws, core::SmdMode::kFeasible,
                                  where + " open");

    const std::vector<model::InterestSpec> user_interests = {
        {3, model::kInvalidUser, 0.5}, {0, model::kInvalidUser, 0.25}};
    overlay.append_user(2.0, user_interests);
    EXPECT_EQ(expect_warm_equals_cold(overlay, ws, core::SmdMode::kFeasible,
                                      where + " user append"),
              overlay.num_users());

    const std::vector<model::InterestSpec> stream_interests = {
        {model::kInvalidStream, 1, 0.75}, {model::kInvalidStream, 15, 0.5}};
    overlay.append_stream(1.0, stream_interests);
    EXPECT_EQ(expect_warm_equals_cold(overlay, ws, core::SmdMode::kFeasible,
                                      where + " stream append"),
              overlay.num_users());

    overlay.set_utility(15, 40, 0.25);  // the appended pair
    EXPECT_EQ(expect_warm_equals_cold(overlay, ws, core::SmdMode::kFeasible,
                                      where + " utility on the new pair"),
              1u);
  }
}

// A registry request is a cold solve: its stats do not depend on what the
// workspace solved before, so a sweep reports the same numbers under any
// schedule or thread count.
TEST(GreedyRowCache, RegistrySolvesStartCold) {
  const Instance inst = cap_world(5);
  SolveWorkspace ws;
  engine::SolveRequest req;
  req.instance = &inst;
  req.algorithm = "greedy";
  req.workspace = &ws;
  for (int run = 0; run < 2; ++run) {
    const engine::SolveResult r = engine::solve(req);
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_EQ(r.stat("select_rows_sorted"),
              static_cast<double>(inst.num_users()))
        << "run " << run;
  }
}

}  // namespace
}  // namespace vdist
