// The §2 greedy's live repair state behind engine::Session's kRepair
// policy.
//
// WorldRef is the read-only binding of the serving world — the
// structural base plus the four effective arrays an InstanceOverlay
// maintains. RepairCore holds everything the incremental repair needs
// between events and exposes the event lifecycle as pre_event /
// post_event around the caller's world mutation.
//
// The repair is the §2.1 greedy kept alive: its state lives in a
// SolveWorkspace in GreedyEngine's layout, and each completion pick runs
// the greedy's propagation kernel (core/propagate.h) over rows sorted by
// descending w. resolve() and appends prepare the rows; any other event
// marks stale the rows of the users whose utilities it changed (the user
// of a user event, the users of a pulled or restored stream), and a pick
// re-sorts a stale row before it walks it. On top of the greedy it keeps
// the per-user assigned lists and the add order, so an event can release
// and replay the users it touches.
//
// An event costs what it touches. The completion's StreamSelector lives
// across events over RepairCore's own storage, and between events its
// pool is exactly {s : s not added, w̄(s) > kAbsEps}, every key fresh or
// an overestimate: each write to w̄ or to the added set reports to it
// (update on a decrease, readmit on an increase or a re-entry, remove on
// an add or a death), and streams skipped as over budget rejoin when
// their completion ends. The Theorem 2.8 race terms are maintained too:
// the per-user sums as fixed blocks of users, recomputed when one of
// their users changes and summed in block order, and the Amax argmax
// over the streams whose effective totals the event changed.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/greedy.h"
#include "core/select.h"
#include "model/assignment.h"
#include "model/events.h"
#include "model/instance.h"
#include "model/view.h"

namespace vdist::engine {

enum class RepairAction {
  kLocalRepair,  // touched users released + replayed, completion run
  kFullResolve,  // from-scratch solve (kResolve always; kRepair on drift)
  kOnlineStep,   // allocator offer/release/bookkeeping
};

// What one event cost and did.
struct RepairStats {
  RepairAction action = RepairAction::kLocalRepair;
  double objective = 0.0;  // session objective after the event
  double wall_ms = 0.0;
  std::size_t users_refreshed = 0;   // users released and replayed
  std::size_t streams_released = 0;  // added streams given back
  std::size_t streams_added = 0;     // streams admitted by the completion
  bool drift_checked = false;
  double drift = 0.0;  // meaningful when drift_checked
};

// Read-only view of the live serving world: the structural base plus the
// effective per-entity arrays (what InstanceOverlay::view() binds).
struct WorldRef {
  const model::Instance* base = nullptr;
  std::span<const double> edge_utility;   // effective, per base edge
  std::span<const double> total_utility;  // effective, per stream
  std::span<const double> capacity;       // effective, per user
  std::span<const char> stream_alive;

  [[nodiscard]] std::size_t num_users() const noexcept {
    return capacity.size();
  }
  [[nodiscard]] std::size_t num_streams() const noexcept {
    return total_utility.size();
  }
  [[nodiscard]] double budget() const noexcept { return base->budget(0); }
  [[nodiscard]] bool alive(model::StreamId s) const noexcept {
    return stream_alive[static_cast<std::size_t>(s)] != 0;
  }
  // Effective utility of the (u, s) pair; 0 when absent.
  [[nodiscard]] double pair_utility(model::UserId u,
                                    model::StreamId s) const noexcept;
  [[nodiscard]] model::InstanceView view() const noexcept {
    return model::InstanceView(*base, edge_utility, total_utility, capacity);
  }
};

class RepairCore {
 public:
  RepairCore() = default;
  // The selector points into this object's own storage.
  RepairCore(const RepairCore&) = delete;
  RepairCore& operator=(const RepairCore&) = delete;

  // Per-call solve context (the owner's knobs; never stored).
  struct Context {
    core::SolveWorkspace* workspace = nullptr;
    core::SelectStrategy strategy = core::SelectStrategy::kDelta;
    core::SmdMode mode = core::SmdMode::kFeasible;
  };

  // Pre-mutation snapshot for one event, with its scope against the
  // pre-event world. pre_event() reads the event's ids only when
  // ids_known; the caller rejects the event otherwise.
  struct PreEvent : model::EventScope {
    std::size_t old_num_users = 0;
    double old_clamp = 0.0;   // touched user's clamped residual
    double old_cap = 0.0;     // touched user's effective cap
    double old_pair_w = 0.0;  // kUtilityChange: the pair's old value
  };

  // Per-user terms of the Theorem 2.8 race, summed over [u_begin, u_end)
  // in user order.
  struct WinnerPartial {
    double capped = 0.0;  // greedy capped utility
    core::SplitValues split;
  };
  // First-max argmax of the (effective) stream totals over a range.
  struct AmaxPartial {
    model::StreamId best = model::kInvalidStream;
    double total = -1.0;
  };
  // The race terms of the maintained state: the per-user sums over all
  // users (per-block partials summed in block order) and the Amax argmax
  // over all streams (identical to amax_partial over [0, |S|)).
  struct RaceTerms {
    WinnerPartial winner;
    AmaxPartial amax;
  };

  // From-scratch rebuild: engine-identical init (pool w̄ = effective
  // totals, tombstoned streams start dead at 0) + greedy completion.
  void resolve(const WorldRef& w, const Context& ctx,
               core::SelectStats& select);

  [[nodiscard]] PreEvent pre_event(const WorldRef& w,
                                   const model::InstanceEvent& event);
  // Finishes the incremental repair after the caller mutated the world
  // (and, on appends, rebound `w` to the rebuilt base). Fills
  // stats.users_refreshed / streams_released / streams_added.
  void post_event(const WorldRef& w, const model::InstanceEvent& event,
                  const PreEvent& pre, const Context& ctx,
                  core::SelectStats& select, RepairStats& stats);

  // The race value of the maintained state; sets *variant to the winner.
  // Reads the maintained race terms: O(degree of the Amax stream).
  [[nodiscard]] double winner_objective(const WorldRef& w, core::SmdMode mode,
                                        const char** variant) const;
  [[nodiscard]] const RaceTerms& race_terms() const noexcept { return race_; }

  // The race computed from scratch, in pieces: the maintained terms are
  // built from these per block, and a full pass over [0, |U|) and
  // [0, |S|) is the reference the maintained race_terms() are checked
  // against.
  [[nodiscard]] WinnerPartial winner_partial(const WorldRef& w,
                                             std::size_t u_begin,
                                             std::size_t u_end) const noexcept;
  [[nodiscard]] static AmaxPartial amax_partial(const WorldRef& w,
                                                std::size_t s_begin,
                                                std::size_t s_end) noexcept;
  // Values the Amax candidate: core::stream_capped_value of the best
  // stream (0 when no total is positive).
  [[nodiscard]] static double amax_value(const WorldRef& w,
                                         const AmaxPartial& best);

  // Writes the maintained semi-feasible solution (the race's greedy
  // input) into ws.pair_log, user-major, each user's pairs in its
  // assigned order: what core::build_winner assigns the race's winner
  // from.
  void log_pairs(const WorldRef& w, core::SolveWorkspace& ws) const;

  // The state the completion walks (user_edge_w/_s, cost_order, keyed
  // to w's base), stale rows re-sorted first: then bit-identical to a
  // cold core::prepare_rows of w.view(). The session's one row set under
  // kRepair: its drift checks borrow these rows (fresh_winner_objective)
  // and its parity check derives the snapshot's rows from them
  // (core::prepare_rows with a source). Flushing here, at every drift
  // check, keeps the stale set small when a parity check follows.
  [[nodiscard]] const core::SolveWorkspace& current_rows(const WorldRef& w);

 private:
  [[nodiscard]] std::size_t run_completion(const WorldRef& w);
  void reset(const WorldRef& w);
  void rebind(const WorldRef& w);
  // Costs, prepared rows and propagation marks for the world's current
  // base (resolve and appends).
  void prepare(const WorldRef& w);
  // w̄ of pool stream s under the current residuals:
  // sum over its live pairs of min(w, max(rem, 0)).
  [[nodiscard]] double residual_wbar(const WorldRef& w,
                                     model::StreamId s) const noexcept;
  void refresh_user(const WorldRef& w, model::UserId u, double old_clamp,
                    const double* old_w);
  void add_stream_state(const model::InstanceView& view, model::StreamId s,
                        double cost);
  // Rebuilds the selector's pool from scratch (resolve and appends only).
  void reset_selector(core::SelectStrategy strategy);
  // Restores the pool invariant after w̄(s) moved from `before`.
  void pool_track(model::StreamId s, double before);
  // Merges the selector's work since the last flush into `select`.
  void flush_select(core::SelectStats& select);
  void mark_user(std::size_t u) {
    if (race_stale_) return;
    const std::size_t b = u / kRaceBlock;
    if (block_dirty_[b] != 0) return;
    block_dirty_[b] = 1;
    dirty_blocks_.push_back(b);
  }
  // Brings race_ up to date; `changed` lists the streams whose effective
  // totals may have changed since the last call.
  void update_race(const WorldRef& w,
                   std::span<const model::StreamId> changed);

  // The greedy's state (rem, wbar, cost, user_w, user_last_w, the
  // prepared rows and cost_order) and the completion selector's tree.
  // Owner-held: the drift check's fresh solves run a GreedyEngine on the
  // caller's workspace, which would clobber it; they only read its rows.
  core::SolveWorkspace ws_;
  std::vector<std::vector<model::StreamId>> assigned_;  // per user, in order
  std::vector<std::int32_t> added_seq_;  // per stream: add order, -1 = pool
  std::vector<char> row_stale_;  // per user: the row lags the world
  std::int32_t next_seq_ = 0;
  double used_ = 0.0;
  // Per-event scratch: the touched user's pre-event pair utilities and
  // the (add-sequence, adjacency-position) replay keys.
  std::vector<double> snap_w_;
  std::vector<std::pair<std::int32_t, std::int32_t>> replay_;

  core::StreamSelector selector_;  // over ws_.wbar / ws_.cost
  core::SelectStrategy strategy_ = core::SelectStrategy::kDelta;
  core::SelectStats flushed_;           // selector work already merged
  std::vector<model::StreamId> skipped_;  // over budget this completion

  // Maintained race terms: per-block user sums, the blocks touched since
  // the last update_race(), and a pending full recompute (reset/rebind).
  static constexpr std::size_t kRaceBlock = 256;
  std::vector<WinnerPartial> race_block_;
  std::vector<char> block_dirty_;
  std::vector<std::size_t> dirty_blocks_;
  bool race_stale_ = true;
  RaceTerms race_;
};

// From-scratch §2.2 winner value of the world (scoring mode, no
// assignment build) — the drift-check yardstick. `rows` (null: prepare
// ctx.workspace's own) are borrowed prepared rows current for w.view(),
// such as RepairCore::current_rows(w); the value is the same bits
// either way.
[[nodiscard]] double fresh_winner_objective(
    const WorldRef& w, const RepairCore::Context& ctx,
    core::SelectStats& select, const core::SolveWorkspace* rows = nullptr);

}  // namespace vdist::engine
