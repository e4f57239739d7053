#include "engine/repair_core.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "core/propagate.h"
#include "util/float_cmp.h"

namespace vdist::engine {

using model::EventType;
using model::InstanceEvent;
using model::StreamId;
using model::UserId;
using util::approx_le;
using util::kAbsEps;

namespace {

[[nodiscard]] double clamp0(double x) noexcept { return x > 0.0 ? x : 0.0; }

#ifndef NDEBUG
[[nodiscard]] bool rel_close(double a, double b) noexcept {
  return std::abs(a - b) <= 1e-12 * std::max(std::abs(a), std::abs(b));
}
#endif

}  // namespace

double WorldRef::pair_utility(UserId u, StreamId s) const noexcept {
  const auto e = base->find_edge(u, s);
  return e ? edge_utility[static_cast<std::size_t>(*e)] : 0.0;
}

void RepairCore::prepare(const WorldRef& w) {
  const auto costs = w.base->costs_of_measure(0);
  ws_.cost.assign(costs.begin(), costs.end());
  (void)core::prepare_rows(w.view(), ws_);
  row_stale_.assign(w.num_users(), 0);
  ws_.touch_mark.assign(w.num_streams(), 0);
}

double RepairCore::residual_wbar(const WorldRef& w, StreamId s) const noexcept {
  const model::Instance& inst = *w.base;
  double total = 0.0;
  for (model::EdgeId e = inst.first_edge(s); e < inst.last_edge(s); ++e) {
    const double wv = w.edge_utility[static_cast<std::size_t>(e)];
    if (wv <= 0.0) continue;
    const double c =
        clamp0(ws_.rem[static_cast<std::size_t>(inst.edge_user(e))]);
    total += wv < c ? wv : c;
  }
  return total;
}

void RepairCore::reset(const WorldRef& w) {
  const std::size_t U = w.num_users();
  const std::size_t S = w.num_streams();
  ws_.rem.assign(w.capacity.begin(), w.capacity.end());
  ws_.user_w.assign(U, 0.0);
  ws_.user_last_w.assign(U, 0.0);
  assigned_.resize(U);
  for (auto& list : assigned_) list.clear();
  // Engine-identical init: a pool stream's residual utility starts at its
  // (effective) total — tombstoned streams start dead at 0.
  ws_.wbar.assign(w.total_utility.begin(), w.total_utility.end());
  added_seq_.assign(S, -1);
  next_seq_ = 0;
  used_ = 0.0;
  prepare(w);
  race_stale_ = true;
}

void RepairCore::resolve(const WorldRef& w, const Context& ctx,
                         core::SelectStats& select) {
  reset(w);
  reset_selector(ctx.strategy);
  (void)run_completion(w);
  update_race(w, {});
  flush_select(select);
}

void RepairCore::reset_selector(core::SelectStrategy strategy) {
  strategy_ = strategy;
  selector_.reset(ws_, ws_.wbar, ws_.cost, strategy);
  flushed_ = {};
  const std::size_t S = ws_.wbar.size();
  for (std::size_t s = 0; s < S; ++s)
    if (added_seq_[s] >= 0 || ws_.wbar[s] <= kAbsEps)
      selector_.remove(static_cast<StreamId>(s));
}

void RepairCore::pool_track(StreamId s, double before) {
  const auto ss = static_cast<std::size_t>(s);
  const double now = ws_.wbar[ss];
  if (added_seq_[ss] >= 0 || now <= kAbsEps)
    selector_.remove(s);
  else if (!selector_.contains(s) || now > before)
    selector_.readmit(s);  // re-entry, or a key that would underestimate
  else if (now < before)
    selector_.update(s, now);
}

void RepairCore::flush_select(core::SelectStats& select) {
  const core::SelectStats& now = selector_.stats();
  select.picks += now.picks - flushed_.picks;
  select.evaluations += now.evaluations - flushed_.evaluations;
  select.pairs_touched += now.pairs_touched - flushed_.pairs_touched;
  select.rows_walked += now.rows_walked - flushed_.rows_walked;
  select.heap_sifts += now.heap_sifts - flushed_.heap_sifts;
  flushed_ = now;
}

// Re-derives every per-entity array after an overlay rebuild (append).
// Entity ids are stable, so the assigned lists survive; the accounting,
// the pool residuals and the rows are recomputed against the new edge-id
// space.
void RepairCore::rebind(const WorldRef& w) {
  const std::size_t U = w.num_users();
  const std::size_t S = w.num_streams();
  assigned_.resize(U);
  added_seq_.resize(S, -1);
  ws_.rem.resize(U);
  ws_.user_w.resize(U);
  ws_.user_last_w.resize(U);
  for (std::size_t uu = 0; uu < U; ++uu) {
    const auto u = static_cast<UserId>(uu);
    ws_.rem[uu] = w.capacity[uu];
    ws_.user_w[uu] = 0.0;
    ws_.user_last_w[uu] = 0.0;
    for (const StreamId s : assigned_[uu]) {
      const double wv = w.pair_utility(u, s);
      ws_.user_w[uu] += wv;
      ws_.user_last_w[uu] = wv;
      ws_.rem[uu] -= wv;
    }
  }
  ws_.wbar.resize(S);
  for (std::size_t ss = 0; ss < S; ++ss)
    ws_.wbar[ss] =
        added_seq_[ss] >= 0 ? 0.0 : residual_wbar(w, static_cast<StreamId>(ss));
  prepare(w);
  race_stale_ = true;
  reset_selector(strategy_);
}

void RepairCore::refresh_user(const WorldRef& w, UserId u, double old_clamp,
                              const double* old_w) {
  const model::Instance& inst = *w.base;
  const auto uu = static_cast<std::size_t>(u);
  const auto edges = inst.edges_of(u);
  const auto streams = inst.streams_of(u);

  // Release and replay the added sequence for this user alone.
  double& rem = ws_.rem[uu];
  double& user_w = ws_.user_w[uu];
  double& user_last_w = ws_.user_last_w[uu];
  assigned_[uu].clear();
  user_w = 0.0;
  user_last_w = 0.0;
  rem = w.capacity[uu];
  mark_user(uu);
  replay_.clear();
  for (std::size_t t = 0; t < edges.size(); ++t) {
    const auto ss = static_cast<std::size_t>(streams[t]);
    if (added_seq_[ss] >= 0 &&
        w.edge_utility[static_cast<std::size_t>(edges[t])] > 0.0)
      replay_.emplace_back(added_seq_[ss], static_cast<std::int32_t>(t));
  }
  std::sort(replay_.begin(), replay_.end());
  for (const auto& [seq, t] : replay_) {
    if (rem <= kAbsEps) break;
    const double wv = w.edge_utility[static_cast<std::size_t>(
        edges[static_cast<std::size_t>(t)])];
    assigned_[uu].push_back(streams[static_cast<std::size_t>(t)]);
    user_w += wv;
    user_last_w = wv;
    rem -= wv;
  }

  // Exact w̄ deltas for the user's pool streams: contribution moved from
  // min(w_old, old_clamp) to min(w_new, new_clamp).
  const double new_clamp = clamp0(rem);
  for (std::size_t t = 0; t < edges.size(); ++t) {
    const auto ss = static_cast<std::size_t>(streams[t]);
    if (added_seq_[ss] >= 0 || !w.alive(streams[t])) continue;
    const double w_new = w.edge_utility[static_cast<std::size_t>(edges[t])];
    const double w_old = old_w != nullptr ? old_w[t] : w_new;
    const double contrib_new = w_new > 0.0 ? std::min(w_new, new_clamp) : 0.0;
    const double contrib_old = w_old > 0.0 ? std::min(w_old, old_clamp) : 0.0;
    const double delta = contrib_new - contrib_old;
    if (delta == 0.0) continue;
    const double before = ws_.wbar[ss];
    ws_.wbar[ss] += delta;
    pool_track(streams[t], before);
  }
}

// GreedyEngine's pick, through the same kernel; the hooks keep the
// assigned lists and the race blocks, bring a stale row up to date before
// the kernel walks it, and leave added streams' w̄ alone.
void RepairCore::add_stream_state(const model::InstanceView& view, StreamId s,
                                  double cost) {
  used_ += cost;
  added_seq_[static_cast<std::size_t>(s)] = next_seq_++;
  struct Hooks {
    RepairCore& r;
    const model::InstanceView& view;
    StreamId s;
    void assign(UserId u, model::EdgeId, double, double) {
      const auto uu = static_cast<std::size_t>(u);
      r.mark_user(uu);
      r.assigned_[uu].push_back(s);
      if (r.row_stale_[uu] != 0) {
        core::sort_row(view, r.ws_, u);
        r.row_stale_[uu] = 0;
      }
    }
    [[nodiscard]] bool skip(StreamId sp) const {
      return r.added_seq_[static_cast<std::size_t>(sp)] >= 0;  // s included
    }
    void touched(StreamId) {}
    void died(StreamId) {}
  } hooks{*this, view, s};
  core::propagate_pick(view, ws_, ws_, selector_, s, hooks);
  ws_.wbar[static_cast<std::size_t>(s)] = 0.0;
}

std::size_t RepairCore::run_completion(const WorldRef& w) {
  const model::InstanceView view = w.view();
  const auto& cost_order = ws_.cost_order;
  const double B = w.budget();
  std::size_t added = 0;
  std::size_t cursor = 0;
  skipped_.clear();
  for (;;) {
    // Bulk budget cutoff, as in the untraced GreedyEngine::run(): once
    // the cheapest pool stream no longer fits, nothing ever will.
    while (cursor < cost_order.size() &&
           !selector_.contains(cost_order[cursor]))
      ++cursor;
    if (cursor >= cost_order.size()) break;
    if (!approx_le(
            used_ + ws_.cost[static_cast<std::size_t>(cost_order[cursor])], B))
      break;
    const StreamId best = selector_.pop_best();
    if (best == model::kInvalidStream) break;
    const auto bs = static_cast<std::size_t>(best);
    if (ws_.wbar[bs] <= kAbsEps) break;
    if (!approx_le(used_ + ws_.cost[bs], B)) {
      skipped_.push_back(best);  // out for this completion only
      continue;
    }
    add_stream_state(view, best, ws_.cost[bs]);
    ++added;
  }
  for (const StreamId s : skipped_)
    if (ws_.wbar[static_cast<std::size_t>(s)] > kAbsEps) selector_.readmit(s);
  return added;
}

RepairCore::WinnerPartial RepairCore::winner_partial(
    const WorldRef& w, std::size_t u_begin, std::size_t u_end) const noexcept {
  WinnerPartial acc;
  for (std::size_t uu = u_begin; uu < u_end; ++uu) {
    const double wv = ws_.user_w[uu];
    if (wv <= 0.0) continue;
    const double cap = w.capacity[uu];
    acc.capped += std::min(cap, wv);
    const double last = ws_.user_last_w[uu];
    if (last <= 0.0) continue;
    acc.split += core::split_term(wv, last, cap);
  }
  return acc;
}

RepairCore::AmaxPartial RepairCore::amax_partial(const WorldRef& w,
                                                 std::size_t s_begin,
                                                 std::size_t s_end) noexcept {
  AmaxPartial best;
  for (std::size_t ss = s_begin; ss < s_end; ++ss) {
    const double total = w.total_utility[ss];
    if (total > best.total) {
      best.total = total;
      best.best = static_cast<StreamId>(ss);
    }
  }
  return best;
}

double RepairCore::amax_value(const WorldRef& w, const AmaxPartial& best) {
  return best.total > 0.0 ? core::stream_capped_value(w.view(), best.best)
                          : 0.0;
}

void RepairCore::update_race(const WorldRef& w,
                             std::span<const StreamId> changed) {
  const std::size_t U = w.num_users();
  AmaxPartial& best = race_.amax;
  if (race_stale_) {
    race_block_.resize((U + kRaceBlock - 1) / kRaceBlock);
    for (std::size_t b = 0; b < race_block_.size(); ++b)
      race_block_[b] =
          winner_partial(w, b * kRaceBlock, std::min(U, (b + 1) * kRaceBlock));
    block_dirty_.assign(race_block_.size(), 0);
    dirty_blocks_.clear();
    best = amax_partial(w, 0, w.num_streams());
    race_stale_ = false;
  } else {
    for (const std::size_t b : dirty_blocks_) {
      race_block_[b] =
          winner_partial(w, b * kRaceBlock, std::min(U, (b + 1) * kRaceBlock));
      block_dirty_[b] = 0;
    }
    dirty_blocks_.clear();
    // The first-max argmax over the changed totals: rescan only when the
    // argmax itself lost ground; otherwise it still beats every
    // unchanged stream, and each changed one challenges it under the
    // same rule (strictly greater, or equal with a lower id).
    const auto total_of = [&](StreamId s) {
      return w.total_utility[static_cast<std::size_t>(s)];
    };
    const bool dropped =
        best.best != model::kInvalidStream && total_of(best.best) < best.total;
    if (dropped) {
      best = amax_partial(w, 0, w.num_streams());
    } else {
      if (best.best != model::kInvalidStream) best.total = total_of(best.best);
      for (const StreamId s : changed) {
        const double total = total_of(s);
        if (total > best.total || (total == best.total && s < best.best))
          best = {s, total};
      }
    }
  }
  race_.winner = {};
  for (const WinnerPartial& p : race_block_) {
    race_.winner.capped += p.capped;
    race_.winner.split += p.split;
  }
}

double RepairCore::winner_objective(const WorldRef& w, core::SmdMode mode,
                                    const char** variant) const {
#ifndef NDEBUG
  const WinnerPartial acc = winner_partial(w, 0, w.num_users());
  const AmaxPartial amax = amax_partial(w, 0, w.num_streams());
  assert(amax.best == race_.amax.best && amax.total == race_.amax.total);
  assert(rel_close(acc.capped, race_.winner.capped));
  assert(rel_close(acc.split.w1, race_.winner.split.w1));
  assert(rel_close(acc.split.w2, race_.winner.split.w2));
#endif
  const core::RaceOutcome won = core::race_winner(
      mode, race_.winner.capped, race_.winner.split,
      amax_value(w, race_.amax));
  *variant = won.variant;
  return won.value;
}

const core::SolveWorkspace& RepairCore::current_rows(const WorldRef& w) {
  for (std::size_t uu = 0; uu < row_stale_.size(); ++uu)
    if (row_stale_[uu] != 0) {
      core::sort_row(w.view(), ws_, static_cast<UserId>(uu));
      row_stale_[uu] = 0;
    }
  return ws_;
}

void RepairCore::log_pairs(const WorldRef& w, core::SolveWorkspace& ws) const {
  ws.pair_log.clear();
  for (std::size_t uu = 0; uu < assigned_.size(); ++uu) {
    const auto u = static_cast<UserId>(uu);
    for (const StreamId s : assigned_[uu]) {
      const auto e = w.base->find_edge(u, s);
      assert(e.has_value());  // the repair assigns interest edges only
      ws.pair_log.push_back({u, s, *e});
    }
  }
}

RepairCore::PreEvent RepairCore::pre_event(const WorldRef& w,
                                           const InstanceEvent& event) {
  PreEvent pre;
  static_cast<model::EventScope&>(pre) =
      model::classify_event(event, w.num_users(), w.num_streams());
  pre.old_num_users = w.num_users();
  if (!pre.ids_known || pre.appends_user || pre.appends_stream) return pre;
  if (pre.user_event) {
    // Pre-event snapshot: clamped residual and per-adjacency utilities.
    const auto uu = static_cast<std::size_t>(event.user);
    pre.old_clamp = clamp0(ws_.rem[uu]);
    pre.old_cap = w.capacity[uu];
    const auto edges = w.base->edges_of(event.user);
    snap_w_.resize(edges.size());
    for (std::size_t t = 0; t < edges.size(); ++t)
      snap_w_[t] = w.edge_utility[static_cast<std::size_t>(edges[t])];
    if (event.type == EventType::kUtilityChange)
      pre.old_pair_w = w.pair_utility(event.user, event.stream);
  }
  return pre;
}

void RepairCore::post_event(const WorldRef& w, const InstanceEvent& event,
                            const PreEvent& pre, const Context& ctx,
                            core::SelectStats& select, RepairStats& stats) {
  const model::Instance& inst = *w.base;
  const EventType type = event.type;
  bool needs_completion = false;
  // The persistent selector honors the per-call strategy like resolve().
  if (ctx.strategy != strategy_) reset_selector(ctx.strategy);

  if (pre.appends_user || pre.appends_stream) {
    rebind(w);
    if (pre.appends_user) {
      const auto u = static_cast<UserId>(pre.old_num_users);
      refresh_user(w, u, clamp0(ws_.rem[pre.old_num_users]), nullptr);
      stats.users_refreshed = 1;
    }
    needs_completion = true;
  } else if (pre.user_event) {
    const auto u = event.user;
    const auto uu = static_cast<std::size_t>(u);
    row_stale_[uu] = 1;
    refresh_user(w, u, pre.old_clamp, snap_w_.data());
    stats.users_refreshed = 1;
    // Room opens on a join; on a larger cap, or a smaller one that
    // clipped an assigned pair and so left the user more room; when an
    // assigned pair shrinks or a pool pair grows. A leave only lowers w̄.
    if (type == EventType::kUserJoin) {
      needs_completion = true;
    } else if (type == EventType::kCapacityChange) {
      needs_completion = w.capacity[uu] > pre.old_cap ||
                         clamp0(ws_.rem[uu]) > pre.old_clamp;
    } else if (type == EventType::kUtilityChange) {
      const double new_w = w.pair_utility(u, event.stream);
      needs_completion =
          added_seq_[static_cast<std::size_t>(event.stream)] >= 0
              ? new_w < pre.old_pair_w
              : new_w > pre.old_pair_w;
    }
  } else {
    const StreamId s = event.stream;
    const auto ss = static_cast<std::size_t>(s);
    // A pull or a restore moves one pair in each of its users' rows.
    for (model::EdgeId e = inst.first_edge(s); e < inst.last_edge(s); ++e)
      row_stale_[static_cast<std::size_t>(inst.edge_user(e))] = 1;
    const double before = ws_.wbar[ss];
    if (type == EventType::kStreamRemove) {
      if (added_seq_[ss] >= 0) {
        // Release: give the stream back, refresh every user it served.
        // Pool deltas only depend on each user's residual change (the
        // other pairs' utilities are untouched), so no utility snapshot.
        added_seq_[ss] = -1;
        used_ -= ws_.cost[ss];
        stats.streams_released = 1;
        for (model::EdgeId e = inst.first_edge(s); e < inst.last_edge(s);
             ++e) {
          const UserId u = inst.edge_user(e);
          const auto uu = static_cast<std::size_t>(u);
          const auto& list = assigned_[uu];
          if (std::find(list.begin(), list.end(), s) == list.end()) continue;
          refresh_user(w, u, clamp0(ws_.rem[uu]), nullptr);
          ++stats.users_refreshed;
        }
        needs_completion = true;  // budget and capacity were freed
      }
      ws_.wbar[ss] = 0.0;
    } else {
      // The restored stream re-enters the pool mid-solve: its residual is
      // what the current residual caps leave it.
      ws_.wbar[ss] = residual_wbar(w, s);
      needs_completion = true;
    }
    pool_track(s, before);
  }

  if (needs_completion) stats.streams_added = run_completion(w);
  // The effective totals the event changed: the touched user's streams,
  // or the event's stream (appends recompute everything anyway).
  if (pre.user_event && !pre.appends_user)
    update_race(w, inst.streams_of(event.user));
  else
    update_race(w, std::span<const StreamId>(&event.stream, 1));
  flush_select(select);
}

double fresh_winner_objective(const WorldRef& w, const RepairCore::Context& ctx,
                              core::SelectStats& select,
                              const core::SolveWorkspace* rows) {
  const model::InstanceView view = w.view();
  core::GreedyOptions gopts;
  gopts.strategy = ctx.strategy;
  gopts.workspace = ctx.workspace;
  gopts.build_assignment = false;  // scoring mode: values only
  gopts.rows = rows;
  core::GreedyEngine engine(view, *ctx.workspace, gopts);
  engine.run();
  select.merge(engine.result().select);
  const double w_amax = RepairCore::amax_value(
      w, RepairCore::amax_partial(w, 0, w.num_streams()));
  const core::SplitValues split = ctx.mode == core::SmdMode::kFeasible
                                      ? engine.split_values()
                                      : core::SplitValues{};
  return core::race_winner(ctx.mode, engine.capped_utility(), split, w_amax)
      .value;
}

}  // namespace vdist::engine
