#include "engine/repair_core.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <string>

#include "util/float_cmp.h"
#include "util/hotpath.h"

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

void RepairCore::refresh_cost_arrays(const WorldRef& w) {
  const model::Instance& inst = *w.base;
  const std::size_t S = w.num_streams();
  cost_.resize(S);
  for (std::size_t s = 0; s < S; ++s)
    cost_[s] = inst.cost(static_cast<StreamId>(s), 0);
  cost_order_.resize(S);
  for (std::size_t s = 0; s < S; ++s)
    cost_order_[s] = static_cast<StreamId>(s);
  std::sort(cost_order_.begin(), cost_order_.end(),
            [&](StreamId a, StreamId b) {
              const double ca = cost_[static_cast<std::size_t>(a)];
              const double cb = cost_[static_cast<std::size_t>(b)];
              if (ca != cb) return ca < cb;
              return a < b;
            });
}

void RepairCore::reset(const WorldRef& w) {
  const std::size_t U = w.num_users();
  const std::size_t S = w.num_streams();
  rem_.resize(U);
  for (std::size_t u = 0; u < U; ++u) rem_[u] = w.capacity[u];
  user_w_.assign(U, 0.0);
  user_last_w_.assign(U, 0.0);
  assigned_.resize(U);
  for (auto& list : assigned_) list.clear();
  // Engine-identical init: a pool stream's residual utility starts at its
  // (effective) total — tombstoned streams start dead at 0.
  wbar_.resize(S);
  for (std::size_t s = 0; s < S; ++s) wbar_[s] = w.total_utility[s];
  refresh_cost_arrays(w);
  added_seq_.assign(S, -1);
  next_seq_ = 0;
  used_ = 0.0;
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
  selector_.reset(select_ws_, wbar_, cost_, strategy);
  flushed_ = {};
  const std::size_t S = wbar_.size();
  for (std::size_t s = 0; s < S; ++s)
    if (added_seq_[s] >= 0 || wbar_[s] <= kAbsEps)
      selector_.remove(static_cast<StreamId>(s));
}

void RepairCore::pool_track(StreamId s, double before) {
  const auto ss = static_cast<std::size_t>(s);
  const double now = wbar_[ss];
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
// Entity ids are stable, so the assigned lists survive; the accounting
// and the pool residuals are recomputed against the new edge-id space.
void RepairCore::rebind(const WorldRef& w) {
  const model::Instance& inst = *w.base;
  const std::size_t U = w.num_users();
  const std::size_t S = w.num_streams();
  rem_.resize(U);
  user_w_.resize(U);
  user_last_w_.resize(U);
  assigned_.resize(U);
  const std::size_t old_S = added_seq_.size();
  added_seq_.resize(S);
  for (std::size_t s = old_S; s < S; ++s) added_seq_[s] = -1;
  refresh_cost_arrays(w);
  for (std::size_t uu = 0; uu < U; ++uu) {
    const auto u = static_cast<UserId>(uu);
    rem_[uu] = w.capacity[uu];
    user_w_[uu] = 0.0;
    user_last_w_[uu] = 0.0;
    for (const StreamId s : assigned_[uu]) {
      const double wv = w.pair_utility(u, s);
      user_w_[uu] += wv;
      user_last_w_[uu] = wv;
      rem_[uu] -= wv;
    }
  }
  wbar_.assign(S, 0.0);
  for (std::size_t ss = 0; ss < S; ++ss) {
    const auto s = static_cast<StreamId>(ss);
    if (added_seq_[ss] >= 0) continue;
    double total = 0.0;
    for (model::EdgeId e = inst.first_edge(s); e < inst.last_edge(s); ++e) {
      const double wv = w.edge_utility[static_cast<std::size_t>(e)];
      if (wv <= 0.0) continue;
      const double c =
          clamp0(rem_[static_cast<std::size_t>(inst.edge_user(e))]);
      total += wv < c ? wv : c;
    }
    wbar_[ss] = total;
  }
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
  assigned_[uu].clear();
  user_w_[uu] = 0.0;
  user_last_w_[uu] = 0.0;
  rem_[uu] = w.capacity[uu];
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
    if (rem_[uu] <= kAbsEps) break;
    const double wv = w.edge_utility[static_cast<std::size_t>(
        edges[static_cast<std::size_t>(t)])];
    assigned_[uu].push_back(streams[static_cast<std::size_t>(t)]);
    user_w_[uu] += wv;
    user_last_w_[uu] = wv;
    rem_[uu] -= wv;
  }

  // Exact w̄ deltas for the user's pool streams: contribution moved from
  // min(w_old, old_clamp) to min(w_new, new_clamp).
  const double new_clamp = clamp0(rem_[uu]);
  for (std::size_t t = 0; t < edges.size(); ++t) {
    const auto ss = static_cast<std::size_t>(streams[t]);
    if (added_seq_[ss] >= 0 || !w.alive(streams[t])) continue;
    const double w_new = w.edge_utility[static_cast<std::size_t>(edges[t])];
    const double w_old = old_w != nullptr ? old_w[t] : w_new;
    const double contrib_new = w_new > 0.0 ? std::min(w_new, new_clamp) : 0.0;
    const double contrib_old = w_old > 0.0 ? std::min(w_old, old_clamp) : 0.0;
    const double delta = contrib_new - contrib_old;
    if (delta == 0.0) continue;
    const double before = wbar_[ss];
    wbar_[ss] += delta;
    pool_track(streams[t], before);
  }
}

void RepairCore::add_stream_state(const WorldRef& w, StreamId s,
                                  double cost) {
  const model::Instance& inst = *w.base;
  used_ += cost;
  added_seq_[static_cast<std::size_t>(s)] = next_seq_++;
  std::size_t rows = 0;
  std::size_t pairs = 0;
  const model::EdgeId lo = inst.first_edge(s);
  const model::EdgeId hi = inst.last_edge(s);
  for (model::EdgeId e = lo; e < hi; ++e) {
    const UserId u = inst.edge_user(e);
    const auto uu = static_cast<std::size_t>(u);
    if (e + 1 < hi) {
      // As in GreedyEngine::add_stream: the stream's users are sparse in
      // user space, so pull the next residual and adjacency row early.
      const UserId un = inst.edge_user(e + 1);
      VDIST_PREFETCH(rem_.data() + static_cast<std::size_t>(un));
      VDIST_PREFETCH(inst.edges_of(un).data());
    }
    const double wv = w.edge_utility[static_cast<std::size_t>(e)];
    if (rem_[uu] <= kAbsEps || wv <= 0.0) continue;
    mark_user(uu);
    assigned_[uu].push_back(s);
    user_w_[uu] += wv;
    user_last_w_[uu] = wv;
    const double rem_old = rem_[uu];
    rem_[uu] -= wv;
    const double rem_new_clamped = clamp0(rem_[uu]);
    // The same per-pair delta arithmetic as GreedyEngine::add_stream —
    // only pairs whose contribution actually changed are touched. (The
    // instance CSR is unsorted here, so the scan can't early-break like
    // the greedy's descending-w rows; it still skips unchanged pairs.)
    const auto adj_edges = inst.edges_of(u);
    const auto adj_streams = inst.streams_of(u);
    ++rows;
    for (std::size_t t = 0; t < adj_edges.size(); ++t) {
      const StreamId sp = adj_streams[t];
      const auto sps = static_cast<std::size_t>(sp);
      if (sp == s || added_seq_[sps] >= 0) continue;
      const double we =
          w.edge_utility[static_cast<std::size_t>(adj_edges[t])];
      if (we <= rem_new_clamped) continue;  // contribution unchanged
      const double before = we < rem_old ? we : rem_old;
      wbar_[sps] += rem_new_clamped - before;
      ++pairs;
      // Skipped streams are out of the pool and rejoin with a fresh key.
      if (selector_.contains(sp)) {
        if (wbar_[sps] <= kAbsEps)
          selector_.remove(sp);
        else
          selector_.update(sp, wbar_[sps]);
      }
    }
  }
  wbar_[static_cast<std::size_t>(s)] = 0.0;
  selector_.note_propagation(rows, pairs);
}

std::size_t RepairCore::run_completion(const WorldRef& w) {
  const double B = w.budget();
  std::size_t added = 0;
  std::size_t cursor = 0;
  skipped_.clear();
  for (;;) {
    // Bulk budget cutoff, as in the untraced GreedyEngine::run(): once
    // the cheapest pool stream no longer fits, nothing ever will.
    while (cursor < cost_order_.size() &&
           !selector_.contains(cost_order_[cursor]))
      ++cursor;
    if (cursor >= cost_order_.size()) break;
    if (!approx_le(
            used_ + cost_[static_cast<std::size_t>(cost_order_[cursor])], B))
      break;
    const StreamId best = selector_.pop_best();
    if (best == model::kInvalidStream) break;
    if (wbar_[static_cast<std::size_t>(best)] <= kAbsEps) break;
    if (!approx_le(used_ + cost_[static_cast<std::size_t>(best)], B)) {
      skipped_.push_back(best);  // out for this completion only
      continue;
    }
    add_stream_state(w, best, cost_[static_cast<std::size_t>(best)]);
    ++added;
  }
  for (const StreamId s : skipped_)
    if (wbar_[static_cast<std::size_t>(s)] > kAbsEps) selector_.readmit(s);
  return added;
}

RepairCore::WinnerPartial RepairCore::winner_partial(
    const WorldRef& w, std::size_t u_begin, std::size_t u_end) const noexcept {
  WinnerPartial acc;
  for (std::size_t uu = u_begin; uu < u_end; ++uu) {
    const double wv = user_w_[uu];
    if (wv <= 0.0) continue;
    const double cap = w.capacity[uu];
    acc.capped += std::min(cap, wv);
    const double last = user_last_w_[uu];
    if (last <= 0.0) continue;
    acc.split.w2 += last;
    acc.split.w1 += !approx_le(wv, cap) ? wv - last : wv;
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

double RepairCore::amax_value(const WorldRef& w,
                              const AmaxPartial& best) noexcept {
  double w_amax = 0.0;
  if (best.best != model::kInvalidStream && best.total > 0.0) {
    const model::Instance& inst = *w.base;
    for (model::EdgeId e = inst.first_edge(best.best);
         e < inst.last_edge(best.best); ++e) {
      const double wv = w.edge_utility[static_cast<std::size_t>(e)];
      if (wv > 0.0)
        w_amax += std::min(
            w.capacity[static_cast<std::size_t>(inst.edge_user(e))], wv);
    }
  }
  return w_amax;
}

double RepairCore::race(const WinnerPartial& acc, double w_amax,
                        core::SmdMode mode, const char** variant) noexcept {
  if (mode == core::SmdMode::kAugmented) {
    if (acc.capped >= w_amax) {
      *variant = "greedy";
      return acc.capped;
    }
    *variant = "Amax";
    return w_amax;
  }
  if (acc.split.w1 >= acc.split.w2 && acc.split.w1 >= w_amax) {
    *variant = "A1";
    return acc.split.w1;
  }
  if (acc.split.w2 >= w_amax) {
    *variant = "A2";
    return acc.split.w2;
  }
  *variant = "Amax";
  return w_amax;
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
    race_.winner.split.w1 += p.split.w1;
    race_.winner.split.w2 += p.split.w2;
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
  return race(race_.winner, amax_value(w, race_.amax), mode, variant);
}

model::Assignment RepairCore::build_semi(const WorldRef& w) const {
  model::Assignment semi(*w.base);
  for (std::size_t uu = 0; uu < assigned_.size(); ++uu)
    for (const StreamId s : assigned_[uu])
      semi.assign(static_cast<UserId>(uu), s);
  return semi;
}

RepairCore::PreEvent RepairCore::pre_event(const WorldRef& w,
                                           const InstanceEvent& event) {
  const EventType type = event.type;
  PreEvent pre;
  pre.user_event =
      type == EventType::kUserJoin || type == EventType::kUserLeave ||
      type == EventType::kCapacityChange || type == EventType::kUtilityChange;
  pre.appends_user = type == EventType::kUserJoin && event.user >= 0 &&
                     static_cast<std::size_t>(event.user) == w.num_users();
  pre.appends_stream =
      type == EventType::kStreamAdd && event.stream >= 0 &&
      static_cast<std::size_t>(event.stream) == w.num_streams();
  pre.old_num_users = w.num_users();
  if (pre.appends_user || pre.appends_stream) return pre;
  if (pre.user_event) {
    // Pre-event snapshot: clamped residual and per-adjacency utilities.
    const auto uu = static_cast<std::size_t>(event.user);
    pre.old_clamp = clamp0(rem_[uu]);
    pre.old_cap = w.capacity[uu];
    const auto edges = w.base->edges_of(event.user);
    snap_w_.resize(edges.size());
    for (std::size_t t = 0; t < edges.size(); ++t)
      snap_w_[t] = w.edge_utility[static_cast<std::size_t>(edges[t])];
    if (type == EventType::kUtilityChange)
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
      refresh_user(w, u, clamp0(rem_[pre.old_num_users]), nullptr);
      stats.users_refreshed = 1;
    }
    needs_completion = true;
  } else if (pre.user_event) {
    const auto u = event.user;
    refresh_user(w, u, pre.old_clamp, snap_w_.data());
    stats.users_refreshed = 1;
    switch (type) {
      case EventType::kUserJoin:
        needs_completion = true;
        break;
      case EventType::kUserLeave:
        needs_completion = false;  // w̄ only decreased, budget unchanged
        break;
      case EventType::kCapacityChange:
        needs_completion =
            w.capacity[static_cast<std::size_t>(u)] > pre.old_cap;
        break;
      case EventType::kUtilityChange: {
        const double new_w = event.value;
        const bool on_added =
            added_seq_[static_cast<std::size_t>(event.stream)] >= 0;
        // More room appears when an assigned pair shrinks (capacity is
        // freed) or a pool pair grows (the pool stream got stronger).
        needs_completion =
            on_added ? new_w < pre.old_pair_w : new_w > pre.old_pair_w;
        break;
      }
      default:
        break;
    }
  } else if (type == EventType::kStreamRemove) {
    const StreamId s = event.stream;
    const auto ss = static_cast<std::size_t>(s);
    if (added_seq_[ss] >= 0) {
      // Release: give the stream back, refresh every user it served.
      // Pool deltas only depend on each user's residual change (the
      // other pairs' utilities are untouched), so no utility snapshot.
      added_seq_[ss] = -1;
      used_ -= cost_[ss];
      stats.streams_released = 1;
      for (model::EdgeId e = inst.first_edge(s); e < inst.last_edge(s); ++e) {
        const UserId u = inst.edge_user(e);
        const auto uu = static_cast<std::size_t>(u);
        const auto& list = assigned_[uu];
        if (std::find(list.begin(), list.end(), s) == list.end()) continue;
        refresh_user(w, u, clamp0(rem_[uu]), nullptr);
        ++stats.users_refreshed;
      }
      needs_completion = true;  // budget and capacity were freed
    }
    const double before = wbar_[ss];
    wbar_[ss] = 0.0;
    pool_track(s, before);
  } else {  // kStreamAdd restore
    const StreamId s = event.stream;
    const auto ss = static_cast<std::size_t>(s);
    // The restored stream re-enters the pool mid-solve: its residual is
    // what the current residual caps leave it.
    double total = 0.0;
    for (model::EdgeId e = inst.first_edge(s); e < inst.last_edge(s); ++e) {
      const double wv = w.edge_utility[static_cast<std::size_t>(e)];
      if (wv <= 0.0) continue;
      const double c =
          clamp0(rem_[static_cast<std::size_t>(inst.edge_user(e))]);
      total += wv < c ? wv : c;
    }
    const double before = wbar_[ss];
    wbar_[ss] = total;
    pool_track(s, before);
    needs_completion = true;
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
                              core::SelectStats& select) {
  const model::InstanceView view = w.view();
  core::GreedyOptions gopts;
  gopts.strategy = ctx.strategy;
  gopts.workspace = ctx.workspace;
  gopts.record_trace = false;
  gopts.build_assignment = false;  // scoring mode: values only
  core::GreedyEngine engine(view, *ctx.workspace, gopts);
  engine.run();
  select.merge(engine.result().select);
  const core::SplitValues split = engine.split_values();
  const double w_amax = RepairCore::amax_value(
      w, RepairCore::amax_partial(w, 0, w.num_streams()));
  if (ctx.mode == core::SmdMode::kAugmented)
    return std::max(engine.capped_utility(), w_amax);
  return std::max({split.w1, split.w2, w_amax});
}

model::Assignment materialize_winner(const model::InstanceView& view,
                                     model::Assignment semi,
                                     const char* variant) {
  const std::string v = variant;
  if (v == "greedy") return semi;
  if (v == "A1") return core::materialize_split(view, semi, /*keep_rest=*/true);
  if (v == "A2")
    return core::materialize_split(view, semi, /*keep_rest=*/false);
  return core::best_single_stream(view);
}

}  // namespace vdist::engine
