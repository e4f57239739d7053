#include "core/greedy.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string_view>
#include <utility>

#include "core/propagate.h"
#include "util/float_cmp.h"
#include "util/radix.h"

namespace vdist::core {

using model::Assignment;
using model::EdgeId;
using model::Instance;
using model::InstanceView;
using model::StreamId;
using model::UserId;
using util::approx_le;

namespace {

// Sorts user u's row in place from the view's utilities. The order (w
// desc, stream asc on ties) is a unique total order per row
// (within-user CSR streams are strictly ascending), so a row is a pure
// function of its CSR row and utilities: the insertion sort and the
// big-row std::sort spill produce the bit-identical arrays.
void sort_row_in_place(const InstanceView& view, SolveWorkspace& ws,
                       UserId u) {
  // Rows are short on every registered scenario: an in-tandem insertion
  // sort in the destination arrays skips the build-pairs / sort /
  // copy-back round trip and halves the prep's cost.
  constexpr std::size_t kInsertionSortMaxDeg = 48;
  const auto edges_of_u = view.edges_of(u);
  const auto streams_of_u = view.streams_of(u);
  const std::size_t deg = edges_of_u.size();
  const std::size_t begin = view.user_edge_begin(u);
  double* const w_row = ws.user_edge_w.data() + begin;
  StreamId* const s_row = ws.user_edge_s.data() + begin;
  if (deg <= kInsertionSortMaxDeg) {
    // Gather first — the utility reads are a random-index gather over
    // the per-edge span, kept out of the shift loop — then
    // stable-insertion-sort the row in place. Stability makes the
    // stream tie-break free: equal-w pairs keep their input order,
    // which is ascending stream (within-user CSR order).
    for (std::size_t t = 0; t < deg; ++t)
      w_row[t] = view.edge_utility(edges_of_u[t]);
    std::copy(streams_of_u.begin(), streams_of_u.end(), s_row);
    for (std::size_t t = 1; t < deg; ++t) {
      const double w = w_row[t];
      const StreamId sp = s_row[t];
      std::size_t j = t;
      while (j > 0 && w_row[j - 1] < w) {
        w_row[j] = w_row[j - 1];
        s_row[j] = s_row[j - 1];
        --j;
      }
      w_row[j] = w;
      s_row[j] = sp;
    }
  } else {
    std::vector<std::pair<double, StreamId>> spill;
    spill.reserve(deg);
    for (std::size_t t = 0; t < deg; ++t)
      spill.emplace_back(view.edge_utility(edges_of_u[t]), streams_of_u[t]);
    std::sort(spill.begin(), spill.end(), [](const auto& a, const auto& b) {
      if (a.first != b.first) return a.first > b.first;
      return a.second < b.second;  // deterministic on w ties
    });
    for (std::size_t t = 0; t < deg; ++t) {
      w_row[t] = spill[t].first;
      s_row[t] = spill[t].second;
    }
  }
}

}  // namespace

// A warm row is dirty when one of its utilities differs in bits from the
// ones it was sorted from: a 0.0/-0.0 flip is a change, an unchanged NaN
// is not.
std::size_t prepare_rows(const InstanceView& view, SolveWorkspace& ws) {
  const std::size_t users = view.num_users();
  const std::size_t streams = view.num_streams();
  const std::size_t edges = view.num_edges();
  const SolveWorkspace::RowKey key{view.base().uid(), streams, users, edges};
  const bool warm = key.uid != 0 && ws.row_key == key;
  // Unkeyed until every dirty row is sorted again.
  ws.invalidate_rows();
  if (warm) {
    ws.row_dirty.assign(users, 0);
    for (std::size_t e = 0; e < edges; ++e) {
      const double w = view.edge_utility(static_cast<EdgeId>(e));
      if (std::bit_cast<std::uint64_t>(w) ==
          std::bit_cast<std::uint64_t>(ws.row_edge_w[e]))
        continue;
      ws.row_edge_w[e] = w;
      ws.row_dirty[static_cast<std::size_t>(
          view.edge_user(static_cast<EdgeId>(e)))] = 1;
    }
  } else {
    ws.row_dirty.assign(users, 1);
    ws.row_edge_w.resize(edges);
    for (std::size_t e = 0; e < edges; ++e)
      ws.row_edge_w[e] = view.edge_utility(static_cast<EdgeId>(e));
    ws.user_edge_w.resize(edges);
    ws.user_edge_s.resize(edges);
    // Streams by ascending cost: run()'s budget cutoff reads the cheapest
    // stream still in the pool off this order. Stable LSD radix on the
    // order-preserving key keeps cost ties in ascending-id input order —
    // exactly the old (cost, id) comparator's tie rule, a fraction of the
    // branches. Costs are the base's, so the order lives as long as the
    // key.
    ws.cost_order.resize(streams);
    ws.radix_keys.resize(streams);
    for (std::size_t s = 0; s < streams; ++s) {
      ws.cost_order[s] = static_cast<StreamId>(s);
      ws.radix_keys[s] =
          util::radix_key_from_double(view.cost(static_cast<StreamId>(s)));
    }
    util::radix_sort_pairs(ws.radix_keys, ws.cost_order,
                           ws.radix_key_scratch, ws.radix_val_scratch);
  }
  std::size_t sorted = 0;
  for (std::size_t u = 0; u < users; ++u) {
    if (ws.row_dirty[u] == 0) continue;
    ++sorted;
    sort_row_in_place(view, ws, static_cast<UserId>(u));
  }
  ws.row_key = key;
  return sorted;
}

void sort_row(const InstanceView& view, SolveWorkspace& ws, UserId u) {
  for (const EdgeId e : view.edges_of(u))
    ws.row_edge_w[static_cast<std::size_t>(e)] = view.edge_utility(e);
  sort_row_in_place(view, ws, u);
}

void CompletionTrace::clear() {
  ++revision;
  pick.clear();
  applied.clear();
  runner_up.clear();
  pick_eff.clear();
  margin_clear.clear();
  final_w1_add.clear();
  final_w2_add.clear();
  tie_begin.clear();
  tie_member.clear();
  assign_begin.clear();
  assign_user.clear();
  assign_w.clear();
  assign_umask.clear();
  touch_begin.clear();
  touch_stream.clear();
  touch_wbar.clear();
  death_begin.clear();
  death_stream.clear();
  ended_on_budget = false;
  end_used = 0.0;
  final_user_w.clear();
  final_user_last_w.clear();
  user_tl_begin.clear();
  tl_pick.clear();
  tl_w.clear();
}

void CompletionTrace::finalize(const model::InstanceView& view,
                               std::span<const double> user_w,
                               std::span<const double> user_last_w) {
  const std::size_t num_users = view.num_users();
  // CSR sentinels (the recording loop pushed one begin per pick).
  tie_begin.push_back(static_cast<std::uint32_t>(tie_member.size()));
  assign_begin.push_back(static_cast<std::uint32_t>(assign_user.size()));
  touch_begin.push_back(static_cast<std::uint32_t>(touch_stream.size()));
  death_begin.push_back(static_cast<std::uint32_t>(death_stream.size()));
  final_user_w.assign(user_w.begin(), user_w.end());
  final_user_last_w.assign(user_last_w.begin(), user_last_w.end());
  // Per-user split contributions at completion end, the same arithmetic
  // the replay's scoring epilogue performs (core/replay.cpp): a clean
  // user in a full-consume replay contributes exactly these two adds.
  final_w1_add.assign(num_users, 0.0);
  final_w2_add.assign(num_users, 0.0);
  for (std::size_t uu = 0; uu < num_users; ++uu) {
    const double last = final_user_last_w[uu];
    if (last <= 0.0) continue;
    const SplitValues term =
        split_term(final_user_w[uu], last,
                   view.capacity(static_cast<model::UserId>(uu)));
    final_w1_add[uu] = term.w1;
    final_w2_add[uu] = term.w2;
  }
  // Invert the per-pick assign CSR into per-user timelines (pick order is
  // preserved within each user: picks are scanned in order).
  user_tl_begin.assign(num_users + 1, 0);
  for (const model::UserId u : assign_user)
    ++user_tl_begin[static_cast<std::size_t>(u) + 1];
  for (std::size_t u = 1; u <= num_users; ++u)
    user_tl_begin[u] += user_tl_begin[u - 1];
  tl_pick.resize(assign_user.size());
  tl_w.resize(assign_user.size());
  std::vector<std::uint32_t> cursor(user_tl_begin.begin(),
                                    user_tl_begin.end() - 1);
  const std::size_t picks = pick.size();
  for (std::size_t i = 0; i < picks; ++i) {
    for (std::uint32_t j = assign_begin[i]; j < assign_begin[i + 1]; ++j) {
      const auto u = static_cast<std::size_t>(assign_user[j]);
      const std::uint32_t at = cursor[u]++;
      tl_pick[at] = static_cast<std::uint32_t>(i);
      tl_w[at] = assign_w[j];
    }
  }
}

GreedyEngine::GreedyEngine(InstanceView view, SolveWorkspace& ws,
                           const GreedyOptions& opts)
    : view_(view),
      ws_(ws),
      build_assignment_(opts.build_assignment),
      result_{Assignment(view.base()), 0.0, {}, {}} {
  const std::size_t users = view_.num_users();
  const std::size_t streams = view_.num_streams();
  ws_.taken.assign(streams, 0);
  ws_.rem.resize(users);
  for (std::size_t u = 0; u < users; ++u)
    ws_.rem[u] = view_.capacity(static_cast<UserId>(u));
  ws_.user_w.assign(users, 0.0);
  ws_.user_last_w.assign(users, 0.0);
  ws_.wbar.resize(streams);
  ws_.cost.resize(streams);
  for (std::size_t s = 0; s < streams; ++s) {
    ws_.wbar[s] = view_.total_utility(static_cast<StreamId>(s));
    ws_.cost[s] = view_.cost(static_cast<StreamId>(s));
  }
  rows_sorted_ = prepare_rows(view_, ws_);
  // Propagation-batching scratch: the mark array stays all-zero between
  // picks (the propagation kernel clears the marks it set).
  ws_.touched.clear();
  ws_.touch_mark.assign(streams, 0);
  ws_.pair_log.clear();
  selector_.reset(ws_, ws_.wbar, ws_.cost, opts.strategy);
  // Streams with no extractable utility are dead on arrival: drop them
  // from the pool now so the selection kernel never spends tie-breaking
  // work on the zero-effectiveness drain tail. (The run loop's
  // wbar <= kAbsEps break made them unreachable anyway.)
  for (std::size_t s = 0; s < streams; ++s)
    if (ws_.wbar[s] <= util::kAbsEps)
      selector_.remove(static_cast<StreamId>(s));
}

void GreedyEngine::add_seed(StreamId s) {
  const auto ss = static_cast<std::size_t>(s);
  // Duplicate detection is NOT pool membership: a zero-utility stream
  // leaves the pool at construction (dead-stream removal) yet a seed
  // naming it must still be force-added and charged, exactly as before
  // the pool pruning existed.
  if (ws_.taken[ss]) return;  // duplicate seed (or already considered)
  const double c = ws_.cost[ss];
  if (!approx_le(used_ + c, view_.budget()))
    throw std::invalid_argument("greedy seed does not fit the budget");
  ++result_.trace.num_considered;
  add_stream(s, c);
  ws_.taken[ss] = 1;
  selector_.remove(s);
}

void GreedyEngine::run() { run_loop(); }

void GreedyEngine::run(CompletionTrace& rec) {
  rec.clear();
  rec_ = &rec;
  run_loop();
  rec.end_used = used_;
  rec.finalize(view_, ws_.user_w, ws_.user_last_w);
  rec_ = nullptr;
}

void GreedyEngine::run_loop() {
  const double B = view_.budget();
  for (;;) {
    // Budget cutoff: eager dead-stream removal keeps only wbar > eps
    // streams in the pool, so the moment the cheapest of them stops
    // fitting, every remaining pop would be a considered-and-skipped
    // row. They are accounted for in bulk instead of draining the
    // selector one pop at a time.
    while (cost_cursor_ < ws_.cost_order.size() &&
           !selector_.contains(ws_.cost_order[cost_cursor_]))
      ++cost_cursor_;
    if (cost_cursor_ >= ws_.cost_order.size()) break;  // pool empty
    const double cheapest =
        ws_.cost[static_cast<std::size_t>(ws_.cost_order[cost_cursor_])];
    if (!approx_le(used_ + cheapest, B)) {
      result_.trace.num_considered += selector_.pool_size();
      result_.trace.skipped_budget += selector_.pool_size();
      for (std::size_t s = 0; s < ws_.taken.size(); ++s)
        if (selector_.contains(static_cast<StreamId>(s))) ws_.taken[s] = 1;
      if (rec_ != nullptr) rec_->ended_on_budget = true;
      break;
    }
    const StreamId best = selector_.pop_best();
    if (best == model::kInvalidStream) break;
    const auto bs = static_cast<std::size_t>(best);
    ws_.taken[bs] = 1;
    if (ws_.wbar[bs] <= util::kAbsEps) break;  // nothing left to gain
    ++result_.trace.num_considered;
    const double c = ws_.cost[bs];
    const bool fits = approx_le(used_ + c, B);
    if (rec_ != nullptr) {
      rec_->pick.push_back(best);
      rec_->applied.push_back(fits ? 1 : 0);
      // Tolerance-tied candidates from this pop (the selector leaves
      // them in ws_.tied). An empty range means a singleton tie set.
      rec_->tie_begin.push_back(
          static_cast<std::uint32_t>(rec_->tie_member.size()));
      if (ws_.tied.size() > 1)
        for (const SelectKey& e : ws_.tied)
          rec_->tie_member.push_back(e.stream);
      // Settle the selector before propagation: the exact best
      // effectiveness among the remaining pool at this step.
      rec_->runner_up.push_back(selector_.settle_top_eff());
      rec_->pick_eff.push_back(select_effectiveness(ws_.wbar[bs], c));
      rec_->margin_clear.push_back(
          util::margin_gt(rec_->pick_eff.back(), rec_->runner_up.back()) ? 1
                                                                         : 0);
      rec_->assign_begin.push_back(
          static_cast<std::uint32_t>(rec_->assign_user.size()));
      rec_->touch_begin.push_back(
          static_cast<std::uint32_t>(rec_->touch_stream.size()));
      rec_->death_begin.push_back(
          static_cast<std::uint32_t>(rec_->death_stream.size()));
    }
    if (fits)
      add_stream(best, c);
    else
      ++result_.trace.skipped_budget;
    if (rec_ != nullptr) {
      std::uint64_t um = 0;
      if (view_.num_users() <= 64)
        for (std::uint32_t j = rec_->assign_begin.back();
             j < rec_->assign_user.size(); ++j)
          um |= std::uint64_t{1}
                << static_cast<std::size_t>(rec_->assign_user[j]);
      rec_->assign_umask.push_back(um);
    }
  }
}

// Charges `s` and runs the shared pick propagation (core/propagate.h);
// the hooks add this engine's extras: the pair log, the capped utility,
// and the recording run's per-pick payloads.
void GreedyEngine::add_stream(StreamId s, double cost) {
  used_ += cost;
  added_streams_.push_back(s);
  struct Hooks {
    GreedyEngine& g;
    StreamId s;
    void assign(UserId u, EdgeId e, double w, double rem_old) {
      if (g.build_assignment_) {
        g.ws_.pair_log.push_back({u, s, e});
        g.assignment_dirty_ = true;
      }
      if (g.rec_ != nullptr) {
        g.rec_->assign_user.push_back(u);
        g.rec_->assign_w.push_back(w);
      }
      g.result_.capped_utility += std::min(w, rem_old);
    }
    [[nodiscard]] bool skip(StreamId sp) const { return sp == s; }
    // Pool members only, recorded before a death's removal so a dying
    // stream still gets its final value: a replay keeps no stream alive
    // past its parent's death — clean copies die with the parent's
    // recorded decision, dirty survivors bail — so out-of-pool streams'
    // w̄, which the engine itself never reads again, need no image.
    void touched(StreamId sp) {
      if (g.rec_ == nullptr) return;
      g.rec_->touch_stream.push_back(sp);
      g.rec_->touch_wbar.push_back(g.ws_.wbar[static_cast<std::size_t>(sp)]);
    }
    void died(StreamId sp) {
      if (g.rec_ != nullptr) g.rec_->death_stream.push_back(sp);
    }
  } hooks{*this, s};
  propagate_pick(view_, ws_, selector_, s, hooks);
}

void GreedyEngine::sync_assignment() {
  if (!assignment_dirty_) return;
  result_.assignment = build_winner(view_, ws_, "greedy");
  assignment_dirty_ = false;
}

SelectStats GreedyEngine::select_stats() const {
  SelectStats stats = selector_.stats();
  stats.rows_sorted = rows_sorted_;
  return stats;
}

const GreedyResult& GreedyEngine::result() {
  sync_assignment();
  result_.select = select_stats();
  return result_;
}

GreedyResult GreedyEngine::take() && {
  sync_assignment();
  result_.select = select_stats();
  return std::move(result_);
}

void GreedyEngine::save(GreedyCheckpoint& out) const {
  out.rem.assign(ws_.rem.begin(), ws_.rem.end());
  out.wbar.assign(ws_.wbar.begin(), ws_.wbar.end());
  out.taken.assign(ws_.taken.begin(), ws_.taken.end());
  out.user_w.assign(ws_.user_w.begin(), ws_.user_w.end());
  out.user_last_w.assign(ws_.user_last_w.begin(), ws_.user_last_w.end());
  out.added_streams.assign(added_streams_.begin(), added_streams_.end());
  selector_.save(out.selector);
  out.used = used_;
  out.capped_utility = result_.capped_utility;
  out.cost_cursor = cost_cursor_;
  out.num_considered = result_.trace.num_considered;
  out.skipped_budget = result_.trace.skipped_budget;
  if (build_assignment_)
    out.pair_log.assign(ws_.pair_log.begin(), ws_.pair_log.end());
}

void GreedyEngine::restore(const GreedyCheckpoint& in) {
  std::copy(in.rem.begin(), in.rem.end(), ws_.rem.begin());
  std::copy(in.wbar.begin(), in.wbar.end(), ws_.wbar.begin());
  std::copy(in.taken.begin(), in.taken.end(), ws_.taken.begin());
  std::copy(in.user_w.begin(), in.user_w.end(), ws_.user_w.begin());
  std::copy(in.user_last_w.begin(), in.user_last_w.end(),
            ws_.user_last_w.begin());
  added_streams_.assign(in.added_streams.begin(), in.added_streams.end());
  selector_.restore(in.selector);
  cost_cursor_ = in.cost_cursor;
  used_ = in.used;
  result_.capped_utility = in.capped_utility;
  result_.trace.num_considered = in.num_considered;
  result_.trace.skipped_budget = in.skipped_budget;
  if (build_assignment_) {
    ws_.pair_log.assign(in.pair_log.begin(), in.pair_log.end());
    assignment_dirty_ = true;  // lazily rebuilt on the next result()
  }
}

SplitValues GreedyEngine::split_values() const {
  SplitValues out;
  const std::size_t users = view_.num_users();
  for (std::size_t u = 0; u < users; ++u) {
    const double last = ws_.user_last_w[u];
    if (last <= 0.0) continue;  // never assigned (the engine skips w <= 0)
    out += split_term(ws_.user_w[u], last,
                      view_.capacity(static_cast<UserId>(u)));
  }
  return out;
}

Assignment GreedyEngine::winner(std::string_view variant) const {
  if (!build_assignment_) (void)log_fresh_pairs(view_, added_streams_, ws_);
  return build_winner(view_, ws_, variant);
}

GreedyResult greedy_unit_skew(const InstanceView& view,
                              const GreedyOptions& opts) {
  return greedy_unit_skew_seeded(view, {}, opts);
}

GreedyResult greedy_unit_skew(const Instance& inst,
                              const GreedyOptions& opts) {
  return greedy_unit_skew_seeded(InstanceView::cap_form(inst), {}, opts);
}

GreedyResult greedy_unit_skew_seeded(const InstanceView& view,
                                     std::span<const StreamId> seeds,
                                     const GreedyOptions& opts) {
  SolveWorkspace local;
  SolveWorkspace& ws = opts.workspace != nullptr ? *opts.workspace : local;
  GreedyOptions engine_opts = opts;
  engine_opts.workspace = &ws;
  engine_opts.build_assignment = true;  // the assignment IS the result
  GreedyEngine engine(view, ws, engine_opts);
  for (StreamId s : seeds) engine.add_seed(s);
  engine.run();
  return std::move(engine).take();
}

GreedyResult greedy_unit_skew_seeded(const Instance& inst,
                                     std::span<const StreamId> seeds,
                                     const GreedyOptions& opts) {
  return greedy_unit_skew_seeded(InstanceView::cap_form(inst), seeds, opts);
}

StreamId amax_stream(const InstanceView& view) {
  StreamId best = model::kInvalidStream;
  double best_w = -1.0;
  for (std::size_t s = 0; s < view.num_streams(); ++s) {
    const double w = view.total_utility(static_cast<StreamId>(s));
    if (w > best_w) {
      best_w = w;
      best = static_cast<StreamId>(s);
    }
  }
  return best_w > 0.0 ? best : model::kInvalidStream;
}

double stream_capped_value(const InstanceView& view, StreamId s) {
  double total = 0.0;
  if (s == model::kInvalidStream) return total;
  for (EdgeId e = view.first_edge(s); e < view.last_edge(s); ++e) {
    const double w = view.edge_utility(e);
    if (w > 0.0) total += std::min(view.capacity(view.edge_user(e)), w);
  }
  return total;
}

Assignment best_single_stream(const InstanceView& view) {
  const StreamId best = amax_stream(view);
  Assignment a(view.base());
  if (best != model::kInvalidStream)
    for (EdgeId e = view.first_edge(best); e < view.last_edge(best); ++e)
      if (view.edge_utility(e) > 0.0) a.assign(view.edge_user(e), best);
  return a;
}

Assignment best_single_stream(const Instance& inst) {
  return best_single_stream(InstanceView::cap_form(inst));
}

double view_capped_utility(const InstanceView& view, const Assignment& a) {
  double total = 0.0;
  for (std::size_t uu = 0; uu < view.num_users(); ++uu) {
    const auto u = static_cast<UserId>(uu);
    const auto streams = a.streams_of(u);
    if (streams.empty()) continue;
    double w = 0.0;
    for (StreamId s : streams) w += view.pair_utility(u, s);
    total += std::min(view.capacity(u), w);
  }
  return total;
}


FeasibleSplit split_last_stream(const InstanceView& view,
                                const Assignment& semi) {
  FeasibleSplit out{Assignment(view.base()), Assignment(view.base()), 0.0,
                    0.0};
  for (std::size_t uu = 0; uu < view.num_users(); ++uu) {
    const auto u = static_cast<UserId>(uu);
    const auto streams = semi.streams_of(u);
    if (streams.empty()) continue;
    double w = 0.0;
    for (StreamId s : streams) w += view.pair_utility(u, s);
    const std::size_t keep =
        streams.size() - (split_peels_last(w, view.capacity(u)) ? 1 : 0);
    for (std::size_t t = 0; t < keep; ++t) {
      out.a1.assign(u, streams[t]);
      out.w1 += view.pair_utility(u, streams[t]);
    }
    out.a2.assign(u, streams.back());
    out.w2 += view.pair_utility(u, streams.back());
  }
  return out;
}

FeasibleSplit split_last_stream(const Instance& inst, const Assignment& semi) {
  return split_last_stream(InstanceView::cap_form(inst), semi);
}

double log_fresh_pairs(const InstanceView& view,
                       std::span<const StreamId> streams, SolveWorkspace& ws) {
  ws.pair_log.clear();
  auto& rem = ws.scratch;
  rem.resize(view.num_users());
  for (std::size_t u = 0; u < rem.size(); ++u)
    rem[u] = view.capacity(static_cast<UserId>(u));
  double capped = 0.0;
  for (const StreamId s : streams) {
    for (EdgeId e = view.first_edge(s); e < view.last_edge(s); ++e) {
      const UserId u = view.edge_user(e);
      const auto uu = static_cast<std::size_t>(u);
      const double w = view.edge_utility(e);
      if (rem[uu] <= util::kAbsEps || w <= 0.0) continue;
      ws.pair_log.push_back({u, s, e});
      capped += std::min(w, rem[uu]);
      rem[uu] -= w;
    }
  }
  return capped;
}

namespace {

// Groups ws.pair_log by user into ws.user_pairs, pick order kept within
// each user: per-user counts, an inclusive scan to each user's end, then
// a back-to-front fill that walks each offset down to its user's start.
void group_pairs_by_user(std::size_t users, SolveWorkspace& ws) {
  auto& begin = ws.user_pair_begin;
  begin.assign(users + 1, 0);
  for (const AssignedPair& p : ws.pair_log)
    ++begin[static_cast<std::size_t>(p.user)];
  for (std::size_t u = 1; u <= users; ++u) begin[u] += begin[u - 1];
  ws.user_pairs.resize(ws.pair_log.size());
  for (std::size_t i = ws.pair_log.size(); i-- > 0;) {
    const AssignedPair& p = ws.pair_log[i];
    ws.user_pairs[--begin[static_cast<std::size_t>(p.user)]] = p;
  }
}

// Adds user u's grouped pairs (at least one) to split_last_stream's
// per-pair running sums — w1 over the pairs A1 keeps, w2 the last — and
// returns the end of the pairs A1 keeps. A1 keeps every pair but the
// last, and the last too unless u's pick-order sum from 0.0 (the peel
// sum of split_last_stream and the engine's user_w) passes its cap.
// view.edge_utility(e) is the double pair_utility(u, s) finds by search.
std::uint32_t split_user(const InstanceView& view, const SolveWorkspace& ws,
                         UserId u, SplitValues& acc) {
  const auto uu = static_cast<std::size_t>(u);
  const std::uint32_t end = ws.user_pair_begin[uu + 1];
  double w = 0.0;
  for (std::uint32_t t = ws.user_pair_begin[uu]; t + 1 < end; ++t) {
    const double x = view.edge_utility(ws.user_pairs[t].edge);
    w += x;
    acc.w1 += x;
  }
  const double last = view.edge_utility(ws.user_pairs[end - 1].edge);
  w += last;
  acc.w2 += last;
  if (split_peels_last(w, view.capacity(u))) return end - 1;
  acc.w1 += last;
  return end;
}

}  // namespace

SplitValues split_pair_log(const InstanceView& view, SolveWorkspace& ws) {
  group_pairs_by_user(view.num_users(), ws);
  SplitValues out;
  for (std::size_t uu = 0; uu < view.num_users(); ++uu)
    if (ws.user_pair_begin[uu] < ws.user_pair_begin[uu + 1])
      (void)split_user(view, ws, static_cast<UserId>(uu), out);
  return out;
}

Assignment build_winner(const InstanceView& view, SolveWorkspace& ws,
                        std::string_view variant, bool log_grouped) {
  if (variant == "Amax") return best_single_stream(view);
  if (!log_grouped) group_pairs_by_user(view.num_users(), ws);
  const bool semi = variant == "greedy";
  Assignment out(view.base());
  SplitValues unused;
  for (std::size_t uu = 0; uu < view.num_users(); ++uu) {
    const auto u = static_cast<UserId>(uu);
    const std::uint32_t begin = ws.user_pair_begin[uu];
    const std::uint32_t end = ws.user_pair_begin[uu + 1];
    if (begin == end) continue;
    // A1 drops a peeled last pair, A2 keeps only the last pair.
    const std::uint32_t from = variant == "A2" ? end - 1 : begin;
    const std::uint32_t to =
        variant == "A1" ? split_user(view, ws, u, unused) : end;
    out.reserve_streams(u, to - from);
    if (semi) continue;
    for (std::uint32_t t = from; t < to; ++t)
      out.assign_edge(u, ws.user_pairs[t].stream, ws.user_pairs[t].edge);
  }
  // The semi-feasible solution keeps the log's order: the accounting
  // sums run in it.
  if (semi)
    for (const AssignedPair& p : ws.pair_log)
      out.assign_edge(p.user, p.stream, p.edge);
  return out;
}

SmdSolveResult solve_unit_skew(const InstanceView& view, SmdMode mode,
                               const GreedyOptions& opts) {
  SolveWorkspace local;
  SolveWorkspace& ws = opts.workspace != nullptr ? *opts.workspace : local;
  GreedyOptions engine_opts = opts;
  engine_opts.workspace = &ws;
  // The pair log scores the split and builds the winner; a values-only
  // augmented solve needs neither.
  engine_opts.build_assignment =
      opts.build_assignment || mode == SmdMode::kFeasible;
  GreedyEngine engine(view, ws, engine_opts);
  engine.run();
  const double w_amax = stream_capped_value(view, amax_stream(view));
  // Theorem 2.8 races the split's sides (the last stream assigned to each
  // user peeled); Corollary 2.7 races the semi-feasible greedy itself.
  const SplitValues split = mode == SmdMode::kFeasible
                                ? split_pair_log(view, ws)
                                : SplitValues{};
  const RaceOutcome won =
      race_winner(mode, engine.capped_utility(), split, w_amax);
  // Under kFeasible the engine logs its pairs and split_pair_log has just
  // grouped them: the winner's build reuses that grouping.
  Assignment winner = !opts.build_assignment ? Assignment(view.base())
                      : mode == SmdMode::kFeasible
                          ? build_winner(view, ws, won.variant,
                                         /*log_grouped=*/true)
                          : engine.winner(won.variant);
  return {std::move(winner), won.value, won.variant, engine.select_stats()};
}

SmdSolveResult solve_unit_skew(const Instance& inst, SmdMode mode,
                               const GreedyOptions& opts) {
  return solve_unit_skew(InstanceView::cap_form(inst), mode, opts);
}

}  // namespace vdist::core
