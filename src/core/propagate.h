// The one pick-propagation kernel of the §2 greedy: Algorithm 1's step
// for one added stream s. GreedyEngine (core/greedy.cpp) runs it for each
// pick and seed; the serving repair (engine/repair_core.cpp) for each pick
// of its completions. Each residual change moves w̄ of the user's other
// streams: a pair's contribution min(w, max(rem, 0)) drops to the new
// clamped residual. Per user the walk reads the prepared row (sorted by
// descending w) and stops at the first unchanged pair; each stream gets
// at most one delta per (pick, user), in s's edge order, so every w̄ sum
// is bit-identical whatever order a row is in. The selector hears once
// per touched stream, after the walk: staleness is binary, and w̄ only
// falls within a pick.
#pragma once

#include <cstddef>

#include "core/select.h"
#include "model/view.h"
#include "util/float_cmp.h"
#include "util/hotpath.h"

namespace vdist::core {

// Propagates the pick of `s` over ws's state (rem, wbar, user_w,
// user_last_w) and prepared rows; the caller charges the cost. Hooks:
//   * assign(u, e, w, rem_old): s goes to user u over edge e, before u's
//     accounting moves and its row is walked;
//   * skip(sp): sp's w̄ stays as it is (at least for sp == s);
//   * touched(sp): a pool stream's w̄ changed (ws.wbar holds the new value);
//   * died(sp): that stream fell to <= kAbsEps and just left the pool.
template <typename Hooks>
void propagate_pick(const model::InstanceView& view, SolveWorkspace& ws,
                    StreamSelector& selector, model::StreamId s,
                    Hooks& hooks) {
  double* const rem = ws.rem.data();
  double* const wbar = ws.wbar.data();
  double* const user_w = ws.user_w.data();
  double* const user_last_w = ws.user_last_w.data();
  const double* const user_edge_w = ws.user_edge_w.data();
  const model::StreamId* const user_edge_s = ws.user_edge_s.data();
  char* const touch_mark = ws.touch_mark.data();
  auto& touched = ws.touched;
  touched.clear();
  std::size_t rows = 0;
  std::size_t pairs = 0;
  const model::EdgeId lo = view.first_edge(s);
  const model::EdgeId hi = view.last_edge(s);
  for (model::EdgeId e = lo; e < hi; ++e) {
    const model::UserId u = view.edge_user(e);
    const auto uu = static_cast<std::size_t>(u);
    if (e + 1 < hi) {
      // s's users are sparse in user space: pull the next residual and
      // row head while this row is walked.
      const model::UserId un = view.edge_user(e + 1);
      VDIST_PREFETCH(rem + static_cast<std::size_t>(un));
      VDIST_PREFETCH(user_edge_w + view.user_edge_begin(un));
    }
    const double w = view.edge_utility(e);
    if (rem[uu] <= util::kAbsEps || w <= 0.0) continue;
    const double rem_old = rem[uu];
    hooks.assign(u, e, w, rem_old);
    user_w[uu] += w;
    user_last_w[uu] = w;
    rem[uu] -= w;
    const double rem_new = rem[uu];
    // rem_old > 0, so the old contribution is min(we, rem_old).
    const double rem_new_clamped = rem_new > 0.0 ? rem_new : 0.0;
    const std::size_t row_begin = view.user_edge_begin(u);
    const double* const we_row = user_edge_w + row_begin;
    const model::StreamId* const sp_row = user_edge_s + row_begin;
    const std::size_t deg = view.streams_of(u).size();
    ++rows;
    for (std::size_t t = 0; t < deg; ++t) {
      const double we = we_row[t];
      // The first pair with w <= the clamped residual (every zero pair
      // too) keeps its contribution, and so does the rest of the row.
      if (we <= rem_new_clamped) break;
      const model::StreamId sp = sp_row[t];
      if (hooks.skip(sp)) continue;
      // Both we and rem_old exceed the clamp: always a real delta.
      const double before = we < rem_old ? we : rem_old;
      const auto sps = static_cast<std::size_t>(sp);
      wbar[sps] += rem_new_clamped - before;
      ++pairs;
      if (touch_mark[sps] == 0) {
        touch_mark[sps] = 1;
        touched.push_back(sp);
      }
    }
  }
  for (const model::StreamId sp : touched) {
    const auto sps = static_cast<std::size_t>(sp);
    touch_mark[sps] = 0;
    if (!selector.contains(sp)) continue;  // left the pool before this pick
    hooks.touched(sp);
    // A dead stream can never be picked: drop it now rather than
    // refresh its key.
    if (wbar[sps] <= util::kAbsEps) {
      selector.remove(sp);
      hooks.died(sp);
    } else {
      selector.update(sp, wbar[sps]);
    }
  }
  selector.note_propagation(rows, pairs);
}

}  // namespace vdist::core
