#include "core/replay.h"

#include <algorithm>
#include <bit>
#include <cmath>

#include "util/float_cmp.h"

namespace vdist::core {

using model::EdgeId;
using model::StreamId;
using model::UserId;
using util::approx_le;
using util::kAbsEps;
using util::kInf;
using util::margin_gt;

namespace {

// select.cpp's eff_ties, replicated verbatim for the all-clean tie
// gathers (clean values are exact, so the replica decides identically).
[[nodiscard]] bool replay_eff_ties(double a, double b) noexcept {
  if (std::isinf(a) || std::isinf(b)) return std::isinf(a) && std::isinf(b);
  return util::approx_eq(a, b);
}

// Dead-stream thresholds: the engine drops a touched stream from the
// pool when its w̄ falls to <= kAbsEps. A clean stream's image is exact,
// so the replay applies the same test; a dirty stream's value carries
// dust, so the replay only trusts decisions with headroom on either side
// of the knife and bails in between.
constexpr double kDeathLo = 0.5 * kAbsEps;
constexpr double kDeathHi = 2.0 * kAbsEps;

}  // namespace

ReplayContext::ReplayContext(const model::InstanceView& view,
                             const SolveWorkspace& ws)
    : view_(&view),
      ws_(&ws),
      S_(view.num_streams()),
      U_(view.num_users()) {
  base_.resize(S_);
  dw_.assign(S_, 0.0);
  dw_stamp_.assign(S_, 0u);
  pos_stamp_.assign(S_, 0u);
  pool_.assign(S_, 0);
  alive_add_.assign(S_, 0.0);
  vals_.resize(S_);
  inv_cost_.resize(S_);
  for (std::size_t s = 0; s < S_; ++s)
    inv_cost_[s] = ws.cost[s] > 0.0 ? 1.0 / ws.cost[s] : kInf;
  u_stamp_.assign(U_, 0u);
  c_rem_.resize(U_);
  c_uw_.resize(U_);
  c_ulw_.resize(U_);
  p_rem_.resize(U_);
  // Bitmask acceleration for the aligned-pick dirty-user intersection.
  // Bails out (keeping the edge-row walk) on >64 users, an oversized
  // dense matrix, or duplicate (stream, user) edges the matrix could
  // not represent.
  use_masks_ = U_ > 0 && U_ <= 64 && S_ * U_ <= (std::size_t{1} << 22);
  if (use_masks_) {
    row_mask_.assign(S_, 0);
    dense_w_.assign(S_ * U_, 0.0);
    for (std::size_t s = 0; s < S_ && use_masks_; ++s) {
      const auto sid = static_cast<StreamId>(s);
      const EdgeId lo = view.first_edge(sid);
      const EdgeId hi = view.last_edge(sid);
      for (EdgeId e = lo; e < hi; ++e) {
        const double w = view.edge_utility(e);
        if (w <= 0.0) continue;
        const auto uu = static_cast<std::size_t>(view.edge_user(e));
        const std::uint64_t bit = std::uint64_t{1} << uu;
        if ((row_mask_[s] & bit) != 0) {
          use_masks_ = false;
          break;
        }
        row_mask_[s] |= bit;
        dense_w_[s * U_ + uu] = w;
      }
    }
  }
}

void ReplayContext::dirty_init(UserId u, std::size_t cut) {
  const auto uu = static_cast<std::size_t>(u);
  u_stamp_[uu] = epoch_;
  if (U_ <= 64) dirty_umask_ |= std::uint64_t{1} << uu;
  // While clean, the child's accumulators evolved through the parent's
  // bit-identical op sequence: land on the precomputed prefix state.
  const std::uint32_t lo = trace_->user_tl_begin[uu];
  const std::uint32_t hi = trace_->user_tl_begin[uu + 1];
  const auto cut32 = static_cast<std::uint32_t>(cut);
  std::uint32_t j = lo;
  while (j < hi && trace_->tl_pick[j] < cut32) ++j;
  if (j == lo) {
    c_rem_[uu] = frame_->rem[uu];
    c_uw_[uu] = frame_->user_w[uu];
    c_ulw_[uu] = frame_->user_last_w[uu];
  } else {
    c_rem_[uu] = tl_rem_[j - 1];
    c_uw_[uu] = tl_uw_[j - 1];
    c_ulw_[uu] = trace_->tl_w[j - 1];
  }
  p_rem_[uu] = c_rem_[uu];
}

double ReplayContext::peek_clean_rem(UserId u, std::size_t cut) const {
  const auto uu = static_cast<std::size_t>(u);
  const std::uint32_t lo = trace_->user_tl_begin[uu];
  const std::uint32_t hi = trace_->user_tl_begin[uu + 1];
  const auto cut32 = static_cast<std::uint32_t>(cut);
  std::uint32_t j = lo;
  while (j < hi && trace_->tl_pick[j] < cut32) ++j;
  return j == lo ? frame_->rem[uu] : tl_rem_[j - 1];
}

template <bool DoChild, bool DoParent>
bool ReplayContext::apply_pair(UserId u, double w, StreamId picked) {
  // The propagation kernel's per-pair accounting (core/propagate.h) for
  // one (pick, user) assignment, on the child-side and/or parent-side
  // accumulators. It stays apart from the kernel: the fused two-sided
  // walk and its inline death tests would make the kernel branch on its
  // caller. The
  // parent's deltas are *subtracted* from dw (the image absorbs them via
  // the touch list; the child must not see them), the child's added —
  // identical formulas per side, fused into one walk of the user's
  // sorted row. Summing both sides' per-stream deltas before the single
  // dw add differs from two sequential adds only in rounding dust, which
  // every dw consumer margin-guards. Each side's per-stream delta is the
  // branchless min(we, clamp) − min(we, rem_old): for we <= clamp it
  // collapses to exactly +0.0 (clamp < rem_old since w > 0), the
  // identity the engine's skip produces.
  const auto uu = static_cast<std::size_t>(u);
  double rem_old_c = 0.0;
  double clamp_c = 0.0;
  if constexpr (DoChild) {
    rem_old_c = c_rem_[uu];
    c_uw_[uu] += w;
    c_ulw_[uu] = w;
    c_rem_[uu] = rem_old_c - w;
    const double rem_new = c_rem_[uu];
    clamp_c = rem_new > 0.0 ? rem_new : 0.0;
  }
  double rem_old_p = 0.0;
  double clamp_p = 0.0;
  if constexpr (DoParent) {
    // Positive dw deltas originate only here: the scan ladder's
    // monotonicity window ends.
    lad_valid_ = false;
    rem_old_p = p_rem_[uu];
    p_rem_[uu] = rem_old_p - w;
    const double rem_new = p_rem_[uu];
    clamp_p = rem_new > 0.0 ? rem_new : 0.0;
  }
  const double cut =
      DoChild ? (DoParent ? std::min(clamp_c, clamp_p) : clamp_c) : clamp_p;
  const std::size_t row_begin = view_->user_edge_begin(u);
  const double* const we_row = ws_->user_edge_w.data() + row_begin;
  const StreamId* const sp_row = ws_->user_edge_s.data() + row_begin;
  const std::size_t deg = view_->streams_of(u).size();
  for (std::size_t t = 0; t < deg; ++t) {
    const double we = we_row[t];
    if (we <= cut) break;  // sorted row: the rest is unchanged both sides
    const StreamId sp = sp_row[t];
    if (sp == picked) continue;
    const auto sps = static_cast<std::size_t>(sp);
    double delta = 0.0;
    if constexpr (DoChild)
      delta += (we < clamp_c ? we : clamp_c) - (we < rem_old_c ? we : rem_old_c);
    if constexpr (DoParent)
      delta += (we < rem_old_p ? we : rem_old_p) - (we < clamp_p ? we : clamp_p);
    if (dw_stamp_[sps] != epoch_) {
      dw_stamp_[sps] = epoch_;
      // dw_[sps] is already +0.0 (the invariant; cleared at leaf start).
      dirty_streams_.push_back(sp);
    }
    const double nd = dw_[sps] + delta;
    dw_[sps] = nd;
    if constexpr (DoParent) {
      // Child-side deltas are never positive; a dw crossing into
      // positive territory (the parent spent utility the child kept) is
      // the one class of streams whose child value can exceed every
      // recorded bound, so the scalar bound absorbs it immediately.
      if (nd > 0.0) {
        if (pos_stamp_[sps] != epoch_) {
          pos_stamp_[sps] = epoch_;
          pos_dw_.push_back(sp);
        }
        const double ve = (base_[sps] + nd) * inv_cost_[sps];
        if (ve > pos_ub_) pos_ub_ = ve;
      }
    }
    // Inline death test. Values fall monotonically within a pick, so the
    // final state is always checked by whichever site updates the stream
    // last; an intermediate value in the knife band bails
    // conservatively. The two conditions combine bitwise into one
    // rarely-taken branch — a short-circuit on the pool byte alone
    // mispredicts heavily mid-completion.
    const double v = base_[sps] + nd;
    if (static_cast<int>(v < kDeathHi) & static_cast<int>(pool_[sps] != 0)) {
      if (v > kDeathLo) return false;  // knife-edge: not provable
      kill(sps);
    }
  }
  return true;
}

bool ReplayContext::apply_assigns_aligned(std::size_t i, StreamId p) {
  const auto ps = static_cast<std::size_t>(p);
  const std::uint32_t jend = trace_->assign_begin[i + 1];
  std::uint32_t j = trace_->assign_begin[i];
  if (use_masks_) {
    // Dirty users the parent assigned (fusing the child side where it
    // also assigns), then the mask remainder — users the parent's
    // exhausted residual skipped but the child's did not. Recorded
    // assign utilities are the full edge utilities, i.e. the dense
    // table's entries, so the assign list itself never needs walking.
    // (Bit order may differ from the engine's edge order: per-user
    // accumulators are independent and shared-dw dust is
    // margin-guarded.)
    const std::uint64_t amask = trace_->assign_umask[i];
    std::uint64_t both = amask & dirty_umask_;
    std::uint64_t conly = row_mask_[ps] & dirty_umask_ & ~amask;
    const double* const wrow = dense_w_.data() + ps * U_;
    while (both != 0) {
      const auto uu = static_cast<std::size_t>(std::countr_zero(both));
      both &= both - 1;
      const bool ok = c_rem_[uu] > kAbsEps
                          ? apply_pair<true, true>(static_cast<UserId>(uu),
                                                   wrow[uu], p)
                          : apply_pair<false, true>(static_cast<UserId>(uu),
                                                    wrow[uu], p);
      if (!ok) return false;
    }
    while (conly != 0) {
      const auto uu = static_cast<std::size_t>(std::countr_zero(conly));
      conly &= conly - 1;
      if (c_rem_[uu] > kAbsEps) {
        if (!apply_pair<true, false>(static_cast<UserId>(uu), wrow[uu], p))
          return false;
      }
    }
    return true;
  }
  // Fallback (no mask acceleration): merge the pick's edge row with the
  // parent's recorded assigns — both are in edge order.
  const EdgeId lo = view_->first_edge(p);
  const EdgeId hi = view_->last_edge(p);
  for (EdgeId e = lo; e < hi; ++e) {
    const UserId u = view_->edge_user(e);
    const double w = view_->edge_utility(e);
    if (w <= 0.0) continue;
    bool do_p = false;
    if (j < jend && trace_->assign_user[j] == u) {
      do_p = true;
      ++j;
    }
    if (!user_dirty(u)) continue;  // identical both sides; image covers it
    const bool do_c = c_rem_[static_cast<std::size_t>(u)] > kAbsEps;
    if (!do_c && !do_p) continue;
    const bool ok = do_c ? (do_p ? apply_pair<true, true>(u, w, p)
                                 : apply_pair<true, false>(u, w, p))
                         : apply_pair<false, true>(u, w, p);
    if (!ok) return false;
  }
  return true;
}

bool ReplayContext::absorb_touches(std::size_t i) {
  // The recorded post-pick w̄ of every stream the parent's propagation
  // touched (in-pool or not): the image tracks the parent's live array
  // bit-for-bit. Only dirty copies need a death test here — a clean
  // stream's death is the parent's own exact decision, replayed from the
  // recorded per-pick death list below.
  {
    const StreamId* __restrict ts = trace_->touch_stream.data();
    const double* __restrict tw = trace_->touch_wbar.data();
    double* __restrict base = base_.data();
    const double* __restrict dw = dw_.data();
    const char* __restrict pool = pool_.data();
    const std::uint32_t* __restrict stamp = dw_stamp_.data();
    const std::uint32_t jend = trace_->touch_begin[i + 1];
    for (std::uint32_t j = trace_->touch_begin[i]; j < jend; ++j) {
      const auto xs = static_cast<std::size_t>(ts[j]);
      const double nb = tw[j];
      base[xs] = nb;
      // dw_ is exactly +0.0 for clean streams, so nb + dw_ is every
      // stream's child value; folding the dirty stamp into the bitwise
      // condition makes this one never-mispredicting branch (a clean
      // near-zero recorded value alone cannot take it).
      const double v = nb + dw[xs];
      if (static_cast<int>(v < kDeathHi) & static_cast<int>(pool[xs] != 0) &
          static_cast<int>(stamp[xs] == epoch_)) {
        if (v > kDeathLo) return false;  // knife-edge: not provable
        kill(xs);
      }
    }
  }
  for (std::uint32_t j = trace_->death_begin[i]; j < trace_->death_begin[i + 1];
       ++j) {
    const auto xs = static_cast<std::size_t>(trace_->death_stream[j]);
    if (pool_[xs] == 0) continue;  // the child consumed it earlier
    if (dw_stamp_[xs] != epoch_) {
      kill(xs);  // clean: the parent's exact <= kAbsEps test is the child's
    }
    // Dirty copies were already checked against the knife above (the
    // death list is a subset of the touch list); a dirty survivor's
    // child value is provably alive.
  }
  return true;
}

bool ReplayContext::align_parent_only(std::size_t i) {
  if (trace_->applied[i] == 0) return true;  // parent skipped it too
  const StreamId p = trace_->pick[i];
  if (use_masks_) {
    const auto ps = static_cast<std::size_t>(p);
    const double* const wrow = dense_w_.data() + ps * U_;
    std::uint64_t am = trace_->assign_umask[i];
    while (am != 0) {
      const auto uu = static_cast<std::size_t>(std::countr_zero(am));
      am &= am - 1;
      const UserId u = static_cast<UserId>(uu);
      // The parent assigns where the child does not: if the user was
      // still clean, the trajectories split exactly here.
      if (!user_dirty(u)) dirty_init(u, i);
      if (!apply_pair<false, true>(u, wrow[uu], p)) return false;
    }
    return absorb_touches(i);
  }
  for (std::uint32_t j = trace_->assign_begin[i];
       j < trace_->assign_begin[i + 1]; ++j) {
    const UserId u = trace_->assign_user[j];
    if (!user_dirty(u)) dirty_init(u, i);
    if (!apply_pair<false, true>(u, trace_->assign_w[j], p)) return false;
  }
  return absorb_touches(i);
}

bool ReplayContext::apply_child_only(StreamId s, std::size_t cut) {
  child_used_ += ws_->cost[static_cast<std::size_t>(s)];
  const EdgeId lo = view_->first_edge(s);
  const EdgeId hi = view_->last_edge(s);
  for (EdgeId e = lo; e < hi; ++e) {
    const UserId u = view_->edge_user(e);
    const double w = view_->edge_utility(e);
    if (w <= 0.0) continue;
    const auto uu = static_cast<std::size_t>(u);
    if (user_dirty(u)) {
      if (c_rem_[uu] > kAbsEps) {
        if (!apply_pair<true, false>(u, w, s)) return false;
      }
    } else if (peek_clean_rem(u, cut) > kAbsEps) {
      dirty_init(u, cut);
      if (!apply_pair<true, false>(u, w, s)) return false;
    }
    // A skipped pair leaves the user's state untouched, so a clean user
    // stays bit-equal to the parent — still clean.
  }
  return true;
}

void ReplayContext::refresh_dirty_ub() {
  double m = -kInf;
  for (const StreamId s : dirty_streams_) {
    const auto ss = static_cast<std::size_t>(s);
    if (pool_[ss] == 0) continue;
    const double v = (base_[ss] + dw_[ss]) * inv_cost_[ss];
    if (v > m) m = v;
  }
  dirty_ub_ = m;
}

double ReplayContext::pos_dw_bound(StreamId exclude) const {
  double m = -kInf;
  for (const StreamId s : pos_dw_) {
    if (s == exclude) continue;
    const auto ss = static_cast<std::size_t>(s);
    if (pool_[ss] == 0 || dw_[ss] <= 0.0) continue;
    const double v = (base_[ss] + dw_[ss]) * inv_cost_[ss];
    if (v > m) m = v;
  }
  return m;
}

void ReplayContext::settle_pos_top() {
  // Exact top-2 over the positive-dw set. Child values only decrease, so
  // the settled top is a valid upper bound (pos_ub_) until the next
  // positive delta raises it.
  pos_top_ = -kInf;
  pos_second_ = -kInf;
  pos_arg_ = model::kInvalidStream;
  for (const StreamId s : pos_dw_) {
    const auto ss = static_cast<std::size_t>(s);
    if (pool_[ss] == 0 || dw_[ss] <= 0.0) continue;
    const double v = (base_[ss] + dw_[ss]) * inv_cost_[ss];
    if (v > pos_top_) {
      pos_second_ = pos_top_;
      pos_top_ = v;
      pos_arg_ = s;
    } else if (v > pos_second_) {
      pos_second_ = v;
    }
  }
  pos_ub_ = pos_top_;
}

StreamId ReplayContext::full_scan_resolve() {
  // Multiply-based top-3 over the pool. Pass 1 computes every stream's
  // value branch-free (dead streams collapse to -inf through the scan
  // mask) so the compiler vectorizes it; pass 2 is a scalar top-3 whose
  // branches almost never fire. The products sit within an ulp of the
  // engine's divisions, vanishing against the margin, so a margin-clear
  // top is the provable winner; anything tighter re-runs with exact
  // arithmetic. The top-3 also refill the scan ladder: until the next
  // positive-dw event every pool value only decreases, so v2/v3 keep
  // bounding the non-winners without a rescan.
  const double* const base = base_.data();
  const double* const dw = dw_.data();
  const double* const inv = inv_cost_.data();
  const double* const alive = alive_add_.data();
  double* const vals = vals_.data();
  for (std::size_t ss = 0; ss < S_; ++ss)
    vals[ss] = (base[ss] + dw[ss]) * inv[ss] + alive[ss];
  double v1 = -kInf;
  double v2 = -kInf;
  double v3 = -kInf;
  double v4 = -kInf;
  StreamId a1 = model::kInvalidStream;
  StreamId a2 = model::kInvalidStream;
  StreamId a3 = model::kInvalidStream;
  for (std::size_t ss = 0; ss < S_; ++ss) {
    const double v = vals[ss];
    if (v > v3) {
      if (v > v2) {
        if (v > v1) {
          v4 = v3;
          v3 = v2;
          a3 = a2;
          v2 = v1;
          a2 = a1;
          v1 = v;
          a1 = static_cast<StreamId>(ss);
        } else {
          v4 = v3;
          v3 = v2;
          a3 = a2;
          v2 = v;
          a2 = static_cast<StreamId>(ss);
        }
      } else {
        v4 = v3;
        v3 = v;
        a3 = static_cast<StreamId>(ss);
      }
    } else if (v > v4) {
      v4 = v;
    }
  }
  if (!(v1 > -kInf)) return model::kInvalidStream;  // pool empty
  if (margin_gt(v1, v2)) {
    lad_v2_ = v2;
    lad_v3_ = v3;
    lad_v4_ = v4;
    lad_a2_ = a2;
    lad_a3_ = a3;
    lad_valid_ = true;
    return a1;
  }
  return full_scan_exact();
}

StreamId ReplayContext::ladder_next_winner() {
  // The last margin-clear scan's runner-up a2 as the next divergence
  // winner, no rescan: while the ladder is valid every pool value only
  // decreased since that scan, so lad_v3_ still bounds every stream
  // other than the (consumed) scan winner and a2 itself — if a2's
  // current value clears it by the margin, a2 provably beats the whole
  // pool. Consuming a2 shifts the rungs down one (a3/v4 take over);
  // after the recorded rungs run out the ladder keeps bounding
  // winner-stays-p validations but stops resolving divergences.
  if (!lad_valid_ || lad_a2_ == model::kInvalidStream) return model::kInvalidStream;
  const auto as = static_cast<std::size_t>(lad_a2_);
  if (pool_[as] == 0) return model::kInvalidStream;
  const double va2 = (base_[as] + dw_[as]) * inv_cost_[as];
  if (!margin_gt(va2, lad_v3_)) return model::kInvalidStream;
  const StreamId w = lad_a2_;
  lad_v2_ = lad_v3_;
  lad_a2_ = lad_a3_;
  lad_v3_ = lad_v4_;
  lad_a3_ = model::kInvalidStream;
  lad_v4_ = -kInf;
  return w;
}

StreamId ReplayContext::full_scan_exact() {
  lad_valid_ = false;
  // Exact-or-dusty argmax over the child pool. Clean values are exact
  // (dw is +0.0 by the invariant); dirty values carry dust, so the
  // winner must clear the margin over everything else — and a tolerance
  // tie resolves only when every near-band candidate is clean (then the
  // engine's gather is replicated exactly).
  scan_scratch_.clear();
  double maxv = -kInf;
  StreamId argmax = model::kInvalidStream;
  for (std::size_t ss = 0; ss < S_; ++ss) {
    if (alive_add_[ss] != 0.0) continue;  // not pooled
    const double wb = base_[ss] + dw_[ss];
    const double v = select_effectiveness(wb, ws_->cost[ss]);
    scan_scratch_.push_back({v, wb, static_cast<StreamId>(ss)});
    if (v > maxv) {
      maxv = v;
      argmax = static_cast<StreamId>(ss);
    }
  }
  if (argmax == model::kInvalidStream) return model::kInvalidStream;
  std::size_t near = 0;
  bool near_dirty = false;
  for (const SelectKey& e : scan_scratch_) {
    if (margin_gt(maxv, e.eff)) continue;
    ++near;
    if (stream_dirty(e.stream)) near_dirty = true;
  }
  if (near == 1) return argmax;  // margin-clear winner (dust-proof)
  if (near_dirty) return model::kInvalidStream;  // ambiguous: bail
  tie_scratch_.clear();
  for (const SelectKey& e : scan_scratch_) {
    if (!replay_eff_ties(e.eff, maxv)) continue;
    tie_scratch_.push_back(e);
  }
  return tie_scratch_[select_break_ties(tie_scratch_)].stream;
}

bool ReplayContext::score_child(const GreedyCheckpoint& frame,
                                const CompletionTrace& trace, StreamId extra,
                                SplitValues* out) {
  ++stats_.attempts;
  frame_ = &frame;
  trace_ = &trace;
  ++epoch_;
  if (epoch_ == 0) {  // stamp wraparound: flush every stamp array once
    std::fill(dw_stamp_.begin(), dw_stamp_.end(), 0u);
    std::fill(pos_stamp_.begin(), pos_stamp_.end(), 0u);
    std::fill(u_stamp_.begin(), u_stamp_.end(), 0u);
    epoch_ = 1;
  }
  // Re-zero the previous leaf's deltas before dropping its dirty list,
  // keeping the dw-is-zero-when-clean invariant.
  for (const StreamId s : dirty_streams_) dw_[static_cast<std::size_t>(s)] = 0.0;
  dirty_streams_.clear();
  pos_dw_.clear();
  std::copy(frame.wbar.begin(), frame.wbar.end(), base_.begin());
  std::copy(frame.selector.in_pool.begin(), frame.selector.in_pool.end(),
            pool_.begin());
  // Sibling leaves share the parent frame's initial scan mask and the
  // per-user timeline prefix states; rebuild only when the trace object
  // holds a new recording.
  if (cached_trace_ != &trace || cached_revision_ != trace.revision) {
    cached_trace_ = &trace;
    cached_revision_ = trace.revision;
    cached_alive0_.assign(S_, 0.0);
    for (std::size_t s = 0; s < S_; ++s)
      if (pool_[s] == 0) cached_alive0_[s] = -kInf;
    // Prefix accumulator states after each timeline entry, by the exact
    // op sequence a clean child shares with the parent — dirty_init and
    // peek_clean_rem land on an entry instead of replaying the prefix.
    const std::size_t tn = trace.tl_w.size();
    tl_rem_.resize(tn);
    tl_uw_.resize(tn);
    for (std::size_t uu = 0; uu < U_; ++uu) {
      double r = frame.rem[uu];
      double w = frame.user_w[uu];
      for (std::uint32_t j = trace.user_tl_begin[uu];
           j < trace.user_tl_begin[uu + 1]; ++j) {
        const double tw = trace.tl_w[j];
        w += tw;
        r -= tw;
        tl_rem_[j] = r;
        tl_uw_[j] = w;
      }
    }
  }
  std::copy(cached_alive0_.begin(), cached_alive0_.end(), alive_add_.begin());
  dirty_umask_ = 0;
  dirty_ub_ = -kInf;
  pos_ub_ = -kInf;
  pos_top_ = -kInf;
  pos_second_ = -kInf;
  pos_arg_ = model::kInvalidStream;
  lad_valid_ = false;
  child_used_ = frame.used;
  cursor_stop_ = 0;

  const auto bail = [this]() {
    ++stats_.bailed;
    return false;
  };

  // The extra seed: GreedyEngine::add_seed minus the trace bookkeeping.
  // The caller checked the fit (the DFS only descends on fitting seeds);
  // a construction-dead extra is applied all the same.
  if (pool_[static_cast<std::size_t>(extra)] != 0)
    kill(static_cast<std::size_t>(extra));
  if (!apply_child_only(extra, 0)) return bail();

  const double B = view_->budget();
  const std::size_t n = trace.num_picks();
  const auto& cost_order = ws_->cost_order;
  std::size_t ccur = frame.cost_cursor;
  std::size_t i = 0;
  for (;;) {
    // run_loop()'s bulk budget cutoff, mirrored on the child's pool and
    // the child's exact spent budget.
    while (ccur < cost_order.size() &&
           pool_[static_cast<std::size_t>(cost_order[ccur])] == 0)
      ++ccur;
    if (ccur >= cost_order.size()) break;  // pool empty
    const double cheapest =
        ws_->cost[static_cast<std::size_t>(cost_order[ccur])];
    if (!approx_le(child_used_ + cheapest, B)) break;  // bulk stop
    if (i >= n) {
      // Trace exhausted but the child still affords pool streams: pick
      // by ladder rung or validated scan until the child's own stop
      // condition fires.
      StreamId w = ladder_next_winner();
      if (w == model::kInvalidStream) {
        w = full_scan_resolve();
        if (w == model::kInvalidStream) return bail();
      }
      ++stats_.divergent_picks;
      const auto wd = static_cast<std::size_t>(w);
      kill(wd);
      const double c = ws_->cost[wd];
      if (approx_le(child_used_ + c, B)) {
        if (!apply_child_only(w, n)) return bail();
      }
      continue;
    }
    const StreamId p = trace.pick[i];
    const auto ps = static_cast<std::size_t>(p);
    if (pool_[ps] == 0) {
      // The child already consumed or dropped p; the parent's pick only
      // contributes its image deltas (and splits any still-clean users
      // the parent assigned).
      if (!align_parent_only(i)) return bail();
      ++i;
      continue;
    }
    // Would the child's pop at this position select p too?
    StreamId winner;
    if (!stream_dirty(p)) {
      // p carries the parent's exact value — the recorded pick_eff bits.
      // The recorded margin flag already proved it clear of the settled
      // runner-up (which bounds every clean and negative-dw competitor),
      // so the hot path is one compare against the positive-dw bound.
      const double vc = trace.pick_eff[i];
      if (trace.margin_clear[i] != 0) {
        if (margin_gt(vc, pos_ub_)) {
          winner = p;  // clear of everything: aligned
        } else if (lad_valid_ &&
                   margin_gt(vc, p == lad_a2_ ? lad_v3_ : lad_v2_)) {
          // The last scan's runner-up bounds every current pool value
          // (monotone window): p clears it, no settle needed.
          winner = p;
        } else {
          settle_pos_top();
          if (margin_gt(vc, pos_top_)) {
            winner = p;  // the bound was stale; the settled top is clear
          } else if (margin_gt(pos_top_, vc) &&
                     margin_gt(pos_top_, trace.runner_up[i]) &&
                     margin_gt(pos_top_, pos_second_)) {
            // A positive-dw stream clearly beats the pick, the recorded
            // bound and its own runner-up: a provable divergence winner
            // without a pool scan.
            winner = pos_arg_;
          } else {
            winner = full_scan_resolve();
            if (winner == model::kInvalidStream) return bail();
          }
        }
      } else {
        // Parent near-tie at this pick: fall back to the dirty upper
        // bound to prove no dirty value reaches the band, then resolve
        // through the recorded tolerance-tied set.
        // dirty_ub_ is not maintained eagerly (near-ties are rare);
        // compute the exact current dirty maximum on demand.
        refresh_dirty_ub();
        const bool threat = !margin_gt(vc, dirty_ub_);
        const std::uint32_t t0 = trace.tie_begin[i];
        const std::uint32_t t1 = trace.tie_begin[i + 1];
        if (threat) {
          winner = full_scan_resolve();
          if (winner == model::kInvalidStream) return bail();
        } else if (t1 == t0) {
          winner = p;  // singleton pop, no dirty intruder: aligned
        } else {
          // Recorded tolerance tie with no dirty intruder: the child's
          // gather is the recorded member set minus departures (dirty
          // members are clearly below the band, popped members left the
          // pool), with unchanged exact values — re-run the tie-break.
          tie_scratch_.clear();
          for (std::uint32_t j = t0; j < t1; ++j) {
            const StreamId m = trace.tie_member[j];
            const auto ms = static_cast<std::size_t>(m);
            if (pool_[ms] == 0 || stream_dirty(m)) continue;
            tie_scratch_.push_back(
                {select_effectiveness(base_[ms], ws_->cost[ms]), base_[ms], m});
          }
          winner = tie_scratch_[select_break_ties(tie_scratch_)].stream;
        }
      }
    } else {
      // p's own value moved. It still wins if it clearly beats a valid
      // bound on every competitor: the scan ladder when fresh (values
      // only fell since that scan), else the recorded exact runner-up
      // (bounds every parent-alive stream) plus the positive-dw set —
      // p itself may sit in that set, so the exact bound excludes it.
      const double vcm = (base_[ps] + dw_[ps]) * inv_cost_[ps];
      bool proven = false;
      if (lad_valid_) {
        proven = margin_gt(vcm, p == lad_a2_ ? lad_v3_ : lad_v2_);
      }
      if (!proven && margin_gt(vcm, trace.runner_up[i])) {
        proven = margin_gt(vcm, pos_dw_bound(p));
      }
      if (proven) {
        winner = p;
      } else {
        // p's pick failed to validate; if the ladder names a clear
        // divergence winner (p != a2 is bounded by lad_v3_ like the
        // rest), take it without a scan.
        winner = p != lad_a2_ ? ladder_next_winner() : model::kInvalidStream;
        if (winner == model::kInvalidStream) {
          winner = full_scan_resolve();
          if (winner == model::kInvalidStream) return bail();
        }
      }
    }
    if (winner != p) {
      // Divergent child pick: apply child-side only; p stays pooled and
      // is re-validated against the same trace position next round.
      ++stats_.divergent_picks;
      const auto wd = static_cast<std::size_t>(winner);
      kill(wd);
      const double c = ws_->cost[wd];
      if (approx_le(child_used_ + c, B)) {
        if (!apply_child_only(winner, i)) return bail();
      }
      continue;
    }
    // Aligned: the child pops p exactly where the parent did.
    kill(ps);
    const double c = ws_->cost[ps];
    const bool fit = approx_le(child_used_ + c, B);
    const bool papp = trace.applied[i] != 0;
    if (fit && papp) {
      child_used_ += c;
      // Clean users' decisions are bit-equal on both sides and their
      // deltas arrive through the touch image; only dirty users need
      // explicit child- and parent-side bookkeeping, one fused pass per
      // user. (Per-user order may differ from the engine's edge order:
      // user accumulators are independent and shared-dw dust is
      // margin-guarded, so the result is unchanged.)
      if (!apply_assigns_aligned(i, p)) return bail();
      if (!absorb_touches(i)) return bail();
    } else if (fit) {
      // The parent skipped p on budget, the child affords it.
      if (!apply_child_only(p, i)) return bail();
    } else if (papp) {
      // The child skips on budget what the parent applied.
      if (!align_parent_only(i)) return bail();
    }
    // else: both sides considered-and-skipped; the pool removal is all.
    ++i;
    ++stats_.picks_replayed;
  }
  cursor_stop_ = i;

  // Exact Theorem 2.8 split (GreedyEngine::split_values, same order and
  // arithmetic): dirty users from the tracked child accumulators, clean
  // users from the parent's recorded per-user contributions (full
  // consume) or a timeline cut.
  SplitValues v{};
  const bool full = cursor_stop_ >= n;
  if (full) {
    const double* const w1a = trace.final_w1_add.data();
    const double* const w2a = trace.final_w2_add.data();
    for (std::size_t uu = 0; uu < U_; ++uu) {
      if (u_stamp_[uu] == epoch_) {
        const double last = c_ulw_[uu];
        if (last <= 0.0) continue;  // never assigned
        v += split_term(c_uw_[uu], last,
                        view_->capacity(static_cast<UserId>(uu)));
      } else {
        // Recorded contributions are the identical two adds the per-user
        // recomputation would perform (+0.0 for never-assigned users,
        // which leaves the nonnegative accumulators bit-unchanged).
        v.w1 += w1a[uu];
        v.w2 += w2a[uu];
      }
    }
  } else {
    const auto cut32 = static_cast<std::uint32_t>(cursor_stop_);
    for (std::size_t uu = 0; uu < U_; ++uu) {
      double w;
      double last;
      if (u_stamp_[uu] == epoch_) {
        w = c_uw_[uu];
        last = c_ulw_[uu];
      } else {
        w = frame.user_w[uu];
        last = frame.user_last_w[uu];
        const std::uint32_t lo = trace.user_tl_begin[uu];
        const std::uint32_t hi = trace.user_tl_begin[uu + 1];
        for (std::uint32_t j = lo; j < hi; ++j) {
          if (trace.tl_pick[j] >= cut32) break;
          const double tw = trace.tl_w[j];
          w += tw;
          last = tw;
        }
      }
      if (last <= 0.0) continue;  // never assigned
      v += split_term(w, last, view_->capacity(static_cast<UserId>(uu)));
    }
  }
  *out = v;
  ++stats_.replayed;
  return true;
}

}  // namespace vdist::core
