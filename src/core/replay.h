// Shared-prefix completion replay for the §2.3 partial enumeration.
//
// Sibling leaves of the seed DFS differ by exactly one seed, and the
// measured completions of siblings share >80% of their pick sequences on
// the registered scenarios. This module scores a child seed set
// (parent's seeds + one extra) by *replaying* the parent's recorded
// completion (core/greedy.h CompletionTrace) instead of re-running the
// completion selector, bailing out to the real engine whenever it cannot
// prove the replay exact.
//
// Why replay is exact: the feasible-mode objective (Theorem 2.8 split
// values) is a per-user function of the pick sequence — each user's
// accumulators (assigned utility, last-assigned utility, residual cap)
// evolve only through the picks that assign that user, in pick order, by
// exact floating-point ops the replay reproduces verbatim. The w̄ array
// only *steers* pick choices, so it does not need to be reproduced
// bit-for-bit; it suffices to prove, pick by pick, that the engine would
// have selected the same stream. The proof obligations per pick:
//
//   * Clean streams (no child-side w̄ divergence) carry the parent's
//     exact w̄ bits: the replay maintains a parent w̄ image from the
//     trace's per-pick touch lists, and the child's w̄ of a clean stream
//     equals that image exactly — its pop value is the trace's recorded
//     pick_eff, no recomputation needed.
//   * Dirty streams (touched by the extra seed's assignments or by any
//     divergent pick) carry the image plus a tracked delta `dw`. The
//     delta is exact up to accumulated rounding dust, so every decision
//     involving a dirty value must clear a validation margin
//     (util::margin_gt) that is orders of magnitude wider than both the
//     dust and the selector's tie tolerance — a margin-validated winner
//     is provably outside the tie band, where the engine's
//     epsilon-aware tie machinery is the identity. Decisions inside the
//     margin bail to the engine.
//   * The recorded runner-up (the settled exact pool maximum after each
//     pop) bounds every other stream's parent value; streams whose child
//     value can exceed their parent value (positive dw) are tracked
//     explicitly and included in the bound.
//   * Child-side w̄ deltas are never positive and the parent's own w̄
//     only decreases, so between two parent-only alignments every pool
//     value is monotonically nonincreasing: a pool scan's top values
//     stay valid *upper bounds* until the next positive-dw event, which
//     lets runs of divergent picks validate against the previous scan
//     instead of rescanning.
//   * Budget decisions never reuse parent outcomes: the child's spent
//     budget is maintained by the same float accumulation the engine
//     would perform, and every fit test recomputes util::approx_le.
//   * Ties resolve through the recorded tolerance-tied set when all its
//     members are provably unperturbed (select_break_ties is a pure
//     function of the tied values); otherwise the pick bails.
//
// Margin-guarded comparisons (validation, scans, upper bounds) read pool
// values as (w̄ · 1/cost) — one multiply, up to 1 ulp from the engine's
// division, vanishing against the margin. Everything that must be
// bit-exact (tie gathers, recorded values, accumulators) keeps the
// engine's arithmetic verbatim.
//
// A successful replay yields bit-identical SplitValues to the engine run
// it replaced; the enumeration's differential suites (enum ==
// from-scratch) exercise exactly this claim.
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "core/greedy.h"

namespace vdist::core {

struct ReplayStats {
  std::size_t attempts = 0;   // score_child() calls
  std::size_t replayed = 0;   // exact replays (no engine fallback needed)
  std::size_t bailed = 0;     // margin/tie/knife bails to the engine
  std::size_t picks_replayed = 0;
  std::size_t divergent_picks = 0;  // child picks resolved off-trace
};

// Per-thread replay scratch + algorithm. Borrow-constructed over the
// enumeration's view and workspace (read-only: the sorted user-major
// utility rows and cost order the engine constructor built).
class ReplayContext {
 public:
  ReplayContext(const model::InstanceView& view, const SolveWorkspace& ws);

  // Scores the completion of (frame's seeds + extra) by replaying
  // `trace` (the parent completion recorded from `frame`). On success
  // returns true and fills `out` with split values bit-identical to a
  // real engine completion; on false the caller must run the engine.
  [[nodiscard]] bool score_child(const GreedyCheckpoint& frame,
                                 const CompletionTrace& trace,
                                 model::StreamId extra, SplitValues* out);

  [[nodiscard]] const ReplayStats& stats() const noexcept { return stats_; }

 private:
  [[nodiscard]] bool stream_dirty(model::StreamId s) const noexcept {
    return dw_stamp_[static_cast<std::size_t>(s)] == epoch_;
  }
  [[nodiscard]] bool user_dirty(model::UserId u) const noexcept {
    return u_stamp_[static_cast<std::size_t>(u)] == epoch_;
  }
  // Removes a stream from the pool mirror and the dense scan mask.
  void kill(std::size_t ss) noexcept {
    pool_[ss] = 0;
    alive_add_[ss] = -std::numeric_limits<double>::infinity();
  }
  void dirty_init(model::UserId u, std::size_t cut);
  [[nodiscard]] double peek_clean_rem(model::UserId u, std::size_t cut) const;
  // One fused row walk applying a dirty user's child-side and/or
  // parent-side assignment of `w` (same pick, same user): walks the
  // user's sorted row once to the smaller clamp, accumulating both
  // sides' exact deltas into dw per touched stream.
  template <bool DoChild, bool DoParent>
  [[nodiscard]] bool apply_pair(model::UserId u, double w,
                                model::StreamId picked);
  // An aligned applied pick's dirty-user bookkeeping: one pass over the
  // union of the parent's recorded assigns and the child's candidate set
  // (the pick's user mask intersected with the dirty set).
  [[nodiscard]] bool apply_assigns_aligned(std::size_t i, model::StreamId p);
  [[nodiscard]] bool absorb_touches(std::size_t i);
  [[nodiscard]] bool align_parent_only(std::size_t i);
  [[nodiscard]] bool apply_child_only(model::StreamId s, std::size_t cut);
  void refresh_dirty_ub();
  [[nodiscard]] double pos_dw_bound(model::StreamId exclude) const;
  void settle_pos_top();
  // Full argmax over the live pool: a single multiply-based top-3 pass
  // with margin validation (also refreshing the scan ladder), falling
  // back to the exact division-based near-band/tie resolution. Returns
  // the provable winner or kInvalidStream when ambiguous (bail).
  [[nodiscard]] model::StreamId full_scan_resolve();
  [[nodiscard]] model::StreamId full_scan_exact();
  // Resolves the next divergence winner from the scan ladder's a2 rung
  // when it clears lad_v3_ by the margin (consuming it shifts a3/v4 up);
  // kInvalidStream when the ladder cannot prove a winner.
  [[nodiscard]] model::StreamId ladder_next_winner();

  const model::InstanceView* view_;
  const SolveWorkspace* ws_;
  std::size_t S_ = 0;
  std::size_t U_ = 0;
  const GreedyCheckpoint* frame_ = nullptr;
  const CompletionTrace* trace_ = nullptr;

  std::uint32_t epoch_ = 0;
  // Parent w̄ image (exact bits of the parent's live array at the current
  // trace cursor) and the child-minus-parent delta for dirty streams.
  // Invariant: dw_ is exactly +0.0 for every clean stream, so a pool
  // value is base_ + dw_ with no dirtiness branch.
  std::vector<double> base_;
  std::vector<double> dw_;
  std::vector<std::uint32_t> dw_stamp_;
  std::vector<model::StreamId> dirty_streams_;
  // Streams whose dw went positive (child kept utility the parent spent):
  // the only streams whose child value can exceed the recorded bounds.
  std::vector<model::StreamId> pos_dw_;
  std::vector<std::uint32_t> pos_stamp_;
  // Child pool: byte membership mirror + a dense scan mask (0.0 for
  // pooled streams, -inf for everything else) so the scan's value pass
  // `(base + dw) * inv_cost + alive_add` is branch-free and
  // vectorizable — dead streams collapse to -inf.
  std::vector<char> pool_;
  std::vector<double> alive_add_;
  std::vector<double> vals_;  // scan scratch: one value per stream
  // The parent frame's initial scan mask, rebuilt only when the
  // (trace, revision) pair changes — sibling leaves reuse it.
  const CompletionTrace* cached_trace_ = nullptr;
  std::uint64_t cached_revision_ = 0;
  std::vector<double> cached_alive0_;
  // Per-timeline-entry accumulator states (rem, cumulative user_w) after
  // that entry, by the parent's exact op sequence — per-trace caches.
  std::vector<double> tl_rem_;
  std::vector<double> tl_uw_;
  // Per-stream 1/cost for margin-guarded value reads (multiply, not
  // divide; +inf for zero-cost streams to match select_effectiveness).
  std::vector<double> inv_cost_;
  // Dirty-user bitmask acceleration (instances with <= 64 users and no
  // duplicate edges): row_mask_[s] holds the users stream s offers
  // positive utility, dense_w_[s * U_ + u] that utility — an aligned
  // pick intersects one mask with the dirty set instead of walking its
  // edge row.
  bool use_masks_ = false;
  std::vector<std::uint64_t> row_mask_;
  std::vector<double> dense_w_;
  std::uint64_t dirty_umask_ = 0;
  // Dirty users: exact child-side accumulators plus the parent-side
  // residual (needed to reproduce the parent's exact w̄ deltas for
  // assignments the child did not share).
  std::vector<std::uint32_t> u_stamp_;
  std::vector<double> c_rem_;
  std::vector<double> c_uw_;
  std::vector<double> c_ulw_;
  std::vector<double> p_rem_;
  std::vector<SelectKey> tie_scratch_;
  std::vector<SelectKey> scan_scratch_;
  double dirty_ub_ = 0.0;  // on-demand upper bound on dirty streams' eff
  // Settled view of the positive-dw set: pos_ub_ is a raise-on-update,
  // settle-on-demand upper bound on its effectiveness (values only
  // decrease between settles); pos_top_/pos_second_/pos_arg_ are the
  // exact top-2 as of the last settle_pos_top().
  double pos_ub_ = 0.0;
  double pos_top_ = 0.0;
  double pos_second_ = 0.0;
  model::StreamId pos_arg_ = model::kInvalidStream;
  // Scan ladder: the last margin-clear scan's runner-up values. Pool
  // values only decrease until the next positive-dw event (see header
  // comment), so lad_v2_ bounds every stream except the scan winner the
  // caller consumed, and lad_v3_ every stream except the winner and
  // lad_a2_ — consecutive divergent picks validate against these
  // scalars instead of rescanning. Invalidated by parent-only
  // alignments (the only source of positive deltas).
  bool lad_valid_ = false;
  double lad_v2_ = 0.0;
  double lad_v3_ = 0.0;
  double lad_v4_ = 0.0;
  model::StreamId lad_a2_ = model::kInvalidStream;
  model::StreamId lad_a3_ = model::kInvalidStream;
  double child_used_ = 0.0;
  std::size_t cursor_stop_ = 0;

  ReplayStats stats_;
};

}  // namespace vdist::core
