// Section 3: SMD with arbitrary local skew via "classify and select".
//
// The instance's user/stream pairs are partitioned into t = 1 + floor(log2 α)
// bands by their normalized utility-per-load ratio: band i holds the pairs
// with ratio in [2^{i-1}, 2^i). Each band, with the surrogate utility
// w_u^i(S) = k_u(S) (after the paper's per-user normalization) and cap
// W_u^i = K_u, is a *unit-skew* instance solvable by Section 2; the best
// band solution (by original utility) is an O(log 2α)-approximation
// (Theorem 3.1).
//
// Extension beyond the paper's assumptions: pairs with w_u(S) > 0 but
// k_u(S) = 0 ("free" pairs) have infinite ratio and would break the
// normalization; they get a dedicated extra band with surrogate utility
// w_u(S) and no cap, which is again a valid Section-2 instance. DESIGN.md
// documents this choice.
#pragma once

#include <vector>

#include "core/greedy.h"
#include "model/assignment.h"
#include "model/instance.h"

namespace vdist::core {

struct SkewBandsOptions {
  // Solve each band with §2.3 partial enumeration instead of the O(n^2)
  // fixed greedy (better constant, much slower).
  bool use_partial_enum = false;
  int seed_size = 3;
  SmdMode mode = SmdMode::kFeasible;
  // Selection strategy and reusable buffers for every per-band greedy
  // (core/select.h). Bands are solved through copy-free InstanceViews
  // over the parent CSR (model/view.h) — no per-band instance is built,
  // and the per-band surrogate/cap arrays live in the workspace.
  SelectStrategy strategy = SelectStrategy::kDelta;
  SolveWorkspace* workspace = nullptr;
};

struct BandReport {
  int index = 0;            // 1..t, or 0 for the free band
  double ratio_lo = 0.0;    // [2^{i-1}, 2^i) after normalization
  double ratio_hi = 0.0;
  std::size_t num_edges = 0;
  double surrogate_utility = 0.0;  // value of the band's own solve
  double original_utility = 0.0;   // same pairs valued by the original w
};

struct SkewBandsResult {
  model::Assignment assignment;  // on the original instance; feasible
  double utility = 0.0;          // original-w utility of `assignment`
  double alpha = 1.0;            // local skew of the instance
  int num_bands = 0;             // t (excluding the free band)
  int chosen_band = 0;           // index of the winning band (0 = free)
  std::vector<BandReport> bands;
  // Selection-kernel counters summed over every band solve.
  SelectStats select;
  // Per-edge surrogate writes performed by the band fills. The edges are
  // partitioned by band once per solve, so each in-band edge is written
  // exactly twice (fill + clear): <= 2 * nnz total, independent of the
  // band count t (PR 4 filled O(t * nnz)).
  std::size_t fill_edges = 0;
};

// Requires inst.is_smd(); handles any skew (unit skew degenerates to a
// single band). O(n^2) total: the bands partition the edges, and each
// band solve is quadratic in its own size (proof of Theorem 3.1).
[[nodiscard]] SkewBandsResult solve_smd_any_skew(
    const model::Instance& inst, const SkewBandsOptions& opts = {});

}  // namespace vdist::core
