#include "core/skew_bands.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "core/partial_enum.h"
#include "model/skew.h"
#include "model/view.h"
#include "util/float_cmp.h"

namespace vdist::core {

using model::Assignment;
using model::EdgeId;
using model::Instance;
using model::InstanceView;
using model::StreamId;
using model::UserId;

SkewBandsResult solve_smd_any_skew(const Instance& inst,
                                   const SkewBandsOptions& opts) {
  if (!inst.is_smd())
    throw std::invalid_argument("solve_smd_any_skew: requires m = mc = 1");

  const model::LocalSkewInfo skew = model::local_skew(inst);
  SkewBandsResult out{Assignment(inst), 0.0, skew.alpha, 0, 0, {}, {}, 0};

  // t = 1 + floor(log2 alpha) bands; the epsilon guards the exact-power
  // case (alpha = 2^k must produce k+1 bands, not k+2).
  const int t = std::max(
      1, 1 + static_cast<int>(std::floor(std::log2(skew.alpha) + 1e-9)));
  out.num_bands = t;

  SolveWorkspace local;
  SolveWorkspace& ws = opts.workspace != nullptr ? *opts.workspace : local;

  // One classification pass: band index per edge (1..t, 0 = free band,
  // -1 = dead edge), plus per-band edge counts and an edge -> stream map
  // for the band-major fill below. No per-band instance is ever
  // materialized — each band becomes an InstanceView over the parent CSR
  // with a surrogate utility array (0 disables the pair).
  const std::size_t num_edges = inst.num_edges();
  ws.edge_band.assign(num_edges, -1);
  ws.edge_stream.resize(num_edges);
  std::vector<std::size_t> band_edges(static_cast<std::size_t>(t) + 1, 0);
  for (std::size_t ss = 0; ss < inst.num_streams(); ++ss) {
    const auto s = static_cast<StreamId>(ss);
    for (EdgeId e = inst.first_edge(s); e < inst.last_edge(s); ++e) {
      const UserId u = inst.edge_user(e);
      const double w = inst.edge_utility(e);
      const double k = inst.edge_load(e, 0);
      ws.edge_stream[static_cast<std::size_t>(e)] = s;
      if (w <= 0.0) continue;
      const auto ee = static_cast<std::size_t>(e);
      if (k <= 0.0) {
        // Free pair: no load, surrogate = the true utility, no cap needed.
        ws.edge_band[ee] = 0;
        ++band_edges[0];
        continue;
      }
      // Normalized ratio is w / (k * scale_u) in [1, alpha]; band index
      // i satisfies 2^{i-1} <= ratio < 2^i.
      const double scale = skew.scale[static_cast<std::size_t>(u)];
      const double ratio = w / (k * scale);
      int idx = 1 + static_cast<int>(std::floor(std::log2(ratio) + 1e-9));
      idx = std::clamp(idx, 1, t);
      ws.edge_band[ee] = idx;
      ++band_edges[static_cast<std::size_t>(idx)];
    }
  }

  // Band-major edge partition: group the live edges by band, ascending
  // edge id within each band (a stable counting sort), so every band
  // fill touches exactly its own edges. Per-band work drops from
  // O(t * nnz) (rescanning the whole CSR per band) to O(nnz) total —
  // the PR-4 ROADMAP "next cliff" for bands at smd-5000.
  std::vector<std::size_t> band_cursor(static_cast<std::size_t>(t) + 2, 0);
  for (int b = 0; b <= t; ++b)
    band_cursor[static_cast<std::size_t>(b) + 1] =
        band_cursor[static_cast<std::size_t>(b)] +
        band_edges[static_cast<std::size_t>(b)];
  const std::vector<std::size_t> band_offsets(band_cursor.begin(),
                                              band_cursor.end());
  ws.band_edge_ids.resize(band_offsets.back());
  for (std::size_t ee = 0; ee < num_edges; ++ee) {
    const int b = ws.edge_band[ee];
    if (b < 0) continue;
    ws.band_edge_ids[band_cursor[static_cast<std::size_t>(b)]++] =
        static_cast<EdgeId>(ee);
  }

  // Normalized caps W_u^i = K_u (scaled consistently with the loads) for
  // the ratio bands; the free band is uncapped.
  const std::size_t num_users = inst.num_users();
  ws.view_caps.resize(2 * num_users);
  const std::span<double> scaled_caps(ws.view_caps.data(), num_users);
  const std::span<double> no_caps(ws.view_caps.data() + num_users, num_users);
  for (std::size_t u = 0; u < num_users; ++u) {
    const double cap = inst.capacity(static_cast<UserId>(u), 0);
    scaled_caps[u] = util::is_unbounded(cap) ? model::kUnbounded
                                             : cap * skew.scale[u];
    no_caps[u] = model::kUnbounded;
  }

  // Surrogate arrays start all-zero; each band writes and then clears
  // only its own edge positions, so a stream's total is summed over its
  // in-band edges in ascending edge-id order — bit-identical to the old
  // full-CSR scan (the skipped terms were exact zeros).
  ws.view_utility.assign(num_edges, 0.0);
  ws.view_totals.assign(inst.num_streams(), 0.0);

  auto solve_band = [&](int band, std::span<const double> caps, int index,
                        double lo, double hi) {
    const std::size_t edges_in_band =
        band_edges[static_cast<std::size_t>(band)];
    if (edges_in_band == 0) return;

    // The band's surrogate utilities over the parent CSR: the normalized
    // load for ratio bands (the paper's w_u^i = k_u), the true utility
    // for the free band; every out-of-band pair is already 0.
    const std::size_t begin = band_offsets[static_cast<std::size_t>(band)];
    const std::size_t end = band_offsets[static_cast<std::size_t>(band) + 1];
    for (std::size_t idx = begin; idx < end; ++idx) {
      const EdgeId e = ws.band_edge_ids[idx];
      const auto ee = static_cast<std::size_t>(e);
      const double surrogate =
          band == 0 ? inst.edge_utility(e)
                    : inst.edge_load(e, 0) *
                          skew.scale[static_cast<std::size_t>(
                              inst.edge_user(e))];
      ws.view_utility[ee] = surrogate;
      ws.view_totals[static_cast<std::size_t>(ws.edge_stream[ee])] +=
          surrogate;
    }
    out.fill_edges += 2 * edges_in_band;  // fill now + clear below

    const InstanceView band_view(inst, ws.view_utility, ws.view_totals, caps);
    SmdSolveResult solved =
        opts.use_partial_enum
            ? partial_enum_unit_skew(
                  band_view, {.seed_size = opts.seed_size,
                              .mode = opts.mode,
                              .strategy = opts.strategy,
                              .workspace = &ws})
                  .best
            : solve_unit_skew(band_view, opts.mode,
                              {opts.strategy, &ws});
    out.select.merge(solved.select);

    // The band assignment lives directly on the parent instance (views
    // share stream/user ids), so its accounting already carries the
    // original utilities — no mapping pass.
    const double original_utility = solved.assignment.utility();

    out.bands.push_back(BandReport{index, lo, hi, edges_in_band,
                                   solved.utility, original_utility});
    // "Choosing the one with maximum utility" (Thm 3.1); we compare by
    // original utility, which can only improve on the paper's surrogate
    // comparison.
    if (original_utility > out.utility) {
      out.utility = original_utility;
      out.assignment = std::move(solved.assignment);
      out.chosen_band = index;
    }

    // Clear this band's positions so the arrays are all-zero again for
    // the next band — the other half of the O(nnz)-total fill budget.
    for (std::size_t idx = begin; idx < end; ++idx) {
      const auto ee = static_cast<std::size_t>(ws.band_edge_ids[idx]);
      ws.view_utility[ee] = 0.0;
      ws.view_totals[static_cast<std::size_t>(ws.edge_stream[ee])] = 0.0;
    }
  };

  for (int i = 1; i <= t; ++i)
    solve_band(i, scaled_caps, i, std::exp2(i - 1), std::exp2(i));
  solve_band(0, no_caps, 0, util::kInf, util::kInf);

  return out;
}

}  // namespace vdist::core
