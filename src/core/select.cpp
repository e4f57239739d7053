#include "core/select.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <limits>
#include <stdexcept>

#if VDIST_SIMD_AVX2
#include <immintrin.h>
#endif

namespace vdist::core {

namespace {

// Two effectiveness values tie when within the library tolerance.
// Infinities (zero-cost streams with positive residual) tie only with
// each other — approx_eq would see inf - inf = NaN.
[[nodiscard]] bool eff_ties(double a, double b) noexcept {
  if (std::isinf(a) || std::isinf(b)) return std::isinf(a) && std::isinf(b);
  return util::approx_eq(a, b);
}

// Whether a *stale* effectiveness (an upper bound on the fresh value)
// could still tie with the exact maximum `m` after a refresh.
[[nodiscard]] bool could_tie(double stale, double m) noexcept {
  if (std::isinf(m)) return std::isinf(stale);
  if (std::isinf(stale)) return true;
  return util::approx_ge(stale, m);
}

// The order key of an effectiveness: an integer whose signed order is
// the double order of `eff` (-0.0 maps to +0.0's key — they compare
// equal — and order_eff inverts it), so a tree match is one integer
// compare and two conditional moves.
[[nodiscard]] std::int64_t eff_order(double eff) noexcept {
  const auto bits = std::bit_cast<std::int64_t>(eff + 0.0);
  return bits ^ ((bits >> 63) & std::numeric_limits<std::int64_t>::max());
}
[[nodiscard]] double order_eff(std::int64_t order) noexcept {
  return std::bit_cast<double>(
      order ^ ((order >> 63) & std::numeric_limits<std::int64_t>::max()));
}

// An empty winner-tree leaf: loses to every key.
constexpr SelectNode kEmptyLeaf{std::numeric_limits<std::int64_t>::min(),
                                model::kInvalidStream};

// Whether node key `a` beats `b` under the exact lexicographic
// (eff, w̄, lowest id) order (exact on purpose: the tree only needs *a*
// total order; the epsilon-aware tie handling happens on the
// tolerance-tied candidate set after the exact maximum is known, so
// non-transitive fuzzy comparisons never reach the tree). w̄ is read
// only on an exact eff tie. `a_left` says whether `a` comes from the
// left child: every stream under a left child has a lower id than every
// stream under its right sibling, so a full (eff, w̄) tie goes left. An
// empty leaf loses to every key.
[[nodiscard]] bool beats(const SelectNode& a, const SelectNode& b,
                         bool a_left, const double* key_wbar) noexcept {
  if (a.order != b.order) [[likely]] return a.order > b.order;
  if (a.stream == model::kInvalidStream) return false;
  if (b.stream == model::kInvalidStream) return true;
  const double wa = key_wbar[a.stream];
  const double wb = key_wbar[b.stream];
  return wa != wb ? wa > wb : a_left;
}

// The naive rescan's bulk phase: recompute eff[s] for every pool stream,
// return the in-pool maximum, and count one evaluation per pool stream.
// The epsilon-aware tie-break stays hoisted out of the lane loop — the
// caller gathers the tolerance-tied set from eff[] scalar-side. Lanes of
// out-of-pool streams still store (their slots are never read; the tie
// gather checks in_pool first) but are masked out of the maximum and the
// evaluation count, so the count matches the scalar loop exactly.
[[nodiscard]] double scan_effectiveness(const double* wbar,
                                        const double* cost,
                                        const char* in_pool, double* eff,
                                        std::size_t n, std::size_t& evals,
                                        bool& any) {
  double max_eff = 0.0;
  std::size_t s = 0;
#if VDIST_SIMD_AVX2
  const __m256d zero = _mm256_setzero_pd();
  const __m256d inf = _mm256_set1_pd(util::kInf);
  const __m256d neg_inf = _mm256_set1_pd(-util::kInf);
  __m256d vmax = neg_inf;
  std::size_t in_pool_lanes = 0;
  for (; s + 4 <= n; s += 4) {
    std::int32_t pool_bytes;
    std::memcpy(&pool_bytes, in_pool + s, 4);
    const __m256i pool =
        _mm256_cvtepi8_epi64(_mm_cvtsi32_si128(pool_bytes));
    const __m256d mask = _mm256_castsi256_pd(
        _mm256_cmpgt_epi64(pool, _mm256_setzero_si256()));
    const __m256d w = _mm256_loadu_pd(wbar + s);
    const __m256d c = _mm256_loadu_pd(cost + s);
    const __m256d div = _mm256_div_pd(w, c);
    const __m256d cost_pos = _mm256_cmp_pd(c, zero, _CMP_GT_OQ);
    const __m256d wbar_pos = _mm256_cmp_pd(w, zero, _CMP_GT_OQ);
    const __m256d e =
        _mm256_blendv_pd(_mm256_and_pd(wbar_pos, inf), div, cost_pos);
    _mm256_storeu_pd(eff + s, e);
    in_pool_lanes += static_cast<std::size_t>(std::popcount(
        static_cast<unsigned>(_mm256_movemask_pd(mask))));
    vmax = _mm256_max_pd(vmax, _mm256_blendv_pd(neg_inf, e, mask));
  }
  evals += in_pool_lanes;
  if (in_pool_lanes > 0) {
    any = true;
    alignas(32) double lane[4];
    _mm256_store_pd(lane, vmax);
    max_eff = std::max(std::max(lane[0], lane[1]),
                       std::max(lane[2], lane[3]));
  }
#endif
  for (; s < n; ++s) {
    if (!in_pool[s]) continue;
    eff[s] = select_effectiveness(wbar[s], cost[s]);
    ++evals;
    if (!any || eff[s] > max_eff) {
      max_eff = eff[s];
      any = true;
    }
  }
  return max_eff;
}

// The shared tie-break over the tolerance-tied candidates: largest w̄
// wins; w̄ ties within tolerance keep the lowest stream id. Candidates
// are sorted by id first so the scan order (and therefore the outcome of
// the non-transitive fuzzy comparison) is identical for all strategies.
[[nodiscard]] std::size_t break_ties(std::vector<SelectKey>& tied) {
  if (tied.size() == 1) return 0;  // no tolerance tie: the common case
  std::sort(tied.begin(), tied.end(),
            [](const SelectKey& a, const SelectKey& b) {
              return a.stream < b.stream;
            });
  std::size_t best = 0;
  for (std::size_t i = 1; i < tied.size(); ++i)
    if (util::definitely_gt(tied[i].wbar, tied[best].wbar)) best = i;
  return best;
}

}  // namespace

std::size_t select_break_ties(std::vector<SelectKey>& tied) {
  return break_ties(tied);
}

SelectStrategy parse_select_strategy(const std::string& name) {
  if (name == "delta") return SelectStrategy::kDelta;
  if (name == "naive") return SelectStrategy::kNaiveScan;
  throw std::invalid_argument(
      "option --select expects delta|naive, got '" + name + "'");
}

const char* to_string(SelectStrategy strategy) noexcept {
  return strategy == SelectStrategy::kDelta ? "delta" : "naive";
}

void StreamSelector::reset(SolveWorkspace& ws, std::span<const double> wbar,
                           std::span<const double> cost,
                           SelectStrategy strategy) {
  ws_ = &ws;
  wbar_ = wbar;
  cost_ = cost;
  strategy_ = strategy;
  const std::size_t n = wbar.size();
  ws.in_pool.assign(n, 1);
  ws.dirty.assign(n, 0);
  pool_size_ = n;
  leaves_ = 0;
  ++mutation_count_;
  stats_ = {};
  if (strategy_ == SelectStrategy::kNaiveScan) {
    ws.eff.assign(n, 0.0);
    ws.key_wbar.clear();
    return;
  }
  leaves_ = std::bit_ceil(n);
  ws.tree.resize(2 * leaves_);
  ws.key_wbar.assign(wbar.begin(), wbar.end());
  SelectNode* const tree = ws.tree.data();
  for (std::size_t s = 0; s < n; ++s)
    tree[leaves_ + s] = {eff_order(select_effectiveness(wbar[s], cost[s])),
                         static_cast<model::StreamId>(s)};
  std::fill(tree + leaves_ + n, tree + 2 * leaves_, kEmptyLeaf);
  stats_.evaluations += n;
  for (std::size_t i = leaves_; i-- > 1;) {
    const SelectNode* const c = tree + 2 * i;
    tree[i] = beats(c[1], c[0], false, ws.key_wbar.data()) ? c[1] : c[0];
  }
}

void StreamSelector::save(SelectorCheckpoint& out) const {
  // Bump-then-record: the stored counter value is unique to this save, so
  // a later restore() matching it proves nothing mutated in between.
  out.mutation_count = ++mutation_count_;
  out.tree.assign(ws_->tree.begin(),
                  ws_->tree.begin() + static_cast<std::ptrdiff_t>(2 * leaves_));
  out.key_wbar.assign(ws_->key_wbar.begin(), ws_->key_wbar.end());
  out.dirty.assign(ws_->dirty.begin(), ws_->dirty.end());
  out.in_pool.assign(ws_->in_pool.begin(), ws_->in_pool.end());
  out.pool_size = pool_size_;
}

void StreamSelector::restore(const SelectorCheckpoint& in) {
  // Fast path: the live counter still equals the one this save() stamped,
  // so not a single pop/remove/update/readmit has happened since — the
  // selector *is* the checkpoint and every copy below would be a no-op.
  if (mutation_count_ == in.mutation_count) return;
  ++mutation_count_;
  std::copy(in.tree.begin(), in.tree.end(), ws_->tree.begin());
  std::copy(in.key_wbar.begin(), in.key_wbar.end(), ws_->key_wbar.begin());
  std::copy(in.dirty.begin(), in.dirty.end(), ws_->dirty.begin());
  std::copy(in.in_pool.begin(), in.in_pool.end(), ws_->in_pool.begin());
  pool_size_ = in.pool_size;
}

model::StreamId StreamSelector::pop_best() {
  if (pool_size_ == 0) return model::kInvalidStream;
  ++mutation_count_;
  const model::StreamId chosen = strategy_ == SelectStrategy::kNaiveScan
                                     ? pop_best_naive()
                                     : pop_best_tree();
  if (chosen == model::kInvalidStream) return chosen;
  ws_->in_pool[static_cast<std::size_t>(chosen)] = 0;
  --pool_size_;
  ++stats_.picks;
  return chosen;
}

void StreamSelector::set_leaf(std::size_t s, SelectNode key) {
  SelectNode* const tree = ws_->tree.data();
  const double* const key_wbar = ws_->key_wbar.data();
  // The key climbs in registers: each level loads only the sibling
  // (whose subtree did not change), so no load waits on the store below
  // it, and off an exact tie the match is a compare and two conditional
  // moves — the outcome is data-dependent, so a branch would mispredict.
  std::size_t i = leaves_ + s;
  tree[i] = key;
  for (; i > 1; i >>= 1) {
    const SelectNode sib = tree[i ^ 1];
    const bool take = beats(sib, key, (i & 1) != 0, key_wbar);
    key.order = take ? sib.order : key.order;
    key.stream = take ? sib.stream : key.stream;
    tree[i >> 1] = key;
  }
  ++stats_.heap_sifts;
}

void StreamSelector::refresh(std::size_t s) {
  ws_->key_wbar[s] = wbar_[s];
  ws_->dirty[s] = 0;
  ++stats_.evaluations;
  set_leaf(s, {eff_order(select_effectiveness(wbar_[s], cost_[s])),
               static_cast<model::StreamId>(s)});
}

SelectNode StreamSelector::settle_root() {
  for (;;) {
    const SelectNode root = ws_->tree[1];
    if (root.stream == model::kInvalidStream) return root;
    const auto s = static_cast<std::size_t>(root.stream);
    if (ws_->in_pool[s] == 0)
      set_leaf(s, kEmptyLeaf);
    else if (ws_->dirty[s] != 0)
      refresh(s);
    else
      return root;
  }
}

double StreamSelector::settle_top_eff() {
  if (pool_size_ == 0) return -util::kInf;
  if (strategy_ == SelectStrategy::kNaiveScan) {
    bool any = false;
    const double max_eff =
        scan_effectiveness(wbar_.data(), cost_.data(), ws_->in_pool.data(),
                           ws_->eff.data(), wbar_.size(), stats_.evaluations,
                           any);
    return any ? max_eff : -util::kInf;
  }
  ++mutation_count_;
  const SelectNode root = settle_root();
  return root.stream == model::kInvalidStream ? -util::kInf
                                              : order_eff(root.order);
}

model::StreamId StreamSelector::pop_best_tree() {
  // Phase 1: the lazy pop. A fresh root beats every remaining stale key,
  // and stale keys only overestimate, so it is the exact lexicographic
  // (eff, wbar, lowest id) maximum of the pool. Freshness is per-stream —
  // keys whose w̄ was never update()d since their last evaluation are
  // fresh by construction and cost nothing here.
  const SelectNode first = settle_root();
  if (first.stream == model::kInvalidStream) return model::kInvalidStream;
  const auto first_s = static_cast<std::size_t>(first.stream);
  const SelectKey top{order_eff(first.order), ws_->key_wbar[first_s],
                      first.stream};
  set_leaf(first_s, kEmptyLeaf);

  // Phase 2: gather every pool stream whose *fresh* effectiveness ties
  // the maximum within tolerance. Anything below the tolerance band has
  // a stale key below it too and is never touched. A stale root inside
  // the band refreshes in place; a fresh in-band root is a genuine
  // tolerance tie and leaves the tree until the tie is broken.
  const SelectNode* const tree = ws_->tree.data();
  const char* const in_pool = ws_->in_pool.data();
  const char* const dirty = ws_->dirty.data();
  auto& tied = ws_->tied;
  tied.clear();
  tied.push_back(top);
  for (;;) {
    const SelectNode root = tree[1];
    if (root.stream == model::kInvalidStream) break;
    const auto s = static_cast<std::size_t>(root.stream);
    if (in_pool[s] == 0) {
      set_leaf(s, kEmptyLeaf);
      continue;
    }
    const double eff = order_eff(root.order);
    if (!could_tie(eff, top.eff)) break;
    if (dirty[s] != 0) {
      refresh(s);
      continue;
    }
    if (!eff_ties(eff, top.eff)) break;  // approx_ge yet not approx_eq
    tied.push_back({eff, ws_->key_wbar[s], root.stream});
    set_leaf(s, kEmptyLeaf);
  }

  const std::size_t best = break_ties(tied);
  for (std::size_t i = 0; i < tied.size(); ++i)
    if (i != best)
      set_leaf(static_cast<std::size_t>(tied[i].stream),
               {eff_order(tied[i].eff), tied[i].stream});
  return tied[best].stream;
}

model::StreamId StreamSelector::pop_best_naive() {
  const char* const in_pool = ws_->in_pool.data();
  double* const eff = ws_->eff.data();
  const std::size_t n = wbar_.size();

  bool any = false;
  const double max_eff =
      scan_effectiveness(wbar_.data(), cost_.data(), in_pool, eff, n,
                         stats_.evaluations, any);
  if (!any) return model::kInvalidStream;

  auto& tied = ws_->tied;
  tied.clear();
  for (std::size_t s = 0; s < n; ++s) {
    if (!in_pool[s] || !eff_ties(eff[s], max_eff)) continue;
    tied.push_back({eff[s], wbar_[s], static_cast<model::StreamId>(s)});
  }
  return tied[break_ties(tied)].stream;
}

void StreamSelector::readmit(model::StreamId s) {
  ++mutation_count_;
  const auto ss = static_cast<std::size_t>(s);
  if (ws_->in_pool[ss] == 0) {
    ws_->in_pool[ss] = 1;
    ++pool_size_;
  }
  if (strategy_ == SelectStrategy::kDelta) refresh(ss);
}

void StreamSelector::remove(model::StreamId s) {
  auto& slot = ws_->in_pool[static_cast<std::size_t>(s)];
  if (slot == 0) return;
  ++mutation_count_;
  slot = 0;
  --pool_size_;
}

}  // namespace vdist::core
