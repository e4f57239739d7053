#include "core/select.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
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

// 4-ary max-heap primitives over the workspace SoA arrays. The tree is
// half as deep as a binary heap, sift-down exits early (a refreshed
// entry usually stays near the top), and a stale refresh is one in-place
// sift instead of a full pop + push round-trip. With the keys split into
// parallel arrays, the child-max probe reads one contiguous block of
// four eff doubles; wbar/stream load only on exact eff ties and the
// stamp only moves with its entry. The heap's internal layout never
// affects picks — phase 1 extracts the exact lexicographic
// (eff, wbar, lowest id) maximum and phase 2 gathers the full
// tolerance-tied set whatever the organization.
constexpr std::size_t kHeapArity = 4;

// Borrowed view of the live heap prefix in a SolveWorkspace.
struct SoaHeap {
  double* eff;
  double* wbar;
  model::StreamId* stream;
  std::uint32_t* stamp;
  std::size_t size;
};

[[nodiscard]] SoaHeap heap_of(SolveWorkspace& ws, std::size_t size) noexcept {
  return {ws.heap_eff.data(), ws.heap_wbar.data(), ws.heap_stream.data(),
          ws.heap_stamp.data(), size};
}

// heap[j] < (eff, wbar, stream) under the exact lexicographic max-heap
// order (exact doubles on purpose: the heap only needs *a* total order;
// the epsilon-aware tie handling happens on the tolerance-tied candidate
// set after the exact maximum is known, so non-transitive fuzzy
// comparisons never reach a heap or sort). Sift-up's test.
[[nodiscard]] bool entry_less_value(const SoaHeap& h, std::size_t j,
                                    double eff, double wbar,
                                    model::StreamId stream) noexcept {
  if (h.eff[j] != eff) return h.eff[j] < eff;
  if (h.wbar[j] != wbar) return h.wbar[j] < wbar;
  return h.stream[j] > stream;
}

void heap_sift_down(SoaHeap& h, std::size_t i, double eff, double wbar,
                    model::StreamId stream, std::uint32_t stamp,
                    SelectStats& stats) {
  ++stats.heap_sifts;
  const std::size_t n = h.size;
  for (;;) {
    const std::size_t first = kHeapArity * i + 1;
    if (first >= n) break;
    const std::size_t last = std::min(first + kHeapArity, n);
    // Branch-free max probe on the contiguous eff block (lowers to
    // maxsd/cmov — the child keys are data-dependent, so a predicted
    // branch per child would miss constantly). Exact eff ties — rare —
    // fall back to the full lexicographic compare below; `tie` resets
    // whenever a strictly larger key takes over, so it is set iff some
    // other child exactly equals the final best_eff.
    std::size_t best = first;
    double best_eff = h.eff[first];
    bool tie = false;
    for (std::size_t c = first + 1; c < last; ++c) {
      const double ce = h.eff[c];
      tie = tie | (ce == best_eff);
      if (ce > best_eff) {
        best_eff = ce;
        best = c;
        tie = false;
      }
    }
    if (tie) {
      // best currently holds the lowest-index max; resolve the exact
      // ties on (wbar desc, stream asc).
      for (std::size_t c = best + 1; c < last; ++c) {
        if (h.eff[c] != best_eff) continue;
        if (h.wbar[c] != h.wbar[best]) {
          if (h.wbar[c] > h.wbar[best]) best = c;
        } else if (h.stream[c] < h.stream[best]) {
          best = c;
        }
      }
    }
    // Descend while the hole value is lexicographically below the best
    // child; eff alone decides except on an exact eff tie.
    const bool descend =
        eff < best_eff ||
        (eff == best_eff &&
         (wbar < h.wbar[best] ||
          (wbar == h.wbar[best] && stream > h.stream[best])));
    if (!descend) break;
    h.eff[i] = h.eff[best];
    h.wbar[i] = h.wbar[best];
    h.stream[i] = h.stream[best];
    h.stamp[i] = h.stamp[best];
    i = best;
  }
  h.eff[i] = eff;
  h.wbar[i] = wbar;
  h.stream[i] = stream;
  h.stamp[i] = stamp;
}

void heap_sift_up(SoaHeap& h, std::size_t i, double eff, double wbar,
                  model::StreamId stream, std::uint32_t stamp,
                  SelectStats& stats) {
  ++stats.heap_sifts;
  while (i > 0) {
    const std::size_t parent = (i - 1) / kHeapArity;
    if (!entry_less_value(h, parent, eff, wbar, stream)) break;
    h.eff[i] = h.eff[parent];
    h.wbar[i] = h.wbar[parent];
    h.stream[i] = h.stream[parent];
    h.stamp[i] = h.stamp[parent];
    i = parent;
  }
  h.eff[i] = eff;
  h.wbar[i] = wbar;
  h.stream[i] = stream;
  h.stamp[i] = stamp;
}

void heap_build(SoaHeap& h, SelectStats& stats) {
  if (h.size <= 1) return;
  for (std::size_t i = (h.size - 2) / kHeapArity + 1; i-- > 0;)
    heap_sift_down(h, i, h.eff[i], h.wbar[i], h.stream[i], h.stamp[i],
                   stats);
}

// Bulk effectiveness for streams [0, n) — the reset()-time evaluation.
// The AVX2 body computes four lanes per iteration with per-lane IEEE
// division and the same cost>0 / wbar>0 selects as the scalar helper, so
// every lane is bit-identical to select_effectiveness; the division
// result of a masked-out zero-cost lane is discarded before it escapes.
void fill_effectiveness(const double* wbar, const double* cost, double* eff,
                        std::size_t n) {
  std::size_t s = 0;
#if VDIST_SIMD_AVX2
  const __m256d zero = _mm256_setzero_pd();
  const __m256d inf = _mm256_set1_pd(util::kInf);
  for (; s + 4 <= n; s += 4) {
    const __m256d w = _mm256_loadu_pd(wbar + s);
    const __m256d c = _mm256_loadu_pd(cost + s);
    const __m256d div = _mm256_div_pd(w, c);
    const __m256d cost_pos = _mm256_cmp_pd(c, zero, _CMP_GT_OQ);
    const __m256d wbar_pos = _mm256_cmp_pd(w, zero, _CMP_GT_OQ);
    const __m256d zero_cost = _mm256_and_pd(wbar_pos, inf);
    _mm256_storeu_pd(eff + s, _mm256_blendv_pd(zero_cost, div, cost_pos));
  }
#endif
  for (; s < n; ++s) eff[s] = select_effectiveness(wbar[s], cost[s]);
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
[[nodiscard]] std::size_t break_ties(std::vector<SelectHeapEntry>& tied) {
  if (tied.size() == 1) return 0;  // no tolerance tie: the common case
  std::sort(tied.begin(), tied.end(),
            [](const SelectHeapEntry& a, const SelectHeapEntry& b) {
              return a.stream < b.stream;
            });
  std::size_t best = 0;
  for (std::size_t i = 1; i < tied.size(); ++i)
    if (util::definitely_gt(tied[i].wbar, tied[best].wbar)) best = i;
  return best;
}

}  // namespace

std::size_t select_break_ties(std::vector<SelectHeapEntry>& tied) {
  return break_ties(tied);
}

SelectStrategy parse_select_strategy(const std::string& name) {
  if (name == "delta") return SelectStrategy::kDeltaHeap;
  if (name == "naive") return SelectStrategy::kNaiveScan;
  throw std::invalid_argument(
      "option --select expects delta|naive, got '" + name + "'");
}

const char* to_string(SelectStrategy strategy) noexcept {
  return strategy == SelectStrategy::kDeltaHeap ? "delta" : "naive";
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
  pool_size_ = n;
  heap_size_ = 0;
  readmitted_ = false;
  ++mutation_count_;
  stats_ = {};
  ws.version.assign(n, 0);
  if (strategy_ == SelectStrategy::kNaiveScan) {
    ws.eff.assign(n, 0.0);
    return;
  }
  ws.heap_eff.resize(n);
  ws.heap_wbar.resize(n);
  ws.heap_stream.resize(n);
  ws.heap_stamp.resize(n);
  fill_effectiveness(wbar.data(), cost.data(), ws.heap_eff.data(), n);
  std::copy(wbar.begin(), wbar.end(), ws.heap_wbar.begin());
  for (std::size_t s = 0; s < n; ++s)
    ws.heap_stream[s] = static_cast<model::StreamId>(s);
  std::fill(ws.heap_stamp.begin(), ws.heap_stamp.end(), 0u);
  heap_size_ = n;
  stats_.evaluations += n;
  SoaHeap h = heap_of(ws, heap_size_);
  heap_build(h, stats_);
}

void StreamSelector::save(SelectorCheckpoint& out) const {
  // Bump-then-record: the stored counter value is unique to this save, so
  // a later restore() matching it proves nothing mutated in between.
  out.mutation_count = ++mutation_count_;
  const auto live = static_cast<std::ptrdiff_t>(heap_size_);
  out.heap_eff.assign(ws_->heap_eff.begin(), ws_->heap_eff.begin() + live);
  out.heap_wbar.assign(ws_->heap_wbar.begin(),
                       ws_->heap_wbar.begin() + live);
  out.heap_stream.assign(ws_->heap_stream.begin(),
                         ws_->heap_stream.begin() + live);
  out.heap_stamp.assign(ws_->heap_stamp.begin(),
                        ws_->heap_stamp.begin() + live);
  out.in_pool.assign(ws_->in_pool.begin(), ws_->in_pool.end());
  out.version.assign(ws_->version.begin(), ws_->version.end());
  out.heap_size = heap_size_;
  out.pool_size = pool_size_;
}

void StreamSelector::restore(const SelectorCheckpoint& in) {
  // Fast path: the live counter still equals the one this save() stamped,
  // so not a single pop/remove/update/readmit has happened since — the
  // selector *is* the checkpoint and every copy below would be a no-op.
  if (mutation_count_ == in.mutation_count) return;
  ++mutation_count_;
  std::copy(in.heap_eff.begin(), in.heap_eff.end(), ws_->heap_eff.begin());
  std::copy(in.heap_wbar.begin(), in.heap_wbar.end(),
            ws_->heap_wbar.begin());
  std::copy(in.heap_stream.begin(), in.heap_stream.end(),
            ws_->heap_stream.begin());
  std::copy(in.heap_stamp.begin(), in.heap_stamp.end(),
            ws_->heap_stamp.begin());
  ws_->in_pool.assign(in.in_pool.begin(), in.in_pool.end());
  ws_->version.assign(in.version.begin(), in.version.end());
  heap_size_ = in.heap_size;
  pool_size_ = in.pool_size;
}

model::StreamId StreamSelector::pop_best() {
  if (pool_size_ == 0) return model::kInvalidStream;
  ++mutation_count_;
  const model::StreamId chosen = strategy_ == SelectStrategy::kNaiveScan
                                     ? pop_best_naive()
                                     : pop_best_heap();
  if (chosen == model::kInvalidStream) return chosen;
  ws_->in_pool[static_cast<std::size_t>(chosen)] = 0;
  --pool_size_;
  ++stats_.picks;
  return chosen;
}

double StreamSelector::settle_top_eff() {
  if (pool_size_ == 0) return -util::kInf;
  ++mutation_count_;
  SoaHeap h = heap_of(*ws_, heap_size_);
  for (;;) {
    while (h.size > 0 && entry_dead(h.stream[0], h.stamp[0])) {
      --h.size;
      if (h.size > 0)
        heap_sift_down(h, 0, h.eff[h.size], h.wbar[h.size], h.stream[h.size],
                       h.stamp[h.size], stats_);
    }
    if (h.size == 0) {
      heap_size_ = 0;
      return -util::kInf;
    }
    if (entry_fresh(h.stream[0], h.stamp[0])) {
      heap_size_ = h.size;
      return h.eff[0];
    }
    const auto s = static_cast<std::size_t>(h.stream[0]);
    ++stats_.evaluations;
    heap_sift_down(h, 0, select_effectiveness(wbar_[s], cost_[s]), wbar_[s],
                   h.stream[0], ws_->version[s], stats_);
  }
}

model::StreamId StreamSelector::pop_best_heap() {
  SoaHeap h = heap_of(*ws_, heap_size_);

  auto refresh = [&](SelectHeapEntry& e) {
    const auto s = static_cast<std::size_t>(e.stream);
    e.eff = select_effectiveness(wbar_[s], cost_[s]);
    e.wbar = wbar_[s];
    e.stamp = ws_->version[s];
    ++stats_.evaluations;
  };
  auto front_entry = [&]() {
    return SelectHeapEntry{h.eff[0], h.wbar[0], h.stream[0], h.stamp[0]};
  };
  auto pop_entry = [&]() {
    const SelectHeapEntry e = front_entry();
    --h.size;
    if (h.size > 0)
      heap_sift_down(h, 0, h.eff[h.size], h.wbar[h.size], h.stream[h.size],
                     h.stamp[h.size], stats_);
    return e;
  };
  auto push_entry = [&](const SelectHeapEntry& e) {
    const std::size_t i = h.size++;
    heap_sift_up(h, i, e.eff, e.wbar, e.stream, e.stamp, stats_);
  };
  auto drop_removed = [&]() {
    while (h.size > 0 && entry_dead(h.stream[0], h.stamp[0]))
      (void)pop_entry();
  };

  // Phase 1: the classic lazy pop. A fresh top beats every remaining
  // stale key, and stale keys only overestimate, so it is the exact
  // lexicographic (eff, wbar, lowest id) maximum of the pool. Freshness
  // is per-stream — entries whose w̄ was never update()d since their last
  // evaluation are fresh by construction and cost nothing here. A stale
  // top refreshes in place (one sift-down), not via a pop + push
  // round-trip.
  SelectHeapEntry top;
  for (;;) {
    drop_removed();
    if (h.size == 0) {
      heap_size_ = 0;
      return model::kInvalidStream;
    }
    const SelectHeapEntry front = front_entry();
    if (entry_fresh(front.stream, front.stamp)) {
      top = pop_entry();
      break;
    }
    SelectHeapEntry e = front;
    refresh(e);
    heap_sift_down(h, 0, e.eff, e.wbar, e.stream, e.stamp, stats_);
  }

  // Phase 2: gather every pool stream whose *fresh* effectiveness ties
  // the maximum within tolerance. Anything below the tolerance band has
  // a stale key below it too and is never touched. A stale entry inside
  // the band refreshes at the root in place (its new, lower key sifts
  // down with early exit) instead of a pop + push round-trip; a fresh
  // in-band entry is a genuine tolerance tie.
  auto& tied = ws_->tied;
  tied.clear();
  tied.push_back(top);
  for (;;) {
    drop_removed();
    if (h.size == 0) break;
    const SelectHeapEntry front = front_entry();
    if (!could_tie(front.eff, top.eff)) break;
    if (!entry_fresh(front.stream, front.stamp)) {
      SelectHeapEntry e = front;
      refresh(e);
      heap_sift_down(h, 0, e.eff, e.wbar, e.stream, e.stamp, stats_);
      continue;
    }
    if (!eff_ties(front.eff, top.eff)) break;  // approx_ge yet not approx_eq
    tied.push_back(pop_entry());
  }

  const std::size_t best = break_ties(tied);
  for (std::size_t i = 0; i < tied.size(); ++i)
    if (i != best) push_entry(tied[i]);
  heap_size_ = h.size;
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
    tied.push_back({eff[s], wbar_[s], static_cast<model::StreamId>(s), 0});
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
  if (strategy_ == SelectStrategy::kNaiveScan) return;
  if (!readmitted_) {
    ws_->admit_floor.assign(wbar_.size(), 0);
    readmitted_ = true;
  }
  // A fresh stamp no older entry of `s` can carry: the stream's next
  // version.
  std::uint32_t& counter = ws_->version[ss];
  if (counter >= (1u << 31)) {
    // Far from wrapping, but a long-lived selector must never get there:
    // re-evaluate the live entries and restart every stamp at zero.
    compact();
    SoaHeap h = heap_of(*ws_, heap_size_);
    for (std::size_t i = 0; i < h.size; ++i) {
      const auto t = static_cast<std::size_t>(h.stream[i]);
      h.eff[i] = select_effectiveness(wbar_[t], cost_[t]);
      h.wbar[i] = wbar_[t];
      h.stamp[i] = 0;
    }
    stats_.evaluations += h.size;
    heap_build(h, stats_);
    std::fill(ws_->version.begin(), ws_->version.end(), 0u);
    std::fill(ws_->admit_floor.begin(), ws_->admit_floor.end(), 0u);
  }
  const std::uint32_t stamp = ++counter;
  // Raising the floor first retires the old entry of `s` before any
  // compaction, so a compacted heap holds at most |pool| - 1 entries and
  // the push below fits the reset()-time capacity |S|. The capacity only
  // doubles when compaction frees less than an eighth of it, which keeps
  // compaction amortized O(1) per readmit when nearly every stream is in
  // the pool.
  ws_->admit_floor[ss] = stamp;
  const std::size_t cap = ws_->heap_eff.size();
  if (heap_size_ >= 2 * pool_size_ + 64 || heap_size_ == cap) {
    compact();
    if (8 * heap_size_ > 7 * cap) {
      ws_->heap_eff.resize(2 * cap);
      ws_->heap_wbar.resize(2 * cap);
      ws_->heap_stream.resize(2 * cap);
      ws_->heap_stamp.resize(2 * cap);
    }
  }
  ++stats_.evaluations;
  SoaHeap h = heap_of(*ws_, heap_size_ + 1);
  heap_sift_up(h, heap_size_, select_effectiveness(wbar_[ss], cost_[ss]),
               wbar_[ss], s, stamp, stats_);
  heap_size_ = h.size;
}

// Drops every dead entry (left the pool, or retired by a readmit) and
// rebuilds the heap over the survivors — exactly one entry per pool
// stream. Keys keep their stamps: a stale key is still an overestimate.
void StreamSelector::compact() {
  SoaHeap h = heap_of(*ws_, heap_size_);
  std::size_t live = 0;
  for (std::size_t i = 0; i < h.size; ++i) {
    if (entry_dead(h.stream[i], h.stamp[i])) continue;
    h.eff[live] = h.eff[i];
    h.wbar[live] = h.wbar[i];
    h.stream[live] = h.stream[i];
    h.stamp[live] = h.stamp[i];
    ++live;
  }
  h.size = live;
  heap_build(h, stats_);
  heap_size_ = live;
}

void StreamSelector::remove(model::StreamId s) {
  auto& slot = ws_->in_pool[static_cast<std::size_t>(s)];
  if (slot == 0) return;
  ++mutation_count_;
  slot = 0;
  --pool_size_;
}

}  // namespace vdist::core
