// The shared stream-selection kernel behind the Section-2 greedy family.
//
// Every §2-derived solver (Algorithm 1, its seeded variant, the §2.3
// partial-enumeration completions, the §3 band solver's per-band greedy)
// repeatedly extracts  argmax_S w̄^A(S) / c(S)  over the pool of streams
// not yet considered. Because the fractional residual utility w̄ is
// monotone non-increasing as streams are added (the submodular structure
// of Lemma 2.1, the same monotonicity CELF-style lazy evaluation exploits
// in the influence/VoD literature), a stale key only ever
// *overestimates* a stream's current effectiveness — so a max-structure
// that re-evaluates keys on demand returns exactly the stream a full
// O(|S|) rescan would, at a fraction of the evaluations.
//
// Two strategies live behind one StreamSelector interface:
//   * kDelta (default): exact delta propagation. The caller reports
//     every w̄ decrease through update(stream, new_wbar); only that
//     stream's key goes stale, so keys of *untouched* streams stay fresh
//     forever and are never re-evaluated.
//   * kNaiveScan: full O(pool) rescan per pick — the §2.1 baseline for
//     differential testing (tests/test_select.cpp) and perf
//     (engine/perf.h, `vdist_cli perf`).
//
// Data layout: the delta strategy keeps a winner (tournament) tree with
// exactly one leaf per stream, at P + s with P = bit_ceil(|S|). Every
// node holds the winning key of its subtree in 16 bytes: its
// effectiveness, encoded as an integer with the same order, and its
// stream id. A leaf-to-root pass carries the new key up in registers and
// loads one sibling per level; off an exact tie each level is one
// integer compare and two conditional moves. A key's w̄ lives in a
// per-stream array and is read only on exact effectiveness ties;
// staleness is one dirty byte per stream, set by update() and cleared
// when the key is re-evaluated. The root is the exact lexicographic
// maximum, under the order below, of the keys of every occupied leaf,
// whatever the tree's shape — so the tree is invisible to every
// differential test, objective and evaluation count.
//
// Tie-break contract, shared verbatim by both strategies so they are
// interchangeable pick-for-pick:
//   1. the selected stream maximizes effectiveness w̄/c;
//   2. among streams whose effectiveness ties within the library
//      tolerance (util::approx_eq; infinities tie only with each other),
//      the largest w̄ wins;
//   3. among w̄ ties within tolerance, the lowest stream id wins.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "model/types.h"
#include "util/float_cmp.h"
#include "util/hotpath.h"

namespace vdist::core {

enum class SelectStrategy {
  kDelta,      // exact per-stream delta propagation (default)
  kNaiveScan,  // full O(pool) rescan per pick (differential baseline)
};

// Parses "delta" / "naive" (the `select` option key of the registry
// adapters); throws std::invalid_argument otherwise.
[[nodiscard]] SelectStrategy parse_select_strategy(const std::string& name);
[[nodiscard]] const char* to_string(SelectStrategy strategy) noexcept;

// Counters both strategies report; the perf subsystem and bench E12-style
// ablations read them off the result structs. picks/evaluations measure
// the selection work itself; the phase counters below attribute the rest
// of the hot path: rows_walked/pairs_touched are the w̄ propagation's
// volume (user rows entered, per-pair residual deltas applied — reported
// by the greedy through note_propagation()), heap_sifts counts
// selection-tree leaf-to-root passes (a key refresh, a pop, a readmit,
// a tolerance-tied loser's return; the name predates the tree). All of
// them are deterministic functions of the pick sequence, so like
// evaluations they are machine-independent and diffable across BENCH
// baselines.
// rows_sorted is the greedy engine's prep: the user rows its constructor
// re-sorted (|U| on a cold workspace, only the rows whose utilities
// changed on a warm one, none on borrowed rows; see SolveWorkspace's row
// cache) — deterministic given the sequence of solves a workspace ran.
// The serving repair's own row re-sorts are not counted.
struct SelectStats {
  std::size_t picks = 0;         // streams returned by pop_best()
  std::size_t evaluations = 0;   // effectiveness (re-)computations
  std::size_t pairs_touched = 0;  // w̄ propagation: per-pair deltas applied
  std::size_t rows_walked = 0;    // w̄ propagation: user rows entered
  std::size_t heap_sifts = 0;     // selection-tree leaf-to-root passes
  std::size_t rows_sorted = 0;    // engine prep: user rows re-sorted
  void merge(const SelectStats& other) noexcept {
    picks += other.picks;
    evaluations += other.evaluations;
    pairs_touched += other.pairs_touched;
    rows_walked += other.rows_walked;
    heap_sifts += other.heap_sifts;
    rows_sorted += other.rows_sorted;
  }
};

// One stream's selection key: its effectiveness and residual utility
// as of its last evaluation. The currency of the small tolerance-tied
// candidate set, the naive scan and the §2.3 replay's tie-breaks.
struct SelectKey {
  double eff = 0.0;
  double wbar = 0.0;
  model::StreamId stream = model::kInvalidStream;
};

// One winner-tree node (SolveWorkspace::tree): the winning key of its
// subtree — its effectiveness, encoded as an integer with the same order
// (select.cpp's eff_order), and its stream. An empty leaf (a stream
// popped out of the pool) holds the minimum order and kInvalidStream.
struct SelectNode {
  std::int64_t order;
  model::StreamId stream;
};

// A saved selector state (the winner tree, the per-stream key w̄ and
// dirty bytes, pool membership). Part of core::GreedyCheckpoint
// (core/greedy.h); SelectStats counters are deliberately NOT
// checkpointed — they keep counting monotonically across restores so a
// checkpointed enumeration reports its true total work.
struct SelectorCheckpoint {
  std::vector<SelectNode> tree;
  std::vector<double> key_wbar;
  std::vector<char> dirty;
  std::vector<char> in_pool;
  std::size_t pool_size = 0;
  // The selector's mutation counter at save() time. restore() compares it
  // against the live counter and returns without touching a byte when the
  // selector has not mutated since this very save — the checkpoint-restore
  // fast path for back-to-back restores of the same frame.
  std::uint64_t mutation_count = 0;
};

struct CheckpointArena;  // core/greedy.h: reusable GreedyCheckpoint frames

// One (user, stream, edge) pair the greedy assigned, in assignment
// order. The engine logs pairs here during the run and materializes the
// model::Assignment once at result()/take() time — the flat append beats
// per-pair vector-of-vectors bookkeeping in the inner loop, and the
// replay applies the identical accounting arithmetic in the identical
// order.
struct AssignedPair {
  model::UserId user;
  model::StreamId stream;
  model::EdgeId edge;
};

// Reusable per-thread scratch for the solver stack. One workspace per
// thread amortizes every per-solve allocation (residual caps, w̄, costs,
// the selection tree, band-view surrogates, enumeration checkpoints)
// across the thousands of cells a BatchRunner or SweepPlan executes;
// SolveRequest::workspace threads it through the registry. A workspace
// may be reused freely across sequential solves of different instances
// and algorithms, but must never be shared by two concurrent solves.
struct SolveWorkspace {
  // Selection kernel (StreamSelector). The delta strategy's winner
  // tree: 2P cache-line-aligned nodes, the root at 1 and stream s's leaf
  // at P + s (P = bit_ceil(|S|); node 0 unused). key_wbar[s] is the w̄
  // of s's leaf key, dirty[s] marks a key update() made stale. All three
  // are sized at reset(); the naive strategy sizes only dirty.
  util::AlignedVector<SelectNode> tree;
  std::vector<double> key_wbar;
  std::vector<char> dirty;
  std::vector<char> in_pool;
  util::AlignedVector<double> eff;      // naive-scan per-stream cache
  std::vector<SelectKey> tied;          // tolerance-tied candidates
  // Greedy engine (core/greedy.cpp, core/partial_enum.cpp).
  std::vector<double> rem;
  std::vector<double> wbar;
  std::vector<double> cost;
  std::vector<double> user_w;       // per-user assigned (surrogate) utility
  std::vector<double> user_last_w;  // last assigned pair's utility per user
  std::vector<char> taken;          // greedy: seeded-or-considered marks
  // The greedy's prepared rows, a cache that outlives the engine: each
  // user's utilities sorted desc (user-major, at the view's
  // user_edge_begin), the streams parallel to them, and all streams by
  // ascending cost. prepare_rows (core/greedy.h) writes them for every
  // GreedyEngine that does not borrow another workspace's rows
  // (GreedyOptions::rows), sorting each row or deriving it from a row
  // source, and for the serving repair at resolve and appends; sort_row
  // re-sorts the repair's rows one at a time between events; the
  // propagation kernel (core/propagate.h) and core/replay.cpp read them.
  // They hold for the instance named by row_key and the edge utilities
  // in row_edge_w (base edge order, as the rows were last sorted from): a
  // row is a pure function of its CSR row and those utilities, and
  // cost_order of the base's costs. Footprint of the cache key: one
  // double per edge and one byte per user.
  struct RowKey {
    std::uint64_t uid = 0;  // model::Instance::uid() of the view's base
    std::size_t streams = 0;
    std::size_t users = 0;
    std::size_t edges = 0;
    bool operator==(const RowKey&) const = default;
  };
  std::vector<double> user_edge_w;  // user-major utilities, sorted desc
  std::vector<model::StreamId> user_edge_s;  // streams parallel to the above
  std::vector<model::StreamId> cost_order;   // streams by ascending cost
  RowKey row_key;                  // uid 0: nothing cached
  std::vector<double> row_edge_w;  // utilities the rows were sorted from
  std::vector<char> row_dirty;     // per user: re-sort at this prep
  // Per stream: its position in the CSR row being derived (prepare_rows
  // with a source); stale entries are harmless, as each is checked.
  std::vector<std::uint32_t> row_slot;
  // w̄ propagation batching (core/propagate.h): the streams whose
  // residual utility changed during the current pick, deduplicated via
  // the parallel mark array (all-zero between picks), so the selector
  // bookkeeping runs once per touched stream in one pass after the edge
  // loop instead of once per touched pair inside it.
  std::vector<model::StreamId> touched;
  std::vector<char> touch_mark;
  // The §2.2 race's input (core/greedy.h: log_fresh_pairs,
  // split_pair_log, build_winner): a semi-feasible solution's pairs in
  // assignment order, then grouped by user, pick order kept within each
  // user (CSR: user u's pairs run from user_pair_begin[u] to
  // user_pair_begin[u + 1] in user_pairs).
  std::vector<AssignedPair> pair_log;
  std::vector<std::uint32_t> user_pair_begin;
  std::vector<AssignedPair> user_pairs;
  // Radix-sort ping-pong buffers (the constructor's cost-order build).
  std::vector<std::uint64_t> radix_keys;
  std::vector<std::uint64_t> radix_key_scratch;
  std::vector<model::StreamId> radix_val_scratch;
  // Band views (core/skew_bands.cpp): per-edge surrogate utilities,
  // per-stream totals, per-user caps, per-edge band tags, plus the
  // band-major edge partition (edge ids grouped by band, ascending
  // within each band) and the edge -> stream map the grouped fill uses.
  std::vector<double> view_utility;
  std::vector<double> view_totals;
  std::vector<double> view_caps;
  std::vector<std::int32_t> edge_band;
  std::vector<model::EdgeId> band_edge_ids;
  std::vector<model::StreamId> edge_stream;
  // Checkpointed enumeration (core/partial_enum.cpp): lazily created
  // arena of GreedyCheckpoint frames, one per enumeration depth, reused
  // across seed sets and across solves on this workspace.
  std::shared_ptr<CheckpointArena> checkpoint_arena;
  // Generic double scratch (group dedup, allocator cost rows).
  std::vector<double> scratch;

  // Drops the greedy row cache: the next GreedyEngine on this workspace
  // prepares every row from scratch (a cold solve).
  void invalidate_rows() noexcept { row_key = RowKey{}; }
};

// Effectiveness of a stream: residual utility per unit cost; zero-cost
// streams with positive residual rank first (+inf), dead zero-cost
// streams last (0). Both strategies MUST compute effectiveness through
// this one helper so their values are bit-identical (the vectorized
// fills in select.cpp replicate it lane-wise with per-lane IEEE division
// — bit-identical by construction).
[[nodiscard]] inline double select_effectiveness(double wbar,
                                                 double cost) noexcept {
  return cost > 0.0 ? wbar / cost : (wbar > 0.0 ? util::kInf : 0.0);
}

// Pops the most effective stream from a shrinking pool. Usage:
//
//   StreamSelector sel;
//   sel.reset(ws, ws.wbar, ws.cost, SelectStrategy::kDelta);
//   while ((s = sel.pop_best()) != model::kInvalidStream) {
//     ...                      // maybe assign s, decreasing ws.wbar[t]
//     sel.update(t, ws.wbar[t]);  // after EACH w̄ decrease
//   }
//
// The selector borrows the caller's live w̄/cost arrays; the caller may
// decrease w̄ entries between pops — reporting each change through
// update(). An increase would break the stale-keys-overestimate
// invariant the tree relies on, so it goes through readmit(), which
// also puts a popped or removed stream back into the pool. A
// selector kept alive across many rounds of such changes (the serving
// engine's repair completion, engine/repair_core.h) never needs another
// reset().
class StreamSelector {
 public:
  StreamSelector() = default;

  // Rebinds to `wbar`/`cost` (equal sizes; must not be reallocated for
  // the selector's lifetime) and resets the pool to all streams.
  void reset(SolveWorkspace& ws, std::span<const double> wbar,
             std::span<const double> cost, SelectStrategy strategy);

  // Removes and returns the pool stream with maximum effectiveness under
  // the tie-break contract above, or model::kInvalidStream when the pool
  // is empty.
  [[nodiscard]] model::StreamId pop_best();

  // The *exact* maximum effectiveness over the current pool, without
  // popping anything; -inf on an empty pool. Under kDelta it refreshes
  // the root until it is fresh (the next pop's phase 1 done early;
  // refreshed keys stay refreshed); under kNaiveScan it is one pool scan.
  // The §2.3 trace recorder calls this right after each pop, before
  // propagation, so every recorded pick carries the exact runner-up
  // value a replayed sibling must beat to diverge.
  [[nodiscard]] double settle_top_eff();

  // Removes a stream from the pool without selecting it (seed pre-passes
  // force-add streams outside the argmax order).
  void remove(model::StreamId s);

  // Puts `s` back into the pool with a fresh key for its current w̄ —
  // after a w̄ increase, or to return a popped or removed stream. Under
  // kDelta it overwrites s's leaf (one evaluation, one leaf-to-root
  // pass), whatever key the leaf held.
  void readmit(model::StreamId s);

  // Tells the selector that ws.wbar[s] just decreased to `new_wbar`:
  // marks only stream s's key stale — the exact delta path; every other
  // key stays fresh, and the tree itself is not touched until the stale
  // key surfaces at the root. (kNaiveScan keeps the marks too but never
  // reads them: its rescan reads live values anyway.) Inline: this sits
  // in the greedy's w̄-propagation batch pass. Calling it once per
  // touched stream at the end of a pick is equivalent to once per
  // touched pair inside it — staleness is binary.
  void update(model::StreamId s, double /*new_wbar*/) noexcept {
    ++mutation_count_;
    ws_->dirty[static_cast<std::size_t>(s)] = 1;
  }

  // Phase accounting hook for the propagation kernel (core/propagate.h):
  // credits this selector's stats with the rows walked and per-pair
  // deltas applied for one pick.
  void note_propagation(std::size_t rows, std::size_t pairs) noexcept {
    stats_.rows_walked += rows;
    stats_.pairs_touched += pairs;
  }

  // Copies the selector's tree/key/pool state out (in); the stats
  // counters keep running monotonically across restores. The checkpoint
  // must come from a save() on this selector since its last reset().
  void save(SelectorCheckpoint& out) const;
  void restore(const SelectorCheckpoint& in);

  [[nodiscard]] bool contains(model::StreamId s) const noexcept {
    return ws_->in_pool[static_cast<std::size_t>(s)] != 0;
  }
  [[nodiscard]] std::size_t pool_size() const noexcept { return pool_size_; }
  [[nodiscard]] const SelectStats& stats() const noexcept { return stats_; }

 private:
  [[nodiscard]] model::StreamId pop_best_tree();
  [[nodiscard]] model::StreamId pop_best_naive();
  // Brings a fresh key of a pool stream to the root — emptying the
  // leaves of streams that left the pool and refreshing stale keys as
  // they surface — and returns the root (kInvalidStream: empty tree).
  [[nodiscard]] SelectNode settle_root();
  // Re-evaluates stream s's key from the live w̄ and writes it to s's
  // leaf.
  void refresh(std::size_t s);
  // Writes `key` (stream s's, or the empty leaf) to stream s's leaf and
  // recomputes its ancestors: one leaf-to-root pass.
  void set_leaf(std::size_t s, SelectNode key);

  SolveWorkspace* ws_ = nullptr;
  std::span<const double> wbar_;
  std::span<const double> cost_;
  SelectStrategy strategy_ = SelectStrategy::kDelta;
  std::size_t pool_size_ = 0;
  std::size_t leaves_ = 0;  // P, the leaf count; 0 under kNaiveScan
  // Monotone count of state mutations (pops, removes, updates,
  // readmits) since reset(). save() bumps then records it (mutable:
  // the bump-then-record scheme makes each saved value unique without
  // changing observable selector state); restore() no-ops when the live
  // counter still equals the checkpoint's — the selector provably has
  // not moved since that save. Never rewound, so a stale frame can never
  // alias a newer state.
  mutable std::uint64_t mutation_count_ = 0;
  SelectStats stats_;
};

// The shared epsilon-aware tie-break over a tolerance-tied candidate set
// (largest w̄ wins, then lowest stream id; candidates are id-sorted first
// so the non-transitive fuzzy scan is order-deterministic). Exposed so
// the §2.3 replay fast path (core/replay.cpp) resolves a recorded tie
// set with bit-identical logic to the live selector. Returns the index
// of the winner in `tied` (which is reordered).
[[nodiscard]] std::size_t select_break_ties(std::vector<SelectKey>& tied);

}  // namespace vdist::core
