// Algorithm 1 ("Greedy", Section 2.1) and its Section 2.2 fixes.
//
// Operates on the Section-2 cap form: an SMD instance whose single user
// measure is the utility cap (load == utility, K_u = W_u; see
// model::build_cap_instance). The greedy iteratively adds the stream with
// maximum cost effectiveness  w̄^A(S) / c(S)  — fractional residual utility
// per unit cost — assigning it to every user with positive residual, which
// may saturate a user past W_u once (a *semi-feasible* assignment).
//
// The whole family operates on model::InstanceView — a copy-free lens
// over a parent Instance's CSR (model/view.h) — so the §3 band solver can
// hand it surrogate-utility sub-problems without materializing per-band
// instances. The Instance overloads below are thin wrappers over
// InstanceView::cap_form(). Assignments are always built on the view's
// *parent* instance (shared stream/user ids), while every solver-side
// comparison (w̄, capped utility, the A1/A2/Amax race) runs on the view's
// surrogate utilities and caps.
//
// The plain greedy alone has unbounded ratio (Section 2.2's S1-blocks-S2
// example); the fixes are:
//   * kAugmented (Cor. 2.7): return max(greedy, best-single-stream), a
//     semi-feasible 2e/(e-1)-approximation under resource augmentation
//     K_u + max_S k_u(S);
//   * kFeasible (Thm. 2.8): split the greedy per user into "all but the
//     last stream" (A1) and "the last stream" (A2), both feasible, and
//     return the best of A1, A2, Amax — a feasible 3e/(e-1)-approximation
//     in O(n^2) time.
#pragma once

#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/select.h"
#include "model/assignment.h"
#include "model/instance.h"
#include "model/view.h"

namespace vdist::core {

// How the greedy family runs: which selection strategy extracts the
// argmax (core/select.h; the strategies are pick-for-pick identical) and
// which reusable buffer pack to solve on (null = allocate locally).
struct GreedyOptions {
  SelectStrategy strategy = SelectStrategy::kDelta;
  SolveWorkspace* workspace = nullptr;
  // When false, the engine skips per-pair Assignment bookkeeping entirely
  // and GreedyResult::assignment stays EMPTY — the caller scores through
  // capped_utility()/split_values() and assigns a winner on demand
  // (GreedyEngine::winner, which replays the picks into the pair log).
  // This is the §2.3 enumeration's inner-loop mode: thousands of
  // candidate completions are scored, a handful are ever assigned. The
  // greedy_unit_skew* free functions force this back on — the assignment
  // is their whole return value. solve_unit_skew honours it: false
  // returns the race's utility, variant and counters with an empty
  // assignment.
  bool build_assignment = true;
};

// The greedy's scalar counters (the pick order itself is recorded by
// GreedyEngine::run(CompletionTrace&)).
struct GreedyTrace {
  // Streams considered: seeds, picks, and the pool left when the budget
  // cut the run off.
  std::size_t num_considered = 0;
  // Streams skipped because c(A) + c(S) > B.
  std::size_t skipped_budget = 0;
};

struct GreedyResult {
  model::Assignment assignment;  // semi-feasible (server budget holds)
  // Paper's w(A) for semi-feasible assignments: sum_u min(W_u, w_u(A)),
  // valued by the view's (surrogate) utilities.
  double capped_utility = 0.0;
  GreedyTrace trace;
  // Selection-kernel counters for this run (picks, re-evaluations).
  SelectStats select;
};

// A saved GreedyEngine state: residual caps, residual utilities, selector
// pool/tree, spent budget and the partial assignment. Owned by the
// CheckpointArena of the caller's SolveWorkspace so the §2.3 enumeration
// reuses one frame per depth across all seed sets (no per-candidate
// allocation after the first).
struct GreedyCheckpoint {
  std::vector<double> rem;
  std::vector<double> wbar;
  std::vector<char> taken;
  std::vector<double> user_w;
  std::vector<double> user_last_w;
  std::vector<model::StreamId> added_streams;
  SelectorCheckpoint selector;
  std::size_t cost_cursor = 0;
  double used = 0.0;
  double capped_utility = 0.0;
  std::size_t num_considered = 0;
  std::size_t skipped_budget = 0;
  // Filled only when the engine builds assignments: the (user, stream,
  // edge) pairs assigned so far, in assignment order. Restoring replays
  // them through sync_assignment() — copying the flat log is far cheaper
  // than copying a per-user vector-of-vectors Assignment per frame.
  std::vector<AssignedPair> pair_log;
};

// The reusable checkpoint frames living in SolveWorkspace (one per
// enumeration depth; see core/partial_enum.cpp).
struct CheckpointArena {
  std::vector<GreedyCheckpoint> frames;
};

// A recorded greedy completion: everything a sibling leaf needs to replay
// the run pick-for-pick in "replay space" (core/replay.cpp) instead of
// re-running the completion selector. Recorded by GreedyEngine::run(trace)
// starting from the engine's current state (a checkpoint frame plus its
// seeds); the per-pick payloads are CSR-packed so one trace is a handful
// of flat vectors reused across recordings.
//
// Per pop i, in pop order:
//   * pick/applied:   the stream and whether it fit the budget;
//   * runner_up:      the *exact* maximum effectiveness over the pool
//                     right after the pop and before its propagation
//                     (StreamSelector::settle_top_eff) — the value a
//                     perturbed sibling stream must clearly beat to
//                     change this pick;
//   * tie_*:          the tolerance-tied candidate set the selector
//                     gathered (singleton for a clear winner);
//   * assign_*:       the (user, utility) pairs the pick assigned;
//   * touch_*:        every stream whose w̄ the pick's propagation
//                     changed, with its exact post-pick w̄.
// The end state carries the engine's final budget/accumulators plus
// per-user assignment timelines (CSR by user, entries in pick order) so
// a replayed sibling can cut any user's accumulator at an arbitrary
// replay stop point with bit-exact arithmetic.
struct CompletionTrace {
  std::vector<model::StreamId> pick;
  std::vector<char> applied;
  std::vector<double> runner_up;
  std::vector<std::uint32_t> tie_begin;     // size picks+1
  std::vector<model::StreamId> tie_member;  // includes the winner
  std::vector<std::uint32_t> assign_begin;  // size picks+1
  std::vector<model::UserId> assign_user;
  std::vector<double> assign_w;
  // Bitmask of the users this pick assigned (instances with <= 64
  // users; all-zero otherwise) — lets a replay intersect with its dirty
  // set instead of walking the assign list.
  std::vector<std::uint64_t> assign_umask;  // size picks
  std::vector<std::uint32_t> touch_begin;  // size picks+1
  std::vector<model::StreamId> touch_stream;
  std::vector<double> touch_wbar;  // w̄ after the pick's propagation
  // Streams the pick's propagation killed (w̄ fell to <= kAbsEps while
  // pooled). A replay kills its clean copies at the same pick without
  // value checks — the decision is the parent's own exact test.
  std::vector<std::uint32_t> death_begin;  // size picks+1
  std::vector<model::StreamId> death_stream;
  // End-of-run state: true when the run ended on the bulk budget cutoff
  // (cheapest pooled stream no longer fits) rather than a drained pool.
  bool ended_on_budget = false;
  double end_used = 0.0;
  // Replay accelerators, recorded at pop time:
  //   * pick_eff:     the winner's exact effectiveness at its pop — the
  //                   bits a clean-stream replay would recompute from
  //                   its image, so validation loads instead of divides;
  //   * margin_clear: pick_eff beats runner_up by the replay margin
  //                   (util::margin_gt), precomputed so the common-case
  //                   per-pick validation is two loads and a compare.
  std::vector<double> pick_eff;
  std::vector<char> margin_clear;
  // Bumped by clear(): lets a replay context detect that a reused trace
  // object (and its paired checkpoint frame) holds a new recording.
  std::uint64_t revision = 0;
  // The engine's per-user accumulators at completion end (the fast exact
  // scoring path when a replay consumes the whole trace).
  std::vector<double> final_user_w;
  std::vector<double> final_user_last_w;
  // Per-user contributions to the Theorem 2.8 split at completion end
  // (both zero for never-assigned users): w1_add is the capped-or-full
  // assigned utility, w2_add the last assigned utility. A full-consume
  // replay sums these for clean users instead of re-deriving them.
  std::vector<double> final_w1_add;
  std::vector<double> final_w2_add;
  // Per-user assignment timelines: user_tl_begin is CSR over users into
  // (tl_pick, tl_w), entries in pick order.
  std::vector<std::uint32_t> user_tl_begin;  // size users+1
  std::vector<std::uint32_t> tl_pick;
  std::vector<double> tl_w;

  [[nodiscard]] std::size_t num_picks() const noexcept { return pick.size(); }
  void clear();
  // Builds the per-user timelines from the assign CSR and snapshots the
  // final accumulators. Called by the recording run() at completion.
  void finalize(const model::InstanceView& view, std::span<const double> user_w,
                std::span<const double> user_last_w);
};

// The Theorem 2.8 split's utilities alone (no Assignment built): w1 is
// the "all but each user's last stream" side, w2 the "only the last
// stream" side.
struct SplitValues {
  double w1 = 0.0;
  double w2 = 0.0;
};
inline SplitValues& operator+=(SplitValues& acc,
                               const SplitValues& term) noexcept {
  acc.w1 += term.w1;
  acc.w2 += term.w2;
  return acc;
}

// The split's per-user peel: only a user saturated past its cap gives up
// its last stream in A1 (a strict improvement on the paper's peel-always,
// with the same guarantee).
[[nodiscard]] inline bool split_peels_last(double w, double cap) noexcept {
  return !util::approx_le(w, cap);
}

// One user's split terms for assigned utility w with last pair `last`.
// The engine's, the trace's, the replay's and the repair's split sums add
// these per user in user order, so they agree bit for bit. split_pair_log
// and split_last_stream sum per pair instead, in user-then-pick order:
// same peel decisions, sums equal to these only up to rounding.
[[nodiscard]] inline SplitValues split_term(double w, double last,
                                            double cap) noexcept {
  return {split_peels_last(w, cap) ? w - last : w, last};
}

// The engine behind the plain and seeded greedy (public since PR 4 so the
// §2.3 partial enumeration can snapshot/restore it instead of re-solving
// from scratch). Maintains, per stream, the fractional residual utility
// w̄^A(S) of §2 ("preliminaries"), updated incrementally when a user's
// residual cap changes — pushing each exact w̄ delta into the selection
// kernel (core/select.h) — and extracts each pick through the kernel. All
// per-solve buffers live in the caller's SolveWorkspace.
//
// Row cache contract: the constructor's prep (prepare_rows below) lives
// in the workspace and outlives the engine. The prepared arrays are
// bit-identical however warm the cache was, so picks, evaluations and
// objectives never depend on what the workspace solved before.
// SelectStats::rows_sorted reports the rows this prep re-sorted.
//
// Checkpoint contract: save() copies the full solve state into a frame;
// restore() rewinds to it. Restores must target a frame saved by *this*
// engine since its construction (same view, same workspace). The
// selection-kernel counters keep accumulating across restores — a
// checkpointed enumeration reports total work, not last-leaf work.
class GreedyEngine {
 public:
  // The view (cheap, borrowed spans) is copied; `ws` must outlive the
  // engine and not be shared with a concurrent solve.
  GreedyEngine(model::InstanceView view, SolveWorkspace& ws,
               const GreedyOptions& opts);

  // Force-adds a stream (seed). Requires it to fit the remaining budget
  // (throws std::invalid_argument otherwise); duplicates are ignored.
  void add_seed(model::StreamId s);

  // Runs the argmax loop to completion.
  void run();
  // Runs the argmax loop to completion while recording a CompletionTrace
  // (cleared first) for the §2.3 shared-prefix replay. Behaviour and
  // picks are identical to run(), with extra per-pick evaluations from
  // the settles that give each pick its exact runner-up
  // (StreamSelector::settle_top_eff). The trace is the same under both
  // selection strategies.
  void run(CompletionTrace& rec);

  // The current result; select counters are synced on access. With
  // build_assignment = false the result's assignment is empty — use the
  // accessors and winner() below instead.
  [[nodiscard]] const GreedyResult& result();
  // Moves the result out (terminal).
  [[nodiscard]] GreedyResult take() &&;
  // The selection-kernel counters so far, without syncing the assignment.
  [[nodiscard]] SelectStats select_stats() const;

  // The paper's capped utility of the current (partial) solution, under
  // the view's utilities. Maintained incrementally; valid in any mode.
  [[nodiscard]] double capped_utility() const noexcept {
    return result_.capped_utility;
  }

  // Theorem 2.8 split scores of the current solution, from the engine's
  // per-user accumulators: O(num_users), no edge lookups, no Assignment.
  [[nodiscard]] SplitValues split_values() const;

  // The current solution's race candidate named `variant` ("greedy",
  // "A1", "A2" or "Amax"), built by build_winner. In scoring mode the
  // added streams are first replayed into the pair log
  // (log_fresh_pairs): the same pairs, in the same order, as the
  // incremental bookkeeping would have logged. O(picks + pairs).
  [[nodiscard]] model::Assignment winner(std::string_view variant) const;

  void save(GreedyCheckpoint& out) const;
  void restore(const GreedyCheckpoint& in);

  [[nodiscard]] const model::InstanceView& view() const noexcept {
    return view_;
  }

 private:
  void add_stream(model::StreamId s, double cost);
  void run_loop();
  // Rebuilds result_.assignment from the workspace pair log (the
  // "greedy" winner) when picks landed since the last sync. No-op in
  // scoring mode.
  void sync_assignment();

  model::InstanceView view_;
  SolveWorkspace& ws_;
  std::size_t rows_sorted_ = 0;  // user rows the constructor's prep sorted
  bool build_assignment_ = true;
  GreedyResult result_;
  StreamSelector selector_;
  std::vector<model::StreamId> added_streams_;
  // Cursor into ws_.cost_order: streams before it have left the pool.
  // The cheapest pool stream bounds every future pick's cost, so once it
  // stops fitting the budget the whole remaining pool is one bulk skip.
  std::size_t cost_cursor_ = 0;
  double used_ = 0.0;
  // Non-null while a recording run() is in flight: add_stream appends the
  // pick's assignment and touch payloads to it.
  CompletionTrace* rec_ = nullptr;
  // True when ws_.pair_log holds pairs result_.assignment doesn't.
  bool assignment_dirty_ = false;
};

// Brings ws's prepared rows up to date for `view` and returns the number
// of user rows it sorted: each user's utilities sorted by descending w,
// streams in parallel (user_edge_w/_s, at the view's user_edge_begin),
// and all streams by ascending cost (cost_order). On the base the cache
// is keyed to (Instance::uid()) an O(nnz) diff re-sorts only the rows
// whose utilities changed in bits; any other base rebuilds all of it.
std::size_t prepare_rows(const model::InstanceView& view, SolveWorkspace& ws);
// prepare_rows for one row, for a caller that knows which rows an edit
// moved: re-sorts u's row from the view's utilities and records them in
// row_edge_w, so a later warm prepare_rows keeps it. The cache must
// already be keyed to the view's base.
void sort_row(const model::InstanceView& view, SolveWorkspace& ws,
              model::UserId u);

// Runs Algorithm 1 verbatim. The Instance overload requires
// inst.is_smd() && inst.is_unit_skew() (throws std::invalid_argument
// otherwise). O(|S| * n) with the naive scan as in §2.1; the default
// delta strategy is equivalent and much cheaper.
[[nodiscard]] GreedyResult greedy_unit_skew(const model::InstanceView& view,
                                            const GreedyOptions& opts = {});
[[nodiscard]] GreedyResult greedy_unit_skew(const model::Instance& inst,
                                            const GreedyOptions& opts = {});

// Algorithm 1 started from a preassigned seed set (the §2.3 partial
// enumeration needs this). Seeds are force-added in the given order —
// their total cost must fit the budget — and greedy continues over the
// remaining streams. Duplicate seeds are ignored.
[[nodiscard]] GreedyResult greedy_unit_skew_seeded(
    const model::InstanceView& view, std::span<const model::StreamId> seeds,
    const GreedyOptions& opts = {});
[[nodiscard]] GreedyResult greedy_unit_skew_seeded(
    const model::Instance& inst, std::span<const model::StreamId> seeds,
    const GreedyOptions& opts = {});

// The stream of Lemma 2.6's Amax: the first stream maximizing w(S) =
// sum_u w_u(S) under the view's utilities; kInvalidStream when no stream
// has positive utility.
[[nodiscard]] model::StreamId amax_stream(const model::InstanceView& view);
// A stream's capped value: the sum over its edges with w > 0 of
// min(W_u, w), in edge (= user) order; 0 for kInvalidStream. For Amax's
// stream this is w(Amax), bit for bit view_capped_utility's sum.
[[nodiscard]] double stream_capped_value(const model::InstanceView& view,
                                         model::StreamId s);
// The best single-stream assignment Amax: amax_stream assigned to every
// user the view gives it positive utility for.
[[nodiscard]] model::Assignment best_single_stream(
    const model::InstanceView& view);
[[nodiscard]] model::Assignment best_single_stream(
    const model::Instance& inst);

// Capped (surrogate) utility of `a` under the view: sum_u min(W_u, w_u)
// with both W and w read from the view. Per-user sums run in assignment
// order so the arithmetic is bit-identical to an incrementally maintained
// accumulator.
[[nodiscard]] double view_capped_utility(const model::InstanceView& view,
                                         const model::Assignment& a);

// Theorem 2.8's per-user peel of a semi-feasible assignment: A1(u) drops
// the *last* stream assigned to u, A2(u) keeps only that stream. Both are
// feasible and w(A1) + w(A2) >= w(A). Utilities are the view's. The
// library scores and builds the split from a pair log (split_pair_log,
// build_winner); this Assignment form is their reference.
struct FeasibleSplit {
  model::Assignment a1;
  model::Assignment a2;
  double w1 = 0.0;
  double w2 = 0.0;
};
[[nodiscard]] FeasibleSplit split_last_stream(const model::InstanceView& view,
                                              const model::Assignment& semi);
[[nodiscard]] FeasibleSplit split_last_stream(const model::Instance& inst,
                                              const model::Assignment& semi);

// --- The race's one winner path ------------------------------------------
//
// Every producer of a semi-feasible solution hands its pairs, in
// assignment order, to ws.pair_log: the engine its live log (or, in
// scoring mode, a replay of its picks), the enumeration its seed-only
// sets, the serving repair its per-user lists. split_pair_log scores the
// Theorem 2.8 split from it and build_winner assigns the race's winner.

// Replaces ws.pair_log with the pairs of handing `streams`, in order, to
// every user with w > 0 whose residual cap (fresh caps, on ws.scratch) is
// still positive — Algorithm 1's saturation rule, so the engine's picks
// replay to its own log. Streams must be distinct. Returns the capped
// utility, sum of min(w, residual) per pair.
double log_fresh_pairs(const model::InstanceView& view,
                       std::span<const model::StreamId> streams,
                       SolveWorkspace& ws);

// Groups ws.pair_log by user (ws.user_pair_begin / user_pairs, pick order
// kept within each user) and scores the Theorem 2.8 split with
// split_last_stream's per-pair running sums in user-then-pick order. A
// user's peel is decided by its own pick-order sum over its pairs — the
// sum the engine's user_w holds — so the values are split_last_stream's
// bit for bit.
[[nodiscard]] SplitValues split_pair_log(const model::InstanceView& view,
                                         SolveWorkspace& ws);

// The race candidate named `variant`, assigned on the view's base:
// "greedy" is ws.pair_log in log order, "A1"/"A2" the split's sides in
// user-then-pick order (with split_pair_log's peel decisions), "Amax"
// best_single_stream. Regroups the log (ws.user_pair_begin / user_pairs)
// unless `log_grouped` says split_pair_log grouped this very log and
// nothing has written ws.pair_log since.
[[nodiscard]] model::Assignment build_winner(const model::InstanceView& view,
                                             SolveWorkspace& ws,
                                             std::string_view variant,
                                             bool log_grouped = false);

enum class SmdMode {
  kFeasible,   // Theorem 2.8: feasible output, ratio 3e/(e-1)
  kAugmented,  // Corollary 2.7: semi-feasible output, ratio 2e/(e-1)
};

// The §2.2 race, valued: under kAugmented the semi-feasible greedy's
// capped utility against Amax's, under kFeasible the split's A1 and A2
// against Amax's. A tie goes to the earlier candidate.
struct RaceOutcome {
  double value = 0.0;
  const char* variant = "";  // "greedy", "A1", "A2" or "Amax"
};
[[nodiscard]] inline RaceOutcome race_winner(SmdMode mode, double capped,
                                             const SplitValues& split,
                                             double w_amax) noexcept {
  if (mode == SmdMode::kAugmented)
    return capped >= w_amax ? RaceOutcome{capped, "greedy"}
                            : RaceOutcome{w_amax, "Amax"};
  if (split.w1 >= split.w2 && split.w1 >= w_amax) return {split.w1, "A1"};
  if (split.w2 >= w_amax) return {split.w2, "A2"};
  return {w_amax, "Amax"};
}

struct SmdSolveResult {
  model::Assignment assignment;
  // Capped utility (== raw utility when the assignment is feasible),
  // valued by the view's (surrogate) utilities.
  double utility = 0.0;
  // Which candidate won: "greedy", "A1", "A2" or "Amax".
  std::string variant;
  // Selection-kernel counters of the underlying greedy run(s).
  SelectStats select;
};

// The fixed greedy of Section 2.2 for unit-skew SMD instances / views.
// The race runs on values — the greedy's capped utility, the split's
// sums from the greedy's pair log (split_last_stream's per-pair
// arithmetic), Amax's — and only the winner is assigned: none at all
// with opts.build_assignment = false.
[[nodiscard]] SmdSolveResult solve_unit_skew(
    const model::InstanceView& view, SmdMode mode = SmdMode::kFeasible,
    const GreedyOptions& opts = {});
[[nodiscard]] SmdSolveResult solve_unit_skew(
    const model::Instance& inst, SmdMode mode = SmdMode::kFeasible,
    const GreedyOptions& opts = {});

}  // namespace vdist::core
