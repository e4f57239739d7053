// Section 2.3: the better approximation via partial enumeration
// (Sviridenko's algorithm for maximizing a nondecreasing submodular set
// function under a knapsack constraint, instantiated for the cap-form
// utility of Lemma 2.1).
//
// The algorithm:
//   1. evaluates every feasible stream set of cardinality < seed_size
//      directly, and
//   2. for every feasible set of cardinality exactly seed_size, runs the
//      greedy of Algorithm 1 seeded with that set,
// returning the best candidate. With seed_size = 3 (the default, as in
// Sviridenko [16]) this guarantees e/(e-1) with resource augmentation
// (Theorem 2.9) and 2e/(e-1) without (Theorem 2.10, via the same
// last-stream split as Theorem 2.8).
//
// Since PR 4 the enumeration is *checkpointed*: one GreedyEngine is
// constructed per solve, its pristine state is snapshotted into the
// workspace's CheckpointArena, and the depth-first walk over seed sets
// saves one frame per enumeration level — a candidate {s1, s2, s3}
// restores the {s1, s2} frame and only pays add_seed(s3) plus its own
// greedy completion, instead of rebuilding the engine and re-adding every
// seed from zero. Candidates are further scored through the
// values-only last-stream split (core/greedy.h), materializing an
// assignment only when it beats the incumbent. The enumeration order and
// every comparison are unchanged from the from-scratch formulation, so
// results are pick-for-pick identical; only the work is shared.
//
// Running time is O(|S|^seed_size) greedy completions — polynomial but
// heavy; intended for moderate instance sizes (the paper's point is the
// existence of the ratio, and bench E3 measures the quality/time
// trade-off).
//
// Since PR 9 the cardinality-seed_size level is further accelerated two
// ways, both bit-transparent:
//   * Shared-prefix completion replay (core/replay.h): sibling leaves
//     differ by one seed, so each parent frame's completion is recorded
//     once (GreedyEngine::run(CompletionTrace&)) and every child is
//     scored by replaying the parent's pick sequence, falling back to a
//     real engine completion only when the replay cannot prove itself
//     exact. Enabled for kFeasible + kDelta; other modes/strategies
//     keep the per-leaf engine loop, which doubles as a replay-free
//     differential reference on every perf run.
//   * Parallel DFS (PartialEnumOptions::threads): workers claim
//     first-seed subtrees off an atomic cursor, each on a private
//     workspace/engine, and the incumbent is reduced deterministically
//     by (objective, seed-set lexicographic) order — results and every
//     reported counter are bit-identical across thread counts.
#pragma once

#include <cstddef>

#include "core/greedy.h"

namespace vdist::core {

struct PartialEnumOptions {
  // Sviridenko's enumeration depth d; 3 proves the theorem, smaller values
  // trade quality for time (0 degenerates to solve_unit_skew).
  int seed_size = 3;
  SmdMode mode = SmdMode::kFeasible;
  // Safety valve: stop enumerating after this many candidate seed sets.
  std::size_t max_candidates = 5'000'000;
  // Selection strategy and reusable buffers for every greedy completion
  // (core/select.h); the delta strategy pays off most here because the
  // inner greedy runs O(|S|^seed_size) times on checkpoint-restored
  // state.
  SelectStrategy strategy = SelectStrategy::kDelta;
  SolveWorkspace* workspace = nullptr;
  // Worker threads for the seed_size-level DFS (<= 1 = sequential).
  // Bit-identical results and counters at any value; when a run would be
  // truncated by max_candidates the walk stays sequential so truncation
  // keeps its exact enumeration-order semantics.
  int threads = 1;
};

struct PartialEnumResult {
  SmdSolveResult best;
  std::size_t candidates_evaluated = 0;
  // True if max_candidates stopped the enumeration early (the guarantee
  // then no longer holds; benches report it).
  bool truncated = false;
  // Selection-kernel counters summed over every greedy completion.
  SelectStats select;
  // Shared-prefix replay counters (zero when replay is off): leaves that
  // pulled a recorded parent frame + trace, and the subset of them that
  // were scored entirely in replay space (no engine completion). The
  // difference is the bail count.
  std::size_t frames_reused = 0;
  std::size_t completions_replayed = 0;
};

[[nodiscard]] PartialEnumResult partial_enum_unit_skew(
    const model::InstanceView& view, const PartialEnumOptions& opts = {});
[[nodiscard]] PartialEnumResult partial_enum_unit_skew(
    const model::Instance& inst, const PartialEnumOptions& opts = {});

}  // namespace vdist::core
