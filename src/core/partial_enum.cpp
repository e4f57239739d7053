#include "core/partial_enum.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <memory>
#include <thread>
#include <vector>

#include "core/replay.h"
#include "util/float_cmp.h"

namespace vdist::core {

using model::Assignment;
using model::Instance;
using model::InstanceView;
using model::StreamId;
using util::approx_le;

namespace {

// The best candidate so far. Candidates arrive as race values; only a
// new incumbent is assigned, by build(variant).
class Incumbent {
 public:
  explicit Incumbent(const InstanceView& view)
      : best_{Assignment(view.base()), -1.0, "none", {}} {}

  template <typename Build>
  void offer(const RaceOutcome& candidate, Build&& build) {
    if (candidate.value > best_.utility)
      best_ = {build(candidate.variant), candidate.value, candidate.variant,
               {}};
  }

  SmdSolveResult take() && { return std::move(best_); }

 private:
  SmdSolveResult best_;
};

// A semi-feasible candidate's race value under `mode`: its capped utility
// or the better side of its split. Amax is offered once, on its own, so
// it sits this race out.
[[nodiscard]] RaceOutcome semi_race(SmdMode mode, double capped,
                                    const SplitValues& split) noexcept {
  return race_winner(mode, capped, split, -util::kInf);
}

// Enumerates all subsets of size exactly `k` whose total cost fits the
// budget, invoking `fn` on each. Prunes on cost as it recurses. Used for
// the directly-evaluated cardinality-(< seed_size) sets; the seed_size
// level runs through the checkpointed engine walk instead.
template <typename Fn>
void for_each_subset(const InstanceView& view, int k, Fn&& fn,
                     std::size_t& budget_left_candidates) {
  const auto S = static_cast<StreamId>(view.num_streams());
  const double B = view.budget();
  std::vector<StreamId> current;
  current.reserve(static_cast<std::size_t>(k));
  auto rec = [&](auto&& self, StreamId start, double cost) -> bool {
    if (static_cast<int>(current.size()) == k) {
      if (budget_left_candidates == 0) return false;
      --budget_left_candidates;
      fn(std::span<const StreamId>(current));
      return true;
    }
    for (StreamId s = start; s < S; ++s) {
      const double c = view.cost(s);
      if (!approx_le(cost + c, B)) continue;
      current.push_back(s);
      const bool keep_going = self(self, s + 1, cost + c);
      current.pop_back();
      if (!keep_going) return false;
    }
    return true;
  };
  rec(rec, 0, 0.0);
}

// Counts the feasible size-k seed sets (the cardinality-seed_size leaf
// count), stopping at cap + 1: the parallel walk pre-pays its candidate
// budget in one piece, and any run max_candidates would truncate falls
// back to the sequential walk so truncation keeps its exact
// enumeration-order semantics.
[[nodiscard]] std::size_t count_feasible_subsets(const InstanceView& view,
                                                 int k, std::size_t cap) {
  const auto S = static_cast<StreamId>(view.num_streams());
  const double B = view.budget();
  std::size_t count = 0;
  auto rec = [&](auto&& self, StreamId start, double cost, int left) -> bool {
    if (left == 0) return ++count <= cap;
    for (StreamId s = start; s < S; ++s) {
      const double c = view.cost(s);
      if (!approx_le(cost + c, B)) continue;
      if (!self(self, s + 1, cost + c, left - 1)) return false;
    }
    return true;
  };
  rec(rec, 0, 0.0, k);
  return count;
}

// The deferred leaf incumbent: the DFS only scores leaves; the single
// best (max score, first in DFS = seed-set lexicographic order on ties,
// matching the old first-strict-improver offer semantics) is re-run once
// at the end and offered to the incumbent. Deferral is what lets
// replayed leaves skip the engine entirely and parallel workers reduce
// deterministically.
struct LeafBest {
  double score = -1.0;
  std::vector<StreamId> seeds;

  void offer(double s, std::span<const StreamId> prefix, StreamId last) {
    if (s > score) {
      score = s;
      seeds.assign(prefix.begin(), prefix.end());
      seeds.push_back(last);
    }
  }

  // Cross-worker reduction under the same fixed order; commutative and
  // associative, so any merge order (and any thread count) agrees.
  void merge(const LeafBest& o) {
    if (o.seeds.empty()) return;
    if (seeds.empty() || o.score > score ||
        (o.score == score &&
         std::lexicographical_compare(o.seeds.begin(), o.seeds.end(),
                                      seeds.begin(), seeds.end()))) {
      score = o.score;
      seeds = o.seeds;
    }
  }
};

// Everything one leaf row (all children of one parent frame) needs.
struct LeafCtx {
  const InstanceView& view;
  SmdMode mode;
  GreedyEngine& engine;
  // Recording buffer when this walker records parent traces; for the
  // depth-1 parallel walk it aliases the shared root trace, which is
  // pre-recorded and therefore only ever read here.
  CompletionTrace& trace;
  ReplayContext* rep;  // null = legacy per-leaf engine completions
  LeafBest& best;
};

// Evaluates the children {prefix + s : s in [start, end)} of `frame`.
// With replay on, the parent's completion is recorded lazily on the
// first feasible child (so empty rows record nothing) and children are
// scored in replay space, falling back to the engine per bail. Returns
// false when the sequential candidate budget ran dry (budget/evaluated
// are null in the pre-paid parallel walk).
bool run_leaf_row(LeafCtx& ctx, const GreedyCheckpoint& frame,
                  std::span<const StreamId> prefix, StreamId start,
                  StreamId end, double cost, bool trace_ready,
                  std::size_t* budget, std::size_t* evaluated) {
  const double B = ctx.view.budget();
  for (StreamId s = start; s < end; ++s) {
    const double c = ctx.view.cost(s);
    if (!approx_le(cost + c, B)) continue;
    if (budget != nullptr) {
      if (*budget == 0) return false;
      --*budget;
    }
    if (evaluated != nullptr) ++*evaluated;
    SplitValues sv;
    bool replayed = false;
    if (ctx.rep != nullptr) {
      if (!trace_ready) {
        ctx.engine.restore(frame);
        ctx.engine.run(ctx.trace);
        trace_ready = true;
      }
      replayed = ctx.rep->score_child(frame, ctx.trace, s, &sv);
    }
    double score;
    if (replayed) {
      score = sv.w1 >= sv.w2 ? sv.w1 : sv.w2;
    } else {
      ctx.engine.restore(frame);
      ctx.engine.add_seed(s);
      ctx.engine.run();
      if (ctx.mode == SmdMode::kAugmented) {
        score = ctx.engine.capped_utility();
      } else {
        sv = ctx.engine.split_values();
        score = sv.w1 >= sv.w2 ? sv.w1 : sv.w2;
      }
    }
    ctx.best.offer(score, prefix, s);
  }
  return true;
}

}  // namespace

PartialEnumResult partial_enum_unit_skew(const InstanceView& view,
                                         const PartialEnumOptions& opts) {
  PartialEnumResult out{{Assignment(view.base()), -1.0, "none", {}},
                       0,
                       false,
                       {},
                       0,
                       0};
  Incumbent incumbent(view);

  SolveWorkspace local;
  SolveWorkspace& ws = opts.workspace != nullptr ? *opts.workspace : local;
  // Inner runs never build per-candidate assignments; candidates are
  // scored through the engine accumulators and only an improving
  // incumbent is assigned.
  const GreedyOptions greedy_opts{opts.strategy, &ws,
                                  /*build_assignment=*/false,
                                  /*rows=*/nullptr};

  // One engine for the whole enumeration; its selection counters keep
  // accumulating across restores, so they report the solve's total work.
  GreedyEngine engine(view, ws, greedy_opts);

  // The checkpoint arena: frame f holds the engine state with f seeds
  // added. Frames live in the workspace and are reused across seed sets
  // and across solves.
  if (ws.checkpoint_arena == nullptr)
    ws.checkpoint_arena = std::make_shared<CheckpointArena>();
  auto& frames = ws.checkpoint_arena->frames;
  const std::size_t depth = static_cast<std::size_t>(
      std::max(opts.seed_size, 0));
  if (frames.size() < depth + 1) frames.resize(depth + 1);
  engine.save(frames[0]);

  // Shared-prefix replay: exact for the feasible-mode split (a per-user
  // function of the pick sequence) and recorded through the delta
  // selector. Other modes/strategies keep the per-leaf engine loop —
  // which makes every naive differential run a replay-free cross-check.
  const bool replay_on = depth >= 1 && opts.mode == SmdMode::kFeasible &&
                         opts.strategy == SelectStrategy::kDelta;

  // The main thread's recording buffer. For depth == 1 the root
  // completion doubles as the (only) parent trace, recorded once here on
  // the main engine so the tally of recorded runs — and therefore every
  // counter — is identical for any worker count.
  CompletionTrace trace;
  bool root_trace_ready = false;

  // Engine completions race on the engine's accumulators and replay
  // their picks only for a new incumbent; the other candidates' pairs
  // are already in ws.pair_log (or need none, for Amax).
  const bool feasible = opts.mode == SmdMode::kFeasible;
  const auto offer_engine = [&] {
    incumbent.offer(
        semi_race(opts.mode, engine.capped_utility(),
                  feasible ? engine.split_values() : SplitValues{}),
        [&](const char* variant) { return engine.winner(variant); });
  };
  const auto build_from_log = [&](const char* variant) {
    return build_winner(view, ws, variant);
  };

  // The plain greedy (empty seed) and the single best stream are always
  // candidates; with seed_size == 0 they are the whole algorithm.
  if (replay_on && depth == 1) {
    engine.run(trace);
    root_trace_ready = true;
  } else {
    engine.run();
  }
  offer_engine();
  incumbent.offer({stream_capped_value(view, amax_stream(view)), "Amax"},
                  build_from_log);
  out.candidates_evaluated = 2;

  std::size_t candidate_budget = opts.max_candidates;

  // Cardinality-(< seed_size) sets, evaluated directly (no completion):
  // the set's streams handed out in order under the greedy's saturation
  // rule. The replay runs on the workspace's scratch, clear of the live
  // engine's state.
  for (int k = 1; k < opts.seed_size; ++k) {
    for_each_subset(
        view, k,
        [&](std::span<const StreamId> set) {
          ++out.candidates_evaluated;
          const double capped = log_fresh_pairs(view, set, ws);
          incumbent.offer(
              semi_race(opts.mode, capped,
                        feasible ? split_pair_log(view, ws) : SplitValues{}),
              build_from_log);
        },
        candidate_budget);
  }

  // Cardinality-(== seed_size) seeds with greedy completion: a
  // depth-first walk that restores the parent frame instead of
  // re-solving from zero, scores every leaf (replaying the parent's
  // recorded completion where provable), and re-runs only the one
  // winning leaf for the incumbent.
  SelectStats worker_stats{};
  if (opts.seed_size >= 1) {
    const auto S = static_cast<StreamId>(view.num_streams());
    const double B = view.budget();
    LeafBest best;
    std::unique_ptr<ReplayContext> rep;
    if (replay_on) rep = std::make_unique<ReplayContext>(view, ws);

    bool parallel = opts.threads > 1;
    std::size_t precount = 0;
    if (parallel) {
      precount = count_feasible_subsets(view, opts.seed_size,
                                        candidate_budget);
      // A truncating run keeps the sequential walk (exact enumeration-
      // order truncation); otherwise the budget is pre-paid in one piece.
      parallel = precount <= candidate_budget;
    }

    if (parallel) {
      candidate_budget -= precount;
      out.candidates_evaluated += precount;
      if (precount > 0) {
        struct WorkerOut {
          LeafBest best;
          SelectStats stats{};
          ReplayStats rstats{};
          std::exception_ptr err;
        };
        const auto T = static_cast<std::size_t>(opts.threads);
        std::vector<WorkerOut> wouts(T);
        std::atomic<StreamId> next{0};
        auto body = [&](std::size_t tid) {
          WorkerOut& wo = wouts[tid];
          try {
            // Private workspace + engine per worker; construction is
            // deterministic from (view, opts), so every worker's pristine
            // frame is bit-identical to the main engine's frames[0].
            SolveWorkspace tws;
            GreedyEngine teng(view, tws,
                              GreedyOptions{opts.strategy, &tws,
                                            /*build_assignment=*/false,
                                            /*rows=*/nullptr});
            // Constructor-time counters are subtracted below: the work
            // tally must not depend on how many engines were built.
            const SelectStats base = teng.result().select;
            std::vector<GreedyCheckpoint> tframes(depth + 1);
            teng.save(tframes[0]);
            CompletionTrace ttrace;
            std::unique_ptr<ReplayContext> trep;
            if (replay_on) trep = std::make_unique<ReplayContext>(view, tws);
            // Depth 1: every worker replays against the shared
            // pre-recorded root trace (read-only). Deeper: each worker
            // records its own parents, exactly once per parent.
            LeafCtx tctx{view,  opts.mode,
                         teng,  depth == 1 ? trace : ttrace,
                         trep.get(), wo.best};
            std::vector<StreamId> tprefix;
            auto tdfs = [&](auto&& self, int level, StreamId start,
                            double cost) -> bool {
              if (level + 1 == opts.seed_size)
                return run_leaf_row(tctx,
                                    tframes[static_cast<std::size_t>(level)],
                                    tprefix, start, S, cost,
                                    /*trace_ready=*/false, nullptr, nullptr);
              for (StreamId s = start; s < S; ++s) {
                const double c = view.cost(s);
                if (!approx_le(cost + c, B)) continue;
                teng.restore(tframes[static_cast<std::size_t>(level)]);
                teng.add_seed(s);
                teng.save(tframes[static_cast<std::size_t>(level) + 1]);
                tprefix.push_back(s);
                self(self, level + 1, s + 1, cost + c);
                tprefix.pop_back();
              }
              return true;
            };
            for (;;) {
              const StreamId s1 = next.fetch_add(1);
              if (s1 >= S) break;
              const double c1 = view.cost(s1);
              if (!approx_le(c1, B)) continue;
              if (depth == 1) {
                run_leaf_row(tctx, tframes[0], {}, s1,
                             static_cast<StreamId>(s1 + 1), 0.0,
                             /*trace_ready=*/true, nullptr, nullptr);
              } else {
                teng.restore(tframes[0]);
                teng.add_seed(s1);
                teng.save(tframes[1]);
                tprefix.assign(1, s1);
                tdfs(tdfs, 1, s1 + 1, c1);
                tprefix.clear();
              }
            }
            const SelectStats fin = teng.result().select;
            wo.stats.picks = fin.picks - base.picks;
            wo.stats.evaluations = fin.evaluations - base.evaluations;
            wo.stats.pairs_touched = fin.pairs_touched - base.pairs_touched;
            wo.stats.rows_walked = fin.rows_walked - base.rows_walked;
            wo.stats.heap_sifts = fin.heap_sifts - base.heap_sifts;
            if (trep != nullptr) wo.rstats = trep->stats();
          } catch (...) {
            wo.err = std::current_exception();
          }
        };
        std::vector<std::thread> pool;
        pool.reserve(T);
        for (std::size_t t = 0; t < T; ++t) pool.emplace_back(body, t);
        for (auto& th : pool) th.join();
        for (const WorkerOut& wo : wouts)
          if (wo.err) std::rethrow_exception(wo.err);
        for (const WorkerOut& wo : wouts) {
          best.merge(wo.best);
          worker_stats.merge(wo.stats);
          out.frames_reused += wo.rstats.attempts;
          out.completions_replayed += wo.rstats.replayed;
        }
      }
    } else {
      LeafCtx ctx{view, opts.mode, engine, trace, rep.get(), best};
      std::vector<StreamId> prefix;
      auto dfs = [&](auto&& self, int level, StreamId start,
                     double cost) -> bool {
        if (level + 1 == opts.seed_size)
          return run_leaf_row(ctx, frames[static_cast<std::size_t>(level)],
                              prefix, start, S, cost,
                              level == 0 && root_trace_ready,
                              &candidate_budget, &out.candidates_evaluated);
        for (StreamId s = start; s < S; ++s) {
          const double c = view.cost(s);
          if (!approx_le(cost + c, B)) continue;
          engine.restore(frames[static_cast<std::size_t>(level)]);
          engine.add_seed(s);
          engine.save(frames[static_cast<std::size_t>(level) + 1]);
          prefix.push_back(s);
          const bool keep_going = self(self, level + 1, s + 1, cost + c);
          prefix.pop_back();
          if (!keep_going) return false;
        }
        return true;
      };
      dfs(dfs, 0, 0, 0.0);
      if (rep != nullptr) {
        out.frames_reused += rep->stats().attempts;
        out.completions_replayed += rep->stats().replayed;
      }
    }

    // The one winning leaf, re-run for real: restore + add_seeds + run is
    // bit-faithful to the leaf's original (or replayed) completion, so
    // offering it here equals the old per-leaf first-strict-improver
    // offers — every other leaf scored strictly lower or came later in
    // lexicographic order.
    if (!best.seeds.empty()) {
      engine.restore(frames[0]);
      for (StreamId s : best.seeds) engine.add_seed(s);
      engine.run();
      offer_engine();
    }
  }

  out.truncated = (candidate_budget == 0);
  out.select = engine.result().select;
  out.select.merge(worker_stats);
  out.best = std::move(incumbent).take();
  out.best.select = out.select;
  return out;
}

PartialEnumResult partial_enum_unit_skew(const Instance& inst,
                                         const PartialEnumOptions& opts) {
  return partial_enum_unit_skew(InstanceView::cap_form(inst), opts);
}

}  // namespace vdist::core
