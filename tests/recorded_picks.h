// Shared test helper: a greedy solve's pick order as the engine's
// recording run (GreedyEngine::run(CompletionTrace&)) reports it — every
// pop in order, with whether it fit the budget (`applied`). Seeds are
// force-added before the run, so they are not picks. A run that ends on
// the bulk budget cutoff records no pops after it (test_core_greedy,
// test_select, test_view, test_checkpoint).
#pragma once

#include <span>

#include "core/greedy.h"
#include "model/instance.h"
#include "model/view.h"

namespace vdist::testing {

inline core::CompletionTrace recorded_picks(
    const model::InstanceView& view,
    core::SelectStrategy strategy = core::SelectStrategy::kDelta,
    std::span<const model::StreamId> seeds = {},
    core::SolveWorkspace* workspace = nullptr) {
  core::SolveWorkspace local;
  core::SolveWorkspace& ws = workspace != nullptr ? *workspace : local;
  core::GreedyEngine engine(view, ws, {strategy, &ws});
  for (const model::StreamId s : seeds) engine.add_seed(s);
  core::CompletionTrace rec;
  engine.run(rec);
  return rec;
}

inline core::CompletionTrace recorded_picks(
    const model::Instance& inst,
    core::SelectStrategy strategy = core::SelectStrategy::kDelta,
    std::span<const model::StreamId> seeds = {},
    core::SolveWorkspace* workspace = nullptr) {
  return recorded_picks(model::InstanceView::cap_form(inst), strategy, seeds,
                        workspace);
}

}  // namespace vdist::testing
