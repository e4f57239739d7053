// churn: mixed background churn — user leave/join, stream pull/restore,
// capacity and utility drift — drawn from a weighted event mix. The mix
// loop is shared: diurnal runs it under a piecewise weight schedule.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "model/events.h"
#include "model/instance.h"

namespace vdist::workload {

class WorkloadRegistry;
void register_churn(WorkloadRegistry& registry);

namespace detail {

// One segment of a piecewise event-mix schedule: `weights` (leave, join,
// stream remove, stream add, capacity, utility — the draw order) apply to
// every event whose fractional position in the trace is < `until`; the
// last segment runs to the end. Weights are >= 0 with a positive total.
struct ChurnPhase {
  double until = 1.0;
  std::array<double, 6> weights{};
};

// Capacity changes scale the user's current cap by a uniform factor in
// [cap_min, cap_max]; utility changes scale the pair's declared utility
// by one in [utility_min, utility_max] (fractions, <= 1). Defaults are
// churn's declared ones.
struct ChurnScales {
  double cap_min = 0.7;
  double cap_max = 1.3;
  double utility_min = 0.4;
  double utility_max = 1.0;
};

// Draws `events` mixed-churn events over the instance's universe on
// TraceState: a drawn type with no legal target (no departed user, only
// one stream left...) falls back to a capacity change on a random alive
// user, then to a utility change. `phases` is non-empty with increasing
// `until`; throws std::invalid_argument on an instance with nothing to
// churn.
[[nodiscard]] std::vector<model::InstanceEvent> mixed_churn(
    const model::Instance& inst, std::size_t events, std::uint64_t seed,
    std::span<const ChurnPhase> phases, const ChurnScales& scales);

}  // namespace detail
}  // namespace vdist::workload
