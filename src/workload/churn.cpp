#include "workload/churn.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "util/float_cmp.h"
#include "util/rng.h"
#include "workload/trace_state.h"
#include "workload/workload.h"

namespace vdist::workload {

namespace detail {

std::vector<model::InstanceEvent> mixed_churn(
    const model::Instance& inst, std::size_t events, std::uint64_t seed,
    std::span<const ChurnPhase> phases, const ChurnScales& scales) {
  TraceState st(inst);
  util::Rng rng(seed);

  // Per-segment weight totals, and the first event index past each
  // segment (the last one runs to the end of the trace).
  std::vector<double> totals;
  std::vector<std::size_t> limits;
  for (const ChurnPhase& phase : phases) {
    double total = 0.0;
    for (const double w : phase.weights) total += w;
    totals.push_back(total);
    limits.push_back(std::min(
        static_cast<std::size_t>(
            std::ceil(phase.until * static_cast<double>(events))),
        events));
  }
  limits.back() = events;

  std::vector<model::InstanceEvent> trace;
  trace.reserve(events);
  std::size_t seg = 0;
  while (trace.size() < events) {
    while (trace.size() >= limits[seg] && seg + 1 < phases.size()) ++seg;
    const std::array<double, 6>& weights = phases[seg].weights;
    double draw = rng.uniform(0.0, totals[seg]);
    std::size_t type = 0;
    while (type < 5 && draw >= weights[type]) draw -= weights[type++];

    bool emitted = false;
    switch (type) {
      case 0:
        emitted = st.users_alive >= 2 &&
                  st.emit_leave(st.random_alive_user(rng), trace);
        break;
      case 1:
        emitted = st.users_alive < st.U &&
                  st.emit_join(st.random_dead_user(rng), trace);
        break;
      case 2:
        emitted = st.streams_alive >= 2 &&
                  st.emit_stream_remove(st.random_alive_stream(rng), trace);
        break;
      case 3:
        emitted = st.streams_alive < st.S &&
                  st.emit_stream_add(st.random_dead_stream(rng), trace);
        break;
      default:
        break;
    }
    if (!emitted && type <= 4) {
      // Capacity change (drawn, or the fallback of a type with no legal
      // target); the scale is drawn only for a bounded cap.
      const model::UserId u = st.random_alive_user(rng);
      const double cap = st.cur_cap[static_cast<std::size_t>(u)];
      emitted = !util::is_unbounded(cap) &&
                st.emit_capacity(
                    u, cap * rng.uniform(scales.cap_min, scales.cap_max),
                    trace);
    }
    if (!emitted) {
      // Utility change on a uniform pair with both ends alive (a few
      // draws, then any pair — a dead pair's change is a legal event,
      // invisible until a restore).
      model::EdgeId e = 0;
      for (int attempt = 0; attempt < 8; ++attempt) {
        e = st.random_edge(rng);
        if (st.user_alive[static_cast<std::size_t>(inst.edge_user(e))] !=
                0 &&
            st.stream_alive[static_cast<std::size_t>(
                st.edge_stream[static_cast<std::size_t>(e)])] != 0)
          break;
      }
      st.emit_utility(
          e, rng.uniform(scales.utility_min, scales.utility_max), trace);
    }
  }
  return trace;
}

}  // namespace detail

namespace {

// The mix weight params, in ChurnPhase::weights order.
constexpr const char* kWeightKeys[6] = {"w-user-leave",    "w-user-join",
                                        "w-stream-remove", "w-stream-add",
                                        "w-capacity",      "w-utility"};

// Rejects a [lo, hi] scale pair with lo > hi, naming both params.
void require_ordered(const Params& params, const std::string& lo_key,
                     const std::string& hi_key, double lo, double hi) {
  if (lo > hi)
    throw std::invalid_argument("workload param " + lo_key + " (" +
                                params.get(lo_key) + ") must be <= " +
                                hi_key + " (" + params.get(hi_key) + ")");
}

class ChurnWorkload final : public WorkloadModel {
 public:
  ChurnWorkload() {
    info_.name = "churn";
    info_.description =
        "mixed background churn: leave/join, stream pull/restore, "
        "capacity and utility drift";
    info_.params = {
        {"events", "200", "trace length"},
        {"seed", "7", "RNG seed"},
        {"w-user-leave", "2", "mix weight: user departures"},
        {"w-user-join", "2", "mix weight: user rejoins"},
        {"w-stream-remove", "1", "mix weight: stream removals"},
        {"w-stream-add", "1", "mix weight: stream restores"},
        {"w-capacity", "2", "mix weight: capacity changes"},
        {"w-utility", "2", "mix weight: utility changes"},
        {"cap-scale-min", "0.7",
         "capacity scale factor, lower bound (the cap never drops below "
         "the user's largest pair utility)"},
        {"cap-scale-max", "1.3", "capacity scale factor, upper bound"},
        {"utility-scale-min", "0.4",
         "utility scale factor over the declared utility, lower bound, in "
         "[0, 1]"},
        {"utility-scale-max", "1",
         "utility scale factor over the declared utility, upper bound, in "
         "[0, 1]"},
    };
  }

  [[nodiscard]] const WorkloadInfo& info() const override { return info_; }

  [[nodiscard]] std::vector<model::InstanceEvent> generate(
      const model::Instance& inst, const Params& params) const override {
    detail::ChurnPhase mix;
    double total = 0.0;
    for (std::size_t k = 0; k < mix.weights.size(); ++k) {
      mix.weights[k] = params.get_double(kWeightKeys[k]);
      if (mix.weights[k] < 0.0)
        throw std::invalid_argument(std::string("workload param ") +
                                    kWeightKeys[k] + " must be >= 0, got '" +
                                    params.get(kWeightKeys[k]) + "'");
      total += mix.weights[k];
    }
    if (total <= 0.0)
      throw std::invalid_argument(
          "workload params w-user-leave ... w-utility are all zero");
    detail::ChurnScales scales;
    scales.cap_min = params.get_double("cap-scale-min");
    scales.cap_max = params.get_double("cap-scale-max");
    scales.utility_min = params.get_fraction("utility-scale-min");
    scales.utility_max = params.get_fraction("utility-scale-max");
    require_ordered(params, "cap-scale-min", "cap-scale-max", scales.cap_min,
                    scales.cap_max);
    require_ordered(params, "utility-scale-min", "utility-scale-max",
                    scales.utility_min, scales.utility_max);
    return detail::mixed_churn(
        inst, static_cast<std::size_t>(params.get_count("events")),
        params.get_count("seed"), {&mix, 1}, scales);
  }

 private:
  WorkloadInfo info_;
};

}  // namespace

void register_churn(WorkloadRegistry& registry) {
  registry.add(std::make_unique<ChurnWorkload>());
}

}  // namespace vdist::workload
