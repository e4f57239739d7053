#include "workload/diurnal.h"

#include <cmath>
#include <numbers>
#include <stdexcept>
#include <vector>

#include "workload/churn.h"
#include "workload/workload.h"

namespace vdist::workload {

namespace {

class DiurnalWorkload final : public WorkloadModel {
 public:
  DiurnalWorkload() {
    info_.name = "diurnal";
    info_.description =
        "sinusoidal arrival/departure intensity: join weight swells and "
        "leave weight ebbs over phased cycles (the churn mix under a "
        "piecewise weight schedule)";
    info_.params = {
        {"events", "800", "trace length"},
        {"seed", "7", "RNG seed"},
        {"cycles", "2", "number of full day/night cycles across the trace"},
        {"phases", "8", "weight segments per cycle (>= 2)"},
        {"amplitude", "0.8",
         "swing of the join/leave weights around their base, in [0, 1]"},
    };
  }

  [[nodiscard]] const WorkloadInfo& info() const override { return info_; }

  [[nodiscard]] std::vector<model::InstanceEvent> generate(
      const model::Instance& inst, const Params& params) const override {
    const auto cycles = static_cast<std::size_t>(params.get_count("cycles"));
    const auto phases = static_cast<std::size_t>(params.get_count("phases"));
    if (cycles == 0)
      throw std::invalid_argument("workload param cycles must be >= 1");
    if (phases < 2)
      throw std::invalid_argument("workload param phases must be >= 2");
    const double amplitude = params.get_fraction("amplitude");

    const auto events = static_cast<std::size_t>(params.get_count("events"));
    const std::size_t total = cycles * phases;
    std::vector<detail::ChurnPhase> schedule;
    schedule.reserve(total);
    for (std::size_t k = 0; k < total; ++k) {
      const double theta = 2.0 * std::numbers::pi *
                           (static_cast<double>(k % phases) + 0.5) /
                           static_cast<double>(phases);
      const double swing = amplitude * std::sin(theta);
      detail::ChurnPhase p;
      p.until = static_cast<double>(k + 1) / static_cast<double>(total);
      p.weights = {2.0 * (1.0 - swing),  // night: departures surge
                   2.0 * (1.0 + swing),  // day: arrivals surge
                   0.5, 0.5, 1.0, 1.0};
      schedule.push_back(p);
    }
    return detail::mixed_churn(inst, events, params.get_count("seed"),
                               schedule, detail::ChurnScales{});
  }

 private:
  WorkloadInfo info_;
};

}  // namespace

void register_diurnal(WorkloadRegistry& registry) {
  registry.add(std::make_unique<DiurnalWorkload>());
}

}  // namespace vdist::workload
