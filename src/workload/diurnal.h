// diurnal: sinusoidal arrival/departure intensity over phases — the
// churn mix (workload/churn.h) under a piecewise weight schedule, so it
// composes with the full mixed-churn machinery.
#pragma once

namespace vdist::workload {

class WorkloadRegistry;
void register_diurnal(WorkloadRegistry& registry);

}  // namespace vdist::workload
