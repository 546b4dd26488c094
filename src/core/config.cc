#include "src/core/config.h"

namespace fleetio {

double
FleetIoConfig::alphaForCluster(int cluster) const
{
    switch (cluster) {
      case 0: return alpha_lc1;
      case 1: return alpha_lc2;
      case 2: return alpha_bi;
      default: return unified_alpha;
    }
}

std::string
SupervisorConfig::validate() const
{
    if (reward_limit <= 0.0)
        return "supervisor.reward_limit must be positive";
    if (entropy_floor < 0.0)
        return "supervisor.entropy_floor must be non-negative";
    if (entropy_windows < 1)
        return "supervisor.entropy_windows must be at least 1";
    if (slo_vio_trip <= 0.0 || slo_vio_trip > 1.0)
        return "supervisor.slo_vio_trip must be in (0, 1]";
    if (slo_streak_windows < 1)
        return "supervisor.slo_streak_windows must be at least 1";
    if (probation_windows < 1)
        return "supervisor.probation_windows must be at least 1";
    if (snapshot_interval_windows < 1)
        return "supervisor.snapshot_interval_windows must be at least 1";
    if (max_restores < 0)
        return "supervisor.max_restores must be non-negative";
    return {};
}

std::string
FleetIoConfig::validate() const
{
    if (decision_window <= 0)
        return "decision_window must be positive";
    if (state_stack < 1)
        return "state_stack must be at least 1";
    if (beta < 0.0 || beta > 1.0)
        return "beta must be in [0, 1]";
    if (slo_vio_guar <= 0.0)
        return "slo_vio_guar must be positive (it divides the reward)";
    for (double a : {unified_alpha, alpha_lc1, alpha_lc2, alpha_bi}) {
        if (a < 0.0 || a > 1.0)
            return "reward alphas must be in [0, 1]";
    }
    if (harvest_bw_levels.empty())
        return "harvest_bw_levels must not be empty";
    if (harvestable_bw_levels.empty())
        return "harvestable_bw_levels must not be empty";
    for (double bw : harvest_bw_levels) {
        if (bw < 0.0)
            return "harvest_bw_levels must be non-negative";
    }
    for (double bw : harvestable_bw_levels) {
        if (bw < 0.0)
            return "harvestable_bw_levels must be non-negative";
    }
    if (admission_batch <= 0)
        return "admission_batch must be positive";
    if (train_interval_windows < 1)
        return "train_interval_windows must be at least 1";
    if (teacher_windows < 0)
        return "teacher_windows must be non-negative";
    for (std::size_t h : hidden_sizes) {
        if (h == 0)
            return "hidden_sizes entries must be positive";
    }
    if (const std::string err = supervisor.validate(); !err.empty())
        return err;
    return {};
}

}  // namespace fleetio
