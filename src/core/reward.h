/**
 * @file
 * FleetIO reward functions: the per-vSSD reward of Eq. 1 and the
 * beta-blended multi-agent reward of Eq. 2.
 */
#pragma once

#include <vector>

namespace fleetio {

/**
 * Eq. 1:  R = (1 - alpha) * BW/BW_guar - alpha * Vio/Vio_guar.
 *
 * @param avg_bw_mbps   measured window bandwidth of the vSSD
 * @param bw_guar_mbps  bandwidth of the allocated channels
 * @param slo_vio       window SLO-violation fraction in [0, 1]
 * @param slo_vio_guar  the violation budget (FleetIO's is kSloVioGuar, 1 %)
 * @param alpha         isolation-vs-utilization trade-off
 */
double singleReward(double avg_bw_mbps, double bw_guar_mbps,
                    double slo_vio, double slo_vio_guar, double alpha);

/**
 * Eq. 2:  R_i = beta * R_i,single
 *             + (1 - beta) * mean_{v != i}(R_v,single).
 *
 * @return one blended reward per input agent. With a single agent the
 *         blend degenerates to its own reward.
 */
std::vector<double>
multiAgentRewards(const std::vector<double> &single_rewards, double beta);

}  // namespace fleetio
