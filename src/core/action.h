/**
 * @file
 * The FleetIO action space (paper Table 2): Harvest(gsb_bw),
 * Make_Harvestable(gsb_bw), Set_Priority(level) — realized as three
 * factored discrete heads over bandwidth levels / priority levels.
 */
#pragma once

#include <cstddef>
#include <vector>

#include "src/core/config.h"
#include "src/rl/policy_network.h"
#include "src/sim/types.h"

namespace fleetio {

/** A decoded joint action for one decision window. */
struct AgentAction
{
    double harvest_bw_mbps = 0.0;        ///< Harvest(gsb_bw)
    double harvestable_bw_mbps = 0.0;    ///< Make_Harvestable(gsb_bw)
    Priority priority = Priority::kMedium;  ///< Set_Priority(level)
};

/** Maps between the policy's head indices and AgentAction values. */
class ActionMapper
{
  public:
    explicit ActionMapper(const FleetIoConfig &cfg);

    /** Head sizes for PolicyNetwork construction. */
    rl::ActionSpec spec() const;

    /** Decode sampled head indices into an action. */
    AgentAction decode(const std::vector<std::size_t> &indices) const;

    /** Encode an action into head indices (nearest levels). */
    std::vector<std::size_t> encode(const AgentAction &action) const;

  private:
    std::size_t nearestLevel(const std::vector<double> &levels,
                             double value) const;

    std::vector<double> harvest_levels_;
    std::vector<double> harvestable_levels_;
};

}  // namespace fleetio
