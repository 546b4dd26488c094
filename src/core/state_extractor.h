/**
 * @file
 * RL state construction (paper Table 1): the nine per-vSSD states plus
 * two shared cross-agent states, stacked over three decision windows.
 */
#pragma once

#include <deque>
#include <vector>

#include "src/core/config.h"
#include "src/rl/matrix.h"
#include "src/ssd/geometry.h"
#include "src/virt/vssd.h"

namespace fleetio {

/** Cross-agent aggregates shared into every agent's state (§3.3.1). */
struct SharedState
{
    double sum_iops = 0.0;     ///< sum of Avg_IOPS across collocated vSSDs
    double sum_slo_vio = 0.0;  ///< sum of SLO_Vio across collocated vSSDs
};

/**
 * Computes normalized window states and maintains the per-vSSD history
 * stack. All features are scaled to O(1) ranges so the MLP trains
 * without per-feature whitening.
 */
class StateExtractor
{
  public:
    StateExtractor(const FleetIoConfig &cfg, const SsdGeometry &geo);

    /**
     * The 11-feature state of the *current* (un-rolled) window of
     * @p vssd. @p shared contains sums over the *other* agents.
     */
    rl::Vector windowState(const Vssd &vssd,
                           const SharedState &shared) const;

    /** Append a window state to @p vssd's history. */
    void push(VssdId vssd, rl::Vector window_state);

    /**
     * Stacked state: the last state_stack window states concatenated
     * oldest-first, zero-padded while history is short.
     */
    rl::Vector stacked(VssdId vssd) const;

    /** Drop one vSSD's history (deallocation). */
    void reset(VssdId vssd)
    {
        if (vssd < history_.size())
            history_[vssd].clear();
    }

    std::size_t stateDim() const { return cfg_.stateDim(); }

  private:
    const FleetIoConfig &cfg_;
    const SsdGeometry &geo_;
    /** Window states [vssd], oldest first; empty = no history. */
    std::vector<std::deque<rl::Vector>> history_;
};

}  // namespace fleetio
