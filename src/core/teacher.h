/**
 * @file
 * The heuristic teacher policy: a direct transcription of the paper's
 * qualitative action guidance (§3.3.2) —
 *   - harvest more bandwidth when the request queue backs up,
 *   - make idle bandwidth harvestable (less while GC runs),
 *   - raise priority under SLO violations / queue delay, stay low
 *     while harvesting from others.
 * Used to bootstrap agents (behaviour cloning approximates the paper's
 * offline pre-training) and as an interpretable reference policy.
 */
#pragma once

#include "src/core/action.h"
#include "src/core/config.h"
#include "src/harvest/gsb_manager.h"
#include "src/virt/vssd.h"

namespace fleetio {

/**
 * Compute the teacher's action for @p vssd given the current window
 * statistics (call before rolling the window).
 */
AgentAction teacherAction(const Vssd &vssd, const GsbManager &gsb,
                          const SsdGeometry &geo, SimTime window,
                          const FleetIoConfig &cfg);

}  // namespace fleetio
