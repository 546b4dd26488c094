#include "src/core/teacher.h"

#include <algorithm>
#include <cmath>

namespace fleetio {

namespace {
/** Queue depth (pages) that signals unmet bandwidth demand. */
constexpr double kHarvestQueueThreshold = 24.0;

/** Pages of queue depth per additional harvested channel. */
constexpr double kPagesPerChannel = 24.0;

/** Donate only when the window SLO-violation rate is below this. */
constexpr double kDonateVioCeiling = 0.05;

/** Keep this fraction of the guaranteed bandwidth as headroom when
 *  donating. */
constexpr double kDonateMargin = 0.25;
}  // namespace

AgentAction
teacherAction(const Vssd &vssd, const GsbManager &gsb,
              const SsdGeometry &geo, SimTime window,
              const FleetIoConfig &cfg)
{
    AgentAction a;
    const double chan_bw = geo.channelBandwidthMBps();
    const double guar_bw = vssd.guaranteedBandwidthMBps(geo);
    const double used_bw = vssd.bandwidth().windowMBps(window);
    const double vio = vssd.latency().windowSloViolation();
    const double qdepth = double(vssd.queue().depth());
    const std::uint32_t held = gsb.heldChannels(vssd.id());
    const std::uint32_t max_chls = std::uint32_t(
        cfg.harvest_bw_levels.back() / std::max(chan_bw, 1e-9));

    // --- Harvest(gsb_bw): grab bandwidth when the queue backs up. ---
    std::uint32_t harvest_chls = 0;
    if (qdepth > kHarvestQueueThreshold) {
        harvest_chls = std::uint32_t(
            std::ceil(qdepth / kPagesPerChannel));
    } else if (held > 0 && used_bw > 0.6 * guar_bw) {
        // Demand persists: keep what we hold.
        harvest_chls = held;
    }
    harvest_chls = std::min(harvest_chls, max_chls);
    a.harvest_bw_mbps = chan_bw * harvest_chls;

    // --- Make_Harvestable(gsb_bw): donate idle bandwidth. ---
    std::uint32_t donate_chls = 0;
    if (vio <= kDonateVioCeiling && harvest_chls == 0) {
        const double idle_bw =
            guar_bw * (1.0 - kDonateMargin) - used_bw;
        if (idle_bw > chan_bw)
            donate_chls = std::uint32_t(idle_bw / chan_bw);
        // "If a vSSD runs GC frequently, reduce its harvestable
        // storage" (§3.3.2).
        if (vssd.gc().active())
            donate_chls /= 2;
    }
    donate_chls = std::min(donate_chls, max_chls);
    a.harvestable_bw_mbps = chan_bw * donate_chls;

    // --- Set_Priority(level). ---
    if (harvest_chls > 0 || held > 0) {
        // Polite guest: harvested traffic yields to the home tenant.
        a.priority = Priority::kLow;
    } else if (vio > kSloVioGuar || qdepth > 16.0) {
        a.priority = Priority::kHigh;
    } else {
        a.priority = Priority::kMedium;
    }
    return a;
}

}  // namespace fleetio
