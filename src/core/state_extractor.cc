#include "src/core/state_extractor.h"

#include <algorithm>
#include <cassert>

namespace fleetio {

namespace {
/** Soft scale for IOPS features: 10K IOPS maps to 1.0. */
constexpr double kIopsScale = 1e4;
}

StateExtractor::StateExtractor(const FleetIoConfig &cfg,
                               const SsdGeometry &geo)
    : cfg_(cfg), geo_(geo)
{
}

rl::Vector
StateExtractor::windowState(const Vssd &vssd,
                            const SharedState &shared) const
{
    const SimTime win = cfg_.decision_window;
    const double guar_bw =
        std::max(vssd.guaranteedBandwidthMBps(geo_), 1e-9);
    const double slo_ns = vssd.slo() == kTimeNever
                              ? double(msec(10))
                              : double(vssd.slo());

    rl::Vector s;
    s.reserve(FleetIoConfig::kStatesPerWindow);

    // 1. Avg_BW, normalized by the guaranteed bandwidth.
    s.push_back(vssd.bandwidth().windowMBps(win) / guar_bw);
    // 2. Avg_IOPS.
    s.push_back(vssd.bandwidth().windowIops(win) / kIopsScale);
    // 3. Avg_Lat relative to the SLO.
    s.push_back(vssd.latency().windowMeanNs() / slo_ns);
    // 4. SLO_Vio fraction.
    s.push_back(vssd.latency().windowSloViolation());
    // 5. QDelay: queued ops (soft-scaled) plus mean wait versus SLO.
    const double qdepth = double(vssd.queue().depth()) / 64.0;
    const double qwait = vssd.queue().windowMeanWaitNs() / slo_ns;
    s.push_back(std::min(qdepth + qwait, 10.0));
    // 6. RW_Ratio.
    s.push_back(vssd.bandwidth().windowReadRatio());
    // 7. Avail_Capacity fraction.
    const double cap = double(vssd.ftl().logicalBytes());
    s.push_back(cap > 0 ? double(vssd.ftl().availableBytes()) / cap
                        : 0.0);
    // 8. In_GC.
    s.push_back(vssd.gc().active() ? 1.0 : 0.0);
    // 9. Cur_Priority (0, 0.5, 1).
    s.push_back(double(vssd.priority()) / 2.0);
    // 10-11. Shared states over collocated agents.
    s.push_back(shared.sum_iops / kIopsScale);
    s.push_back(shared.sum_slo_vio);

    assert(s.size() == FleetIoConfig::kStatesPerWindow);
    return s;
}

void
StateExtractor::push(VssdId vssd, rl::Vector window_state)
{
    if (history_.size() <= vssd)
        history_.resize(vssd + 1);
    auto &h = history_[vssd];
    h.push_back(std::move(window_state));
    while (h.size() > std::size_t(cfg_.state_stack))
        h.pop_front();
}

rl::Vector
StateExtractor::stacked(VssdId vssd) const
{
    rl::Vector out(stateDim(), 0.0);
    if (vssd >= history_.size())
        return out;
    const auto &h = history_[vssd];
    // Place the available windows at the *end* (most recent last) so
    // the newest window always occupies the same feature positions.
    const std::size_t per = FleetIoConfig::kStatesPerWindow;
    const std::size_t have = h.size();
    const std::size_t offset =
        (std::size_t(cfg_.state_stack) - have) * per;
    for (std::size_t w = 0; w < have; ++w) {
        std::copy(h[w].begin(), h[w].end(),
                  out.begin() + std::ptrdiff_t(offset + w * per));
    }
    return out;
}

}  // namespace fleetio
