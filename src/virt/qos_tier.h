/**
 * @file
 * IOTune-style discrete QoS states (G-states) per vSSD. Each tier maps
 * to a priority ceiling, a guaranteed-bandwidth fraction cap, and a
 * harvest permission — replacing the fixed 3-priority ladder as the
 * unit of graceful degradation: under fault pressure or admission
 * overload the elastic controller steps tenants down tiers
 * deterministically instead of violating everyone's SLO at once.
 */
#pragma once

#include <cstddef>
#include <cstdint>

#include "src/sim/types.h"

namespace fleetio {

/**
 * Discrete service tiers, best first. G0 is full contracted service
 * and is the identity tier: a vSSD pinned at G0 behaves exactly as a
 * pre-elastic vSSD (no clamp, no cap), which is what keeps static
 * (no-churn) runs byte-identical.
 */
enum class QosTier : std::uint8_t {
    kG0 = 0,  ///< full service: any priority, uncapped, may harvest
    kG1 = 1,  ///< degraded: priority ceiling medium, no new harvesting
    kG2 = 2,  ///< guaranteed-only: low priority, ~3/4 guaranteed BW
    kG3 = 3,  ///< survival floor: low priority, ~2/5 guaranteed BW
};

inline constexpr std::size_t kNumQosTiers = 4;

/** What one G-state grants. */
struct QosTierSpec
{
    Priority priority_ceiling;  ///< Set_Priority is clamped to this
    double bw_fraction;         ///< cap as fraction of guaranteed BW
                                ///< (<= 0 means uncapped)
    bool may_harvest;           ///< may the tenant start new harvests?
};

/** The G-state table (indexed by QosTier). */
inline constexpr QosTierSpec kQosTierTable[kNumQosTiers] = {
    /* G0 */ {Priority::kHigh, 0.0, true},
    /* G1 */ {Priority::kMedium, 0.0, false},
    /* G2 */ {Priority::kLow, 0.75, false},
    /* G3 */ {Priority::kLow, 0.40, false},
};

inline constexpr const QosTierSpec &
qosTierSpec(QosTier t)
{
    return kQosTierTable[std::size_t(t)];
}

/** Clamp a requested priority to the tier's ceiling. Identity at G0. */
inline constexpr Priority
clampPriority(Priority p, QosTier t)
{
    const Priority ceil = qosTierSpec(t).priority_ceiling;
    return std::uint8_t(p) > std::uint8_t(ceil) ? ceil : p;
}

}  // namespace fleetio
