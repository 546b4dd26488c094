#include "src/policies/policy.h"

#include "src/policies/adaptive.h"
#include "src/policies/fleetio_policy.h"
#include "src/policies/hardware_isolation.h"
#include "src/policies/software_isolation.h"
#include "src/policies/ssdkeeper.h"

namespace fleetio {

std::string
policyName(PolicyKind kind)
{
    switch (kind) {
      case PolicyKind::kHardwareIsolation: return "Hardware Isolation";
      case PolicyKind::kSsdKeeper: return "SSDKeeper";
      case PolicyKind::kAdaptive: return "Adaptive";
      case PolicyKind::kSoftwareIsolation: return "Software Isolation";
      case PolicyKind::kFleetIo: return "FleetIO";
      case PolicyKind::kFleetIoUnifiedGlobal:
        return "FleetIO-Unified-Global";
      case PolicyKind::kFleetIoCustomizedLocal:
        return "FleetIO-Customized-Local";
      case PolicyKind::kMixedIsolation: return "Mixed Isolation";
      case PolicyKind::kFleetIoMixed: return "FleetIO (mixed)";
    }
    return "unknown";
}

std::uint64_t
Policy::equalQuota(const Testbed &tb, std::size_t n)
{
    return tb.device().geometry().totalBlocks() / n;
}

double
alphaForKind(WorkloadKind kind)
{
    if (isBandwidthIntensive(kind))
        return kAlphaBi;
    if (kind == WorkloadKind::kYcsbB)
        return kAlphaLc2;
    return kAlphaLc1;
}

std::unique_ptr<Policy>
makePolicy(PolicyKind kind)
{
    return makePolicy(kind, FleetIoPolicy::Variant{});
}

std::unique_ptr<Policy>
makePolicy(PolicyKind kind, const FleetIoPolicy::Variant &fleetio)
{
    FleetIoPolicy::Variant v = fleetio;
    switch (kind) {
      case PolicyKind::kHardwareIsolation:
        return std::make_unique<HardwareIsolationPolicy>();
      case PolicyKind::kSsdKeeper:
        return std::make_unique<SsdKeeperPolicy>();
      case PolicyKind::kAdaptive:
        return std::make_unique<AdaptivePolicy>();
      case PolicyKind::kSoftwareIsolation:
        return std::make_unique<SoftwareIsolationPolicy>();
      case PolicyKind::kFleetIo:
        return std::make_unique<FleetIoPolicy>(v);
      case PolicyKind::kFleetIoUnifiedGlobal:
        v.customized_alpha = false;
        v.display_name = "FleetIO-Unified-Global";
        return std::make_unique<FleetIoPolicy>(v);
      case PolicyKind::kFleetIoCustomizedLocal:
        v.config.beta = 1.0;
        v.display_name = "FleetIO-Customized-Local";
        return std::make_unique<FleetIoPolicy>(v);
      case PolicyKind::kMixedIsolation:
        return std::make_unique<MixedIsolationPolicy>();
      case PolicyKind::kFleetIoMixed:
        v.mixed_layout = true;
        v.display_name = "FleetIO (mixed)";
        return std::make_unique<FleetIoPolicy>(v);
    }
    return nullptr;
}

}  // namespace fleetio
