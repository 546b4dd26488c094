#include "src/obs/hub.h"

#include <cstdio>
#include <fstream>

namespace fleetio::obs {

std::string
tenantMetric(VssdId id, const char *suffix)
{
    // Not "t" + std::to_string(id) + ...: GCC 12 -O3 warns -Wrestrict.
    std::string name = "t";
    name += std::to_string(id);
    name += '.';
    name += suffix;
    return name;
}

ObsHub::ObsHub(const ObsSinks &sinks, std::size_t channels,
               std::size_t chips, SimTime window)
    : window_len_(window)
{
    if (sinks.trace)
        trace_ = std::make_unique<TraceRecorder>(kTraceRingEvents);
    if (sinks.metrics)
        metrics_ = std::make_unique<MetricsRegistry>();
    if (sinks.attribution) {
        AttributionHub::Config ac;
        ac.channels = channels;
        ac.chips = chips;
        attr_ = std::make_unique<AttributionHub>(ac);
    }
    if (sinks.drift)
        drift_ = std::make_unique<DriftMonitor>();
}

void
ObsHub::writeArtifacts(const std::string &base) const
{
    if (trace_ != nullptr) {
        std::ofstream os(base + ".trace.json");
        trace_->writeChromeJson(os);
        if (trace_->droppedCount() > 0) {
            std::fprintf(stderr,
                         "fleetio: trace ring overwrote %llu event(s) "
                         "(%s.trace.json is truncated; each thread's ring "
                         "keeps the last %zu)\n",
                         (unsigned long long)trace_->droppedCount(),
                         base.c_str(), kTraceRingEvents);
        }
    }
    if (attr_ != nullptr) {
        std::ofstream os(base + ".attribution.json");
        attr_->writeJson(os, drift_.get());
    }
    if (metrics_ != nullptr) {
        std::ofstream csv(base + ".metrics.csv");
        metrics_->writeCsv(csv);
        std::ofstream js(base + ".metrics.json");
        metrics_->writeJson(js);
    }
}

// ------------------------------------------------ tenants and windows

void
ObsHub::tenantAdded(VssdId id, const std::string &name, SimTime slo)
{
    if (attr_ != nullptr)
        attr_->setSlo(id, slo);
    if (trace_ != nullptr)
        trace_->setTrackName(tenantTrack(id),
                             name + "-" + std::to_string(id));
}

void
ObsHub::measurementStarted(SimTime now,
                           const std::vector<TenantSample> &tenants)
{
    window_ = 0;
    if (metrics_ != nullptr)
        metrics_->markBaseline(now);
    if (attr_ != nullptr)
        attr_->markBaseline();
    if (drift_ != nullptr)
        drift_->markBaseline();
    if (trace_ != nullptr) {
        last_bytes_.assign(tenants.size(), 0);
        for (VssdId id = 0; id < tenants.size(); ++id)
            last_bytes_[id] = tenants[id].bytes;
    }
}

void
ObsHub::windowClosed(SimTime now, double util, std::uint64_t queued_ops,
                     std::uint64_t dispatched_ops,
                     const std::vector<TenantSample> &tenants)
{
    if (trace_ != nullptr) {
        trace(TraceEventType::kWindowBoundary, now, kTrackController, 0,
              window_);
        counter(now, kTrackController, CounterKind::kUtilization, util);
        counter(now, kTrackController, CounterKind::kQueueDepth,
                double(queued_ops));
        const double win_sec = toSeconds(window_len_);
        last_bytes_.resize(tenants.size(), 0);
        for (VssdId id = 0; id < tenants.size(); ++id) {
            const TenantSample &t = tenants[id];
            if (!t.live)
                continue;
            const double mbps =
                double(t.bytes - last_bytes_[id]) / (1e6 * win_sec);
            last_bytes_[id] = t.bytes;
            counter(now, tenantTrack(id), CounterKind::kBandwidthMBps, mbps);
        }
    }
    rollAttribution(now, tenants);
    if (metrics_ != nullptr) {
        metrics_->gauge("device.utilization").set(util);
        metrics_->gauge("device.queued_ops").set(double(queued_ops));
        metrics_->counter("device.dispatched_ops").observe(dispatched_ops);
        if (trace_ != nullptr) {
            metrics_->gauge("trace.dropped_events")
                .set(double(trace_->droppedCount()));
        }
        metrics_->snapshotWindow(now);
    }
    ++window_;
}

void
ObsHub::measurementEnded(SimTime now,
                         const std::vector<TenantSample> &tenants)
{
    rollAttribution(now, tenants);
    if (metrics_ != nullptr)
        metrics_->snapshotWindow(now);
}

/** Close the attribution window. The verdict engine sees each
 *  tenant's *effective* QoS tier, so admission degradation outranks
 *  every other cause. */
void
ObsHub::rollAttribution(SimTime now,
                        const std::vector<TenantSample> &tenants)
{
    if (attr_ == nullptr)
        return;
    tiers_.resize(tenants.size());
    for (VssdId id = 0; id < tenants.size(); ++id)
        tiers_[id] = tenants[id].tier;
    const std::size_t first_new = attr_->verdicts().size();
    attr_->rollWindow(now, window_, tiers_);
    if (metrics_ == nullptr)
        return;
    // Each tenant with traffic: 0, or 1 + the cause of this window's
    // verdict (a verdict needs traffic, so its gauge was just reset).
    const auto cause = [this](VssdId id) -> Gauge & {
        return metrics_->gauge(tenantMetric(id, "slo_cause"));
    };
    for (VssdId id = 0; id < attr_->numTenants(); ++id) {
        if (attr_->requests(id) > 0)
            cause(id).set(0.0);
    }
    const std::vector<SloVerdict> &verdicts = attr_->verdicts();
    for (std::size_t i = first_new; i < verdicts.size(); ++i)
        cause(verdicts[i].tenant).set(double(int(verdicts[i].cause)) + 1.0);
    metrics_->counter("attr.verdicts").observe(verdicts.size());
}

// ------------------------------------------------------ requests, gSBs

void
ObsHub::ioComplete(SimTime now, VssdId v, std::uint64_t req_id,
                   IoType type, SimTime submit, std::uint64_t bytes,
                   const SimTime *stages)
{
    const SimTime latency = now - submit;
    trace(TraceEventType::kIoComplete, now, tenantTrack(v), req_id,
          std::uint64_t(type), 0, toMicros(latency));
    if (attr_ != nullptr) {
        attr_->recordRequest(v, type == IoType::kWrite, req_id, submit,
                             now, stages);
    }
    if (metrics_ != nullptr) {
        if (tenant_metrics_.size() <= v)
            tenant_metrics_.resize(v + 1);
        TenantMetrics &tm = tenant_metrics_[v];
        if (tm.latency == nullptr) {
            tm.latency = &metrics_->histogram(tenantMetric(v, "latency_ns"));
            tm.read_bytes = &metrics_->counter(tenantMetric(v, "bytes_read"));
            tm.write_bytes =
                &metrics_->counter(tenantMetric(v, "bytes_written"));
            tm.requests = &metrics_->counter(tenantMetric(v, "requests"));
        }
        tm.latency->record(latency);
        (type == IoType::kRead ? tm.read_bytes : tm.write_bytes)
            ->add(bytes);
        tm.requests->add(1);
    }
}

void
ObsHub::gsbEvent(SimTime now, TraceEventType type, VssdId tenant,
                 std::uint64_t gsb_id, std::uint32_t channels)
{
    trace(type, now, tenantTrack(tenant), gsb_id, channels);
    // The attribution artifact counts harvests, reclaims and lost
    // leases; creation and destruction are trace-only.
    if (attr_ == nullptr)
        return;
    if (type == TraceEventType::kGsbHarvest)
        attr_->noteHarvest(tenant, HarvestNote::kCreated);
    else if (type == TraceEventType::kGsbReclaim)
        attr_->noteHarvest(tenant, HarvestNote::kReclaim);
    else if (type == TraceEventType::kGsbRevoke ||
             type == TraceEventType::kGsbForceRelease)
        attr_->noteHarvest(tenant, HarvestNote::kRevoked);
}

// -------------------------------------------------------------- agents

void
ObsHub::decisionWindow(std::uint64_t window)
{
    if (windows_ctr_ != nullptr)
        windows_ctr_->observe(window);
    if (drift_ == nullptr)
        return;
    drift_->rollWindow();
    if (metrics_ != nullptr) {
        for (VssdId id : decided_) {
            const DriftMonitor::Score s = drift_->latest(id);
            metrics_->gauge(tenantMetric(id, "drift_psi")).set(s.psi);
            metrics_->gauge(tenantMetric(id, "drift_kl")).set(s.kl);
        }
    }
    decided_.clear();
}

}  // namespace fleetio::obs
