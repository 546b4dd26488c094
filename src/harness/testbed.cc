#include "src/harness/testbed.h"

#include <algorithm>
#include <cassert>

namespace fleetio {

Testbed::Testbed(const TestbedOptions &opts)
    : opts_(opts),
      faults_(opts.faults),
      dev_(opts.geo, eq_),
      hbt_(opts.geo),
      vssds_(dev_, hbt_),
      gsb_(dev_, vssds_),
      sched_(dev_, vssds_),
      tenant_seed_(opts.seed * 0x2545F4914F6CDD1Dull + 1)
{
    // Always installed: with all probabilities zero the injector never
    // draws from its RNG, so fault-free runs stay bit-identical to a
    // device without one.
    dev_.setFaultInjector(&faults_);
    // Wire block-erase notifications from every tenant's GC into the
    // gSB manager so reclaimed gSBs shrink and eventually retire.
    vssds_.setOnErased([this](ChannelId ch, ChipId chip, BlockId blk) {
        gsb_.onBlockErased(ch, chip, blk);
    });
    if (opts_.obs.trace) {
        tracer_ = std::make_unique<obs::TraceRecorder>(
            opts_.obs.trace_capacity);
        dev_.setTracer(tracer_.get());
    }
    if (opts_.obs.metrics)
        sched_.setMetrics(&metrics_);
    if (opts_.obs.attribution) {
        obs::AttributionHub::Config ac;
        ac.channels = opts_.geo.num_channels;
        ac.chips = std::size_t(opts_.geo.num_channels) *
                   opts_.geo.chips_per_channel;
        ac.top_k = opts_.obs.attr_top_k;
        attr_ = std::make_unique<obs::AttributionHub>(ac);
        dev_.setAttribution(attr_.get());
        if (opts_.obs.metrics)
            attr_->setMetrics(&metrics_);
    }
    if (opts_.obs.drift) {
        obs::DriftMonitor::Config dc;
        dc.baseline_windows = opts_.obs.drift_baseline_windows;
        dc.psi_threshold = opts_.obs.drift_psi_threshold;
        drift_ = std::make_unique<obs::DriftMonitor>(dc);
    }
    if (opts_.churn.enabled()) {
        elastic_ = std::make_unique<ElasticTenancyManager>(
            opts_.churn.elastic, eq_, vssds_, gsb_, sched_);
        elastic_->setProvisioner(
            [this](const TenantDemand &d,
                   const std::vector<ChannelId> &chs) {
                return provisionTenant(d, chs);
            });
        // Drain phase entry: stop the departing tenant's generator.
        // stop() bumps the workload generation, so even already-
        // scheduled arrival events become no-ops — nothing submits to
        // a retiring vSSD.
        elastic_->setRetirer(
            [this](VssdId id) { workloads_[id]->stop(); });
    }
    if (opts_.crash.enabled()) {
        durability_ = std::make_unique<DurabilityModel>(opts_.geo);
        injector_ =
            std::make_unique<PowerLossInjector>(eq_, *durability_);
        dev_.setDurability(durability_.get());
        dev_.setPowerLoss(injector_.get());
        hbt_.setDurability(durability_.get());
        injector_->setOnCrash([this]() { onCrash(); });
        injector_->arm(opts_.crash.plan);
        // Acked-write ledger: a completion reaching the host is a
        // durability promise — recovery must preserve the mapping.
        sched_.setCompletionTap(
            [this](const IoRequest &req) { recordAck(req); });
        scheduleCheckpoint();
    }
}

VssdId
Testbed::provisionTenant(const TenantDemand &demand,
                         const std::vector<ChannelId> &channels)
{
    const auto kind = WorkloadKind(demand.demand_class);
    Vssd &v = addTenant(kind, channels, demand.quota_blocks, demand.slo);
    // Mid-run arrival: no warm-up fill (the tenant starts cold, like a
    // freshly attached cloud volume); its workload starts immediately.
    workloads_.back()->start();
    if (on_tenant_added_)
        on_tenant_added_(v);
    return v.id();
}

void
Testbed::startChurn()
{
    if (!elastic_)
        return;
    // The ledger starts from the static layout so arrivals only carve
    // genuinely free channels.
    for (auto *v : vssds_.active())
        elastic_->claimStatic(v->id(), v->config().channels);
    for (auto *v : vssds_.active())
        elastic_->registerTenantClass(v->id(), int(tenantKind(v->id())));
    for (const ChurnEvent &ev : opts_.churn.schedule) {
        eq_.scheduleAfter(ev.at, [this, ev]() {
            if (ev.kind == ChurnEvent::Kind::kArrive) {
                TenantDemand d;
                d.demand_class = int(ev.workload);
                d.declared_mbps = ev.declared_mbps;
                d.channels = ev.channels;
                d.quota_blocks = ev.quota_blocks;
                d.slo = ev.slo;
                elastic_->submitArrival(d);
            } else {
                elastic_->requestRemoval(ev.remove_id);
            }
        });
    }
    elastic_->start();
}

Vssd &
Testbed::addTenant(WorkloadKind kind,
                   const std::vector<ChannelId> &channels,
                   std::uint64_t quota, SimTime slo)
{
    Vssd::Config cfg;
    cfg.id = VssdId(vssds_.size());
    cfg.name = workloadName(kind);
    cfg.quota_blocks = quota;
    cfg.channels = channels;
    cfg.slo = slo;
    Vssd &v = vssds_.create(cfg);

    const WorkloadProfile profile = profileFor(kind, opts_.intensity);
    tenant_seed_ = tenant_seed_ * 6364136223846793005ull + 1442695040888963407ull;
    workloads_.push_back(std::make_unique<SyntheticWorkload>(
        profile, eq_, sched_, v.id(), v.ftl().logicalPages(),
        tenant_seed_));
    kinds_.push_back(kind);
    if (attr_ != nullptr)
        attr_->setSlo(v.id(), slo);
    FLEETIO_TRACE_EVENT(tracer_.get(),
                        setTrackName(obs::tenantTrack(v.id()),
                                     cfg.name + "-" +
                                         std::to_string(v.id())));
    return v;
}

void
Testbed::warmupFill()
{
    // Direct metadata fill: program mappings through the FTL without
    // simulating time, then reset the wear/traffic counters the fill
    // would otherwise pollute. GC pressure from the fill is real — the
    // paper warms vSSDs until >= 50 % of free blocks are consumed.
    for (auto *v : vssds_.active()) {
        Ftl &ftl = v->ftl();
        const std::uint64_t target = std::uint64_t(
            double(ftl.logicalPages()) * opts_.warmup_fill);
        for (Lpa lpa = 0; lpa < target; ++lpa) {
            Ppa ppa;
            if (!ftl.allocateWrite(lpa, ppa)) {
                // Quota filled to the brim: stop early; GC will make
                // room during the run.
                break;
            }
        }
    }
}

void
Testbed::startWorkloads()
{
    for (auto &w : workloads_)
        w->start();
}

void
Testbed::stopWorkloads()
{
    for (auto &w : workloads_)
        w->stop();
}

void
Testbed::run(SimTime duration)
{
    const SimTime end = eq_.now() + duration;
    for (;;) {
        eq_.runUntil(end);
        // A fired crash halts the queue mid-run; recover and finish
        // the remaining simulated time. One-shot, so this loops at
        // most twice.
        if (injector_ != nullptr && injector_->crashed())
            recoverFromCrash();
        else
            break;
    }
}

void
Testbed::beginMeasurement()
{
    for (auto *v : vssds_.active()) {
        v->latency().reset();
        v->bandwidth().reset();
        v->queue().rollWindow();
    }
    dev_.resetBusyWindow();
    util_samples_.clear();
    measuring_ = true;
    measure_start_ = eq_.now();
    last_sample_ = eq_.now();
    window_index_ = 0;
    if (opts_.obs.metrics)
        metrics_.markBaseline(eq_.now());
    if (attr_ != nullptr)
        attr_->markBaseline();
    if (drift_ != nullptr)
        drift_->markBaseline();
    if (opts_.obs.metrics || tracer_ != nullptr) {
        last_tenant_bytes_.assign(vssds_.size(), 0);
        for (auto *v : vssds_.active())
            last_tenant_bytes_[v->id()] = v->bandwidth().totalBytes();
    }
    sampleUtilization();
}

void
Testbed::sampleUtilization()
{
    eq_.scheduleAfter(opts_.window, [this]() {
        if (!measuring_)
            return;
        const SimTime elapsed = eq_.now() - last_sample_;
        if (elapsed > 0) {
            const double util = dev_.busUtilization(elapsed);
            util_samples_.push_back(util);
            dev_.resetBusyWindow();
            last_sample_ = eq_.now();
            observeWindow(util);
        }
        sampleUtilization();
    });
}

/** Per-window obs hook: snapshot the metrics registry and emit the
 *  window-boundary / counter-track trace events. No-op (never called
 *  on the hot path) when both obs switches are off. */
void
Testbed::observeWindow(double util)
{
    const SimTime now = eq_.now();
    FLEETIO_TRACE_EVENT(tracer_.get(), windowBoundary(now, window_index_));
    FLEETIO_TRACE_EVENT(tracer_.get(),
                        counterSample(now, obs::kTrackController,
                                      obs::CounterKind::kUtilization,
                                      util));
    FLEETIO_TRACE_EVENT(tracer_.get(),
                        counterSample(now, obs::kTrackController,
                                      obs::CounterKind::kQueueDepth,
                                      double(sched_.queuedOps())));
    if (tracer_ != nullptr) {
        const double win_sec = toSeconds(opts_.window);
        for (auto *v : vssds_.active()) {
            const std::uint64_t total = v->bandwidth().totalBytes();
            const std::uint64_t last =
                v->id() < last_tenant_bytes_.size()
                    ? last_tenant_bytes_[v->id()] : 0;
            const double mbps =
                double(total - last) / (1e6 * win_sec);
            FLEETIO_TRACE_EVENT(
                tracer_.get(),
                counterSample(now, obs::tenantTrack(v->id()),
                              obs::CounterKind::kBandwidthMBps, mbps));
        }
    }
    if (opts_.obs.metrics || tracer_ != nullptr) {
        if (last_tenant_bytes_.size() < vssds_.size())
            last_tenant_bytes_.resize(vssds_.size(), 0);
        for (auto *v : vssds_.active())
            last_tenant_bytes_[v->id()] = v->bandwidth().totalBytes();
    }
    rollAttributionWindow(now);
    if (opts_.obs.metrics) {
        metrics_.gauge("device.utilization").set(util);
        metrics_.gauge("device.queued_ops")
            .set(double(sched_.queuedOps()));
        metrics_.counter("device.dispatched_ops")
            .observe(sched_.dispatchedOps());
        if (tracer_ != nullptr) {
            metrics_.gauge("trace.dropped_events")
                .set(double(tracer_->droppedCount()));
        }
        metrics_.snapshotWindow(now);
    }
    ++window_index_;
}

/** Close the attribution/drift window at @p now (no-op when off). The
 *  verdict engine sees each tenant's *effective* QoS tier so admission
 *  degradation outranks every other cause. */
void
Testbed::rollAttributionWindow(SimTime now)
{
    if (attr_ == nullptr)
        return;
    std::vector<int> tiers(vssds_.size(), 0);
    for (auto *v : vssds_.active())
        tiers[v->id()] = int(v->effectiveTier());
    attr_->rollWindow(now, window_index_, tiers);
}

void
Testbed::endMeasurement()
{
    measuring_ = false;
    for (auto *v : vssds_.active())
        v->rollWindow();
    // Fold the trailing partial window so the time-series covers the
    // whole measured region and lifetime aggregates match run totals.
    if (eq_.now() > last_sample_) {
        rollAttributionWindow(eq_.now());
        if (opts_.obs.metrics)
            metrics_.snapshotWindow(eq_.now());
    }
}

RecoveryManager::Refs
Testbed::recoveryRefs()
{
    RecoveryManager::Refs r;
    r.eq = &eq_;
    r.dev = &dev_;
    r.durability = durability_.get();
    r.injector = injector_.get();
    r.hbt = &hbt_;
    r.vssds = &vssds_;
    r.gsb = &gsb_;
    r.sched = &sched_;
    r.ctrl = ctrl_;
    r.metrics = metrics();
    return r;
}

void
Testbed::onCrash()
{
    // Chaos knobs: the power cut tears the most recent durable writes.
    if (opts_.crash.corrupt_checkpoint)
        durability_->corruptCurrentCheckpoint();
    if (opts_.crash.torn_journal_tail)
        durability_->truncateJournalTail();
    shadow_ = RecoveryManager(recoveryRefs()).captureShadow();
}

void
Testbed::recordAck(const IoRequest &req)
{
    if (req.type != IoType::kWrite)
        return;
    if (acked_.size() < vssds_.size())
        acked_.resize(vssds_.size());
    std::vector<bool> &bits = acked_[req.vssd];
    if (bits.empty()) {
        const Vssd *v = vssds_.get(req.vssd);
        if (v == nullptr)
            return;
        bits.resize(v->ftl().logicalPages(), false);
    }
    for (std::uint32_t i = 0; i < req.npages; ++i) {
        const Lpa lpa = req.lpa + i;
        if (lpa < bits.size())
            bits[lpa] = true;
    }
}

std::uint64_t
Testbed::auditAckedWrites() const
{
    // An acked write may legitimately vanish when its tenant was
    // removed, or when it was trimmed/overwritten before the crash —
    // the shadow map is the source of truth for what must survive.
    std::uint64_t lost = 0;
    for (const CrashShadow::TenantShadow &t : shadow_.tenants) {
        if (t.id >= acked_.size() || !vssds_.alive(t.id))
            continue;
        const Vssd *v = vssds_.get(t.id);
        const std::vector<bool> &bits = acked_[t.id];
        for (Lpa lpa = 0; lpa < bits.size() && lpa < t.map.size();
             ++lpa) {
            if (bits[lpa] && t.map[lpa] != kNoPpa &&
                v->ftl().lookup(lpa) == kNoPpa)
                ++lost;
        }
    }
    return lost;
}

void
Testbed::scheduleCheckpoint()
{
    eq_.scheduleAfter(opts_.crash.checkpoint_interval, [this]() {
        if (injector_->crashed())
            return;
        writeDeviceCheckpoint();
        scheduleCheckpoint();
    });
}

void
Testbed::writeDeviceCheckpoint()
{
    std::vector<CheckpointEntry> entries;
    for (auto *v : vssds_.active()) {
        const Ftl &ftl = v->ftl();
        for (Lpa lpa = 0; lpa < ftl.logicalPages(); ++lpa) {
            const Ppa ppa = ftl.lookup(lpa);
            if (ppa != kNoPpa)
                entries.push_back(CheckpointEntry{v->id(), lpa, ppa});
        }
    }
    durability_->writeCheckpoint(entries, eq_.now());
}

void
Testbed::recoverFromCrash()
{
    RecoveryManager rm(recoveryRefs());
    recovery_report_ = rm.recover(shadow_);
    recovery_report_.acked_lost = auditAckedWrites();
    if (metrics() != nullptr) {
        metrics_.gauge("recovery.acked_lost")
            .set(double(recovery_report_.acked_lost));
    }

    // Re-arm the volatile harness services the crash destroyed. Host
    // activity resumes once the simulated rebuild completes (RTO).
    scheduleCheckpoint();
    eq_.scheduleAfter(recovery_report_.rto_ns, [this]() {
        for (auto *v : vssds_.active()) {
            if (v->retiring())
                continue;
            // stop() first: the generator still thinks it is running
            // (its arrival events died with the queue), and start() is
            // a no-op on a running workload.
            workloads_[v->id()]->stop();
            workloads_[v->id()]->start();
        }
        if (elastic_)
            elastic_->resumeAfterCrash();
    });
    if (measuring_) {
        last_sample_ = eq_.now();
        dev_.resetBusyWindow();
        sampleUtilization();
    }
    eq_.resume();
}

double
Testbed::avgUtilization() const
{
    if (util_samples_.empty())
        return 0.0;
    double s = 0.0;
    for (double u : util_samples_)
        s += u;
    return s / double(util_samples_.size());
}

double
Testbed::p95Utilization() const
{
    if (util_samples_.empty())
        return 0.0;
    std::vector<double> copy = util_samples_;
    std::sort(copy.begin(), copy.end());
    const std::size_t idx = std::min(
        copy.size() - 1, std::size_t(0.95 * double(copy.size())));
    return copy[idx];
}

}  // namespace fleetio
