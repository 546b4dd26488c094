#include "src/core/elastic_tenancy.h"

#include <algorithm>
#include <cassert>

#include "src/core/admission_control.h"
#include "src/core/fleetio_controller.h"

namespace fleetio {

std::string
ElasticTenancyConfig::validate() const
{
    if (const std::string err = admission.validate(); !err.empty())
        return err;
    if (drain_poll <= 0)
        return "elastic.drain_poll must be positive";
    if (scrub_poll <= 0)
        return "elastic.scrub_poll must be positive";
    if (!(degrade_slo_1 <= degrade_slo_2 && degrade_slo_2 <= degrade_slo_3))
        return "elastic.degrade_slo thresholds must be non-decreasing";
    if (degrade_free_ratio < 0.0 || degrade_free_ratio > 1.0)
        return "elastic.degrade_free_ratio must be in [0, 1]";
    if (recover_evals < 1)
        return "elastic.recover_evals must be at least 1";
    return {};
}

ElasticTenancyManager::ElasticTenancyManager(
    const ElasticTenancyConfig &cfg, EventQueue &eq, VssdManager &vssds,
    GsbManager &gsb, IoScheduler &sched)
    : cfg_(cfg),
      eq_(eq),
      vssds_(vssds),
      gsb_(gsb),
      sched_(sched),
      ledger_(vssds.device().geometry()),
      admission_(cfg.admission)
{
    assert(cfg_.validate().empty());
}

void
ElasticTenancyManager::attachController(FleetIoController *ctrl)
{
    ctrl_ = ctrl;
    if (ctrl_ == nullptr)
        return;
    // Provider policy on the action-level admission control (§3.5's
    // PermissionFn hook): a tenant whose effective G-state forbids
    // harvesting may not start new harvests, and retiring/removed
    // tenants may take no resource action at all. Zero-bandwidth
    // reconciliation submissions still pass so lingering leases and
    // donations unwind through the normal path.
    ctrl_->admission().setPermissionCheck(
        [this](const PendingAction &a) {
            Vssd *v = vssds_.get(a.vssd);
            if (v == nullptr || !vssds_.alive(a.vssd) || v->retiring())
                return false;
            if (a.type == PendingAction::Type::kHarvest &&
                a.bw_mbps > 0 &&
                !qosTierSpec(v->effectiveTier()).may_harvest) {
                return false;
            }
            return true;
        });
}

void
ElasticTenancyManager::registerTenantClass(VssdId id, int demand_class)
{
    for (auto &k : known_) {
        if (k.id == id) {
            k.demand_class = demand_class;
            return;
        }
    }
    known_.push_back(KnownTenant{id, demand_class});
}

AdmissionSnapshot
ElasticTenancyManager::snapshot() const
{
    const auto &geo = vssds_.device().geometry();
    AdmissionSnapshot s;
    s.free_channels = ledger_.freeChannels();
    s.per_channel_mbps = geo.channelBandwidthMBps();
    const std::uint64_t total = geo.totalBlocks();
    s.device_free_ratio =
        total > 0
            ? double(vssds_.device().totalFreeBlocks()) / double(total)
            : 0.0;
    double vio_sum = 0.0;
    std::size_t n = 0;
    for (const Vssd *v : vssds_.active()) {
        vio_sum += v->latency().windowSloViolation();
        ++n;
    }
    s.mean_slo_violation = n > 0 ? vio_sum / double(n) : 0.0;
    s.queued_arrivals = queued_;
    return s;
}

void
ElasticTenancyManager::submitArrival(const TenantDemand &demand)
{
    ++stats_.arrivals;
    evaluateArrival(demand, 0);
}

void
ElasticTenancyManager::evaluateArrival(TenantDemand demand, int attempt)
{
    stats_.max_attempts_observed =
        std::max(stats_.max_attempts_observed, attempt);
    const AdmissionDecision d =
        admission_.decide(demand, snapshot(), attempt);
    switch (d) {
    case AdmissionDecision::kAccept: {
        // The vSSD id is only known after provisioning, so carve under
        // a placeholder owner and re-claim under the real id; claim()
        // overwrites exactly the carved channels. The placeholder can
        // never collide with a live tenant: ids are dense from 0.
        constexpr VssdId kCarvePending = kNoVssd - 1;
        const std::vector<ChannelId> chs =
            ledger_.carve(kCarvePending, demand.channels);
        if (chs.empty() && demand.channels > 0) {
            // The snapshot said the channels were there; carve is the
            // source of truth. Treat as transient contention.
            ++stats_.rejected;
            return;
        }
        assert(provision_ &&
               "elastic arrivals need a provisioner installed");
        const VssdId id = provision_(demand, chs);
        ledger_.claim(id, chs);
        registerTenantClass(id, demand.demand_class);
        ++stats_.admitted;
        return;
    }
    case AdmissionDecision::kQueue: {
        ++queued_;
        const SimTime delay = admission_.backoffDelay(attempt);
        eq_.scheduleAfter(delay, [this, demand, attempt]() {
            --queued_;
            ++stats_.retries;
            evaluateArrival(demand, attempt + 1);
        });
        return;
    }
    case AdmissionDecision::kReject:
        ++stats_.rejected;
        return;
    }
}

void
ElasticTenancyManager::requestRemoval(VssdId id)
{
    Vssd *v = vssds_.get(id);
    if (v == nullptr || !vssds_.alive(id) || v->retiring())
        return;
    ++stats_.removals_requested;
    ++removals_in_flight_;
    // Drain phase: stop the workload (no new submissions), then wait
    // for every in-flight request of the tenant to complete.
    if (retire_)
        retire_(id);
    v->setRetiring(true);
    pollDrain(id);
}

void
ElasticTenancyManager::pollDrain(VssdId id)
{
    if (PowerLossInjector *p = vssds_.device().powerLoss()) {
        p->notifyPhase(CrashPhase::kChurnDrain);
        if (p->crashed())
            return;  // resumeAfterCrash restarts the drain
    }
    if (sched_.tenantQuiesced(id)) {
        teardown(id);
        return;
    }
    eq_.scheduleAfter(cfg_.drain_poll, [this, id]() { pollDrain(id); });
}

void
ElasticTenancyManager::teardown(VssdId id)
{
    Vssd *v = vssds_.get(id);
    assert(v != nullptr && sched_.tenantQuiesced(id));

    // Harvester side: every gSB lease this tenant holds is force-
    // released; donors' bandwidth starts recovering immediately.
    gsb_.forceReleaseHeld(id);
    // Donor side: every gSB this tenant donated is destroyed (pool) or
    // lazily reclaimed (in use), detaching harvesters' write paths.
    gsb_.retireDonor(id);
    // Half-torn crash window (satellite 3): leases are gone but the
    // tenant is still alive-and-retiring. Recovery resumes the drain,
    // which re-runs this teardown to completion (the gSB calls above
    // are no-ops the second time) — never a half-removed tenant.
    if (PowerLossInjector *p = vssds_.device().powerLoss()) {
        p->notifyPhase(CrashPhase::kChurnTeardown);
        if (p->crashed())
            return;
    }
    // Agent retirement: out of the supervisor, controller, and state
    // extractor before the data path disappears.
    if (ctrl_ != nullptr)
        ctrl_->removeVssd(id);
    // Data path: trim all mappings (deallocate also flags the slot
    // inactive and requests reclaim) and close/release open write
    // points so GC can reach every remaining block.
    vssds_.deallocate(id);
    v->ftl().releaseOpenPoints();
    // Scheduler state: drop rate/tier shaping for the dead id.
    sched_.setRateLimit(id, 0.0, 0.0);
    sched_.setTierLimit(id, 0.0, 0.0);
    known_.erase(std::remove_if(known_.begin(), known_.end(),
                                [id](const KnownTenant &k) {
                                    return k.id == id;
                                }),
                 known_.end());
    scrubbing_.push_back(id);
    pollScrub(id);
}

void
ElasticTenancyManager::pollScrub(VssdId id)
{
    if (PowerLossInjector *p = vssds_.device().powerLoss()) {
        p->notifyPhase(CrashPhase::kChurnScrub);
        if (p->crashed())
            return;  // resumeAfterCrash restarts the scrub
    }
    Vssd *v = vssds_.get(id);
    assert(v != nullptr);
    if (v->ftl().blocksUsed() == 0 && !gsb_.hasGsbsForHome(id)) {
        // Fully scrubbed: no block on the device belongs to the
        // tenant and no gSB references it — the invariant behind the
        // "no event targets a removed vSSD" audit. Only now do the
        // channels return to the free pool for future arrivals.
        assert(sched_.tenantQuiesced(id));
        ledger_.release(id);
        scrubbing_.erase(std::remove(scrubbing_.begin(),
                                     scrubbing_.end(), id),
                         scrubbing_.end());
        --removals_in_flight_;
        ++stats_.removals_completed;
        return;
    }
    // GcEngine clears its reclaim request once the HBT drains even if
    // trimmed blocks remain, so re-assert it on every poll — this is
    // what pushes a retired tenant's quota all the way to zero.
    v->gc().requestReclaim();
    eq_.scheduleAfter(cfg_.scrub_poll, [this, id]() { pollScrub(id); });
}

void
ElasticTenancyManager::resumeAfterCrash()
{
    // Scrub-phase removals: the tenant is already deallocated; resume
    // polling until every block drains and the ledger releases the
    // channels. Copy the list — a poll that completes synchronously
    // erases its entry.
    const std::vector<VssdId> scrubs = scrubbing_;
    for (VssdId id : scrubs)
        pollScrub(id);
    // Drain-phase removals: still alive-and-retiring. The workload
    // stays stopped (the harness re-arms only non-retiring tenants),
    // so the drain converges and re-runs the teardown.
    for (Vssd *v : vssds_.active()) {
        if (v->retiring())
            pollDrain(v->id());
    }
    // The pressure loop's tick died with the event queue.
    running_ = false;
    start();
}

void
ElasticTenancyManager::start()
{
    if (running_ || cfg_.pressure_interval <= 0)
        return;
    running_ = true;
    eq_.scheduleAfter(cfg_.pressure_interval, [this]() {
        if (!running_)
            return;
        evaluatePressure();
        running_ = false;
        start();
    });
}

int
ElasticTenancyManager::targetLevel(double mean_slo,
                                   double free_ratio) const
{
    int level = 0;
    if (mean_slo >= cfg_.degrade_slo_1 ||
        free_ratio < cfg_.degrade_free_ratio ||
        (queued_ > 0 && ledger_.freeChannels() == 0)) {
        level = 1;
    }
    if (mean_slo >= cfg_.degrade_slo_2 ||
        free_ratio < cfg_.degrade_free_ratio * 0.5) {
        level = 2;
    }
    if (mean_slo >= cfg_.degrade_slo_3 ||
        free_ratio < cfg_.degrade_free_ratio * 0.25) {
        level = 3;
    }
    return level;
}

void
ElasticTenancyManager::evaluatePressure()
{
    // Feed the learned demand forecaster from what running tenants
    // actually draw (per class), so admission decisions improve as the
    // fleet observes more of each workload kind.
    const SimTime win = cfg_.pressure_interval;
    for (const KnownTenant &k : known_) {
        if (!vssds_.alive(k.id))
            continue;
        const Vssd *v = vssds_.get(k.id);
        admission_.observeDemand(k.demand_class,
                                 v->bandwidth().windowMBps(win));
    }

    const AdmissionSnapshot s = snapshot();
    const int target = targetLevel(s.mean_slo_violation,
                                   s.device_free_ratio);
    if (target > level_) {
        // Degrade one level per evaluation: deterministic, gradual.
        ++level_;
        ++stats_.tier_stepdowns;
        calm_evals_ = 0;
        applyFloors();
    } else if (target < level_) {
        // Recover only after recover_evals consecutive calm
        // evaluations (hysteresis against threshold flapping).
        if (++calm_evals_ >= cfg_.recover_evals) {
            --level_;
            ++stats_.tier_recoveries;
            calm_evals_ = 0;
            applyFloors();
        }
    } else {
        calm_evals_ = 0;
    }
}

void
ElasticTenancyManager::applyTierLimit(Vssd &v)
{
    const QosTierSpec &spec = qosTierSpec(v.effectiveTier());
    if (spec.bw_fraction <= 0.0) {
        sched_.setTierLimit(v.id(), 0.0, 0.0);
        return;
    }
    const double guar_mbps =
        v.guaranteedBandwidthMBps(vssds_.device().geometry());
    const double rate = spec.bw_fraction * guar_mbps * 1e6;
    // Burst: ~10 ms of the capped rate, floored at one 2 MB superblock
    // stripe so tiny tenants still make progress.
    const double burst = std::max(rate * 0.01, double(2u << 20));
    sched_.setTierLimit(v.id(), rate, burst);
}

void
ElasticTenancyManager::applyFloors()
{
    // Deterministic degradation order: tenants sorted by arrival
    // (VssdId is dense in creation order), newest degraded first.
    // Level L floors the newest ceil(L/4 * n) tenants at G(L).
    std::vector<Vssd *> active = vssds_.active();
    std::sort(active.begin(), active.end(),
              [](const Vssd *a, const Vssd *b) {
                  return a->id() < b->id();
              });
    const std::size_t n = active.size();
    const std::size_t floored =
        level_ > 0 ? (n * std::size_t(level_) + 3) / 4 : 0;
    for (std::size_t i = 0; i < n; ++i) {
        Vssd &v = *active[i];
        const bool degrade = n - i <= floored;  // newest k tenants
        const QosTier floor =
            degrade ? QosTier(level_) : QosTier::kG0;
        if (v.tierFloor() == floor)
            continue;
        v.setTierFloor(floor);
        applyTierLimit(v);
        // Guaranteed-only tiers (G2+) also surrender harvested
        // capacity: leases are force-released so donors recover.
        if (std::uint8_t(floor) >= std::uint8_t(QosTier::kG2))
            gsb_.forceReleaseHeld(v.id());
    }
}

}  // namespace fleetio
