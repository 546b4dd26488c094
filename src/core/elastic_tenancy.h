/**
 * @file
 * Elastic multi-tenancy under churn (DESIGN.md §11): the manager that
 * composes hot vSSD add/remove, tenant-level admission control, and
 * SLO-tiered graceful degradation.
 *
 *  - Arrivals go through a TenantAdmissionController (accept / queue
 *    with bounded exponential backoff / reject); accepted tenants get
 *    channels carved online from a ChannelLedger and are provisioned
 *    through a harness-supplied callback, with their RL agent
 *    bootstrapped mid-run from the teacher policy.
 *  - Removals run a drain-then-reclaim state machine: the workload is
 *    stopped, in-flight I/O drains, gSB leases are force-released
 *    (harvester side) and retired (donor side), the agent is detached
 *    from controller and supervisor, the FTL is trimmed, and a scrub
 *    phase keeps the tenant's GC asserted until every block is back in
 *    the free pool — only then do the channels return to the ledger.
 *  - A periodic pressure loop steps tenants down discrete G-states
 *    (newest tenants first) under fault pressure or admission
 *    overload, and back up with hysteresis once pressure clears.
 *
 * Nothing here runs unless a Testbed configures churn: static runs
 * never construct this class, preserving byte-identical output.
 */
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "src/core/tenant_admission.h"
#include "src/harvest/gsb_manager.h"
#include "src/sim/event_queue.h"
#include "src/sim/types.h"
#include "src/virt/channel_allocator.h"
#include "src/virt/io_scheduler.h"
#include "src/virt/qos_tier.h"
#include "src/virt/vssd.h"

namespace fleetio {

class FleetIoController;

/** Knobs of the elastic layer (admission + degradation). */
struct ElasticTenancyConfig
{
    TenantAdmissionConfig admission{};

    /** Cadence of the pressure/degradation evaluation loop. Benches
     *  set this to the decision window. 0 disables the loop. */
    SimTime pressure_interval = msec(100);

    /** Mean window SLO-violation fractions that demand degradation
     *  levels 1 / 2 / 3. */
    double degrade_slo_1 = 0.25;
    double degrade_slo_2 = 0.50;
    double degrade_slo_3 = 0.75;

    /** Consecutive calm evaluations before stepping one level back up
     *  (hysteresis: recovery is slower than degradation). */
    int recover_evals = 3;

    /** @return empty string when valid, else the first problem. */
    std::string validate() const;
};

/** Churn counters surfaced into ExperimentResult / bench verdicts. */
struct ChurnStats
{
    std::uint64_t arrivals = 0;            ///< submitArrival calls
    std::uint64_t admitted = 0;            ///< tenants provisioned
    std::uint64_t retries = 0;             ///< backoff retries fired
    std::uint64_t rejected = 0;            ///< arrivals turned away
    std::uint64_t removals_requested = 0;  ///< requestRemoval calls
    std::uint64_t removals_completed = 0;  ///< scrub finished, channels freed
    std::uint64_t tier_stepdowns = 0;      ///< floors pushed one level down
    std::uint64_t tier_recoveries = 0;     ///< floors lifted one level up
    int max_attempts_observed = 0;         ///< worst admission attempt count
};

/**
 * The elastic-tenancy manager. One per Testbed, created only when a
 * churn schedule is configured. One thread uses a manager at a time,
 * like the testbed that owns it; it has no locks.
 */
class ElasticTenancyManager
{
  public:
    /**
     * Harness callback that actually provisions an admitted tenant
     * (creates the vSSD on the carved channels, the workload, and the
     * agent). Returns the new VssdId.
     */
    using ProvisionFn = std::function<VssdId(
        const TenantDemand &, const std::vector<ChannelId> &)>;

    /** Harness callback that quiesces a departing tenant's workload
     *  (stop generating I/O) at the start of the drain phase. */
    using RetireFn = std::function<void(VssdId)>;

    /** @throws std::invalid_argument when @p cfg fails validate(). */
    ElasticTenancyManager(const ElasticTenancyConfig &cfg, EventQueue &eq,
                          VssdManager &vssds, GsbManager &gsb,
                          IoScheduler &sched);

    void setProvisioner(ProvisionFn fn) { provision_ = std::move(fn); }
    void setRetirer(RetireFn fn) { retire_ = std::move(fn); }

    /**
     * Attach the RL controller: removals then retire agents via
     * FleetIoController::removeVssd, and a permission policy is
     * installed on the controller's action-level AdmissionControl that
     * rejects Harvest actions from tenants whose G-state forbids
     * harvesting and any action from retiring/removed tenants.
     * Pass nullptr for non-RL policies.
     */
    void attachController(FleetIoController *ctrl);

    /** Record the static startup layout in the channel ledger. */
    void claimStatic(VssdId owner, const std::vector<ChannelId> &chs)
    {
        ledger_.claim(owner, chs);
    }

    /** Map a tenant to a demand-forecast class (feeds the learned
     *  per-class EWMA from its observed bandwidth). */
    void registerTenantClass(VssdId id, int demand_class);

    /**
     * An arriving tenant. Decided immediately: provisioned, queued for
     * backoff retry, or rejected.
     */
    void submitArrival(const TenantDemand &demand);

    /** Begin drain-then-reclaim retirement of @p id. */
    void requestRemoval(VssdId id);

    /** Start the periodic pressure/degradation loop. */
    void start();
    void stop() { running_ = false; }

    /**
     * Re-arm after a power loss (DESIGN.md §12): the drain/scrub polls
     * and the pressure loop died with the event queue, but the manager
     * itself (controller-DRAM state) survives. Scrub-phase removals
     * resume from the scrubbing ledger; drain-phase tenants are still
     * alive-and-retiring and resume the drain; the pressure loop
     * restarts. Idempotent with respect to completed removals.
     */
    void resumeAfterCrash();

    // --- Queries (tests / benches) ---------------------------------------
    std::size_t queuedArrivals() const { return queued_; }
    std::size_t removalsInFlight() const { return removals_in_flight_; }
    int pressureLevel() const { return level_; }
    const ChurnStats &stats() const { return stats_; }
    TenantAdmissionController &admission() { return admission_; }
    ChannelLedger &ledger() { return ledger_; }
    const ElasticTenancyConfig &config() const { return cfg_; }

  private:
    struct KnownTenant
    {
        VssdId id;
        int demand_class;
    };

    AdmissionSnapshot snapshot() const;
    void evaluateArrival(TenantDemand demand, int attempt);
    void pollDrain(VssdId id);
    void teardown(VssdId id);
    void pollScrub(VssdId id);
    void evaluatePressure();
    int targetLevel(double mean_slo, double free_ratio) const;
    void applyFloors();
    void applyTierLimit(Vssd &v);

    ElasticTenancyConfig cfg_;
    EventQueue &eq_;
    VssdManager &vssds_;
    GsbManager &gsb_;
    IoScheduler &sched_;
    ChannelLedger ledger_;
    TenantAdmissionController admission_;
    FleetIoController *ctrl_ = nullptr;
    ProvisionFn provision_;
    RetireFn retire_;

    std::vector<KnownTenant> known_;  ///< class registry, arrival order
    std::vector<VssdId> scrubbing_;   ///< removals past teardown
    std::size_t queued_ = 0;          ///< arrivals awaiting retry
    std::size_t removals_in_flight_ = 0;
    bool running_ = false;

    int level_ = 0;       ///< current degradation level (0..3)
    int calm_evals_ = 0;  ///< consecutive evals below current level
    ChurnStats stats_;
};

}  // namespace fleetio
