/**
 * @file
 * Per-agent watchdog and quarantine (DESIGN.md §8): every decision
 * window each agent's learning state and outputs are checked for
 * divergence — non-finite parameters or logits, policy-entropy
 * collapse, reward blow-up, or a long consecutive-SLO-violation streak.
 * A tripped agent is quarantined: its last-good in-memory checkpoint is
 * restored (or, after repeated trips, the agent is reinitialized to its
 * initial weights), every harvest lease it holds is force-released back
 * through the GsbManager so donors recover bandwidth, and the vSSD is
 * driven by a deterministic SoftwareIsolation-style fallback action
 * (no harvesting, no donating, medium priority) for a probation window
 * before learning is re-enabled.
 */
#pragma once

#include <cstdint>
#include <vector>

#include "src/core/agent.h"
#include "src/core/config.h"
#include "src/harvest/gsb_manager.h"
#include "src/rl/checkpoint.h"
#include "src/virt/vssd.h"

namespace fleetio {

/** Aggregate supervision telemetry (ExperimentResult / JSON). */
struct SupervisionStats
{
    std::uint64_t trips = 0;             ///< watchdog activations
    std::uint64_t restores = 0;          ///< last-good restores
    std::uint64_t reinits = 0;           ///< resets to initial weights
    std::uint64_t fallback_windows = 0;  ///< windows on the fallback
    std::uint64_t lease_releases = 0;    ///< channels force-released
    std::uint64_t snapshots = 0;         ///< in-memory snapshots taken
    std::uint64_t grad_skips = 0;        ///< PPO non-finite-grad skips
    std::uint64_t disk_checkpoints = 0;  ///< periodic on-disk saves

    /** Drift-monitor flags (obs::DriftMonitor, DESIGN.md §13).
     *  Informational only: drift is a distribution shift, not a
     *  divergence, so it never counts toward total() and never trips
     *  the quarantine machinery. */
    std::uint64_t drift_flags = 0;

    std::uint64_t total() const
    {
        return trips + restores + reinits + fallback_windows +
               lease_releases + grad_skips;
    }
};

/**
 * The watchdog. The controller routes every learned decision through
 * decide(); healthy agents pass through bit-identically (no extra RNG
 * draws), diverged agents are quarantined and their vSSD degrades
 * gracefully to deterministic isolation-level behaviour instead of
 * starving collocated tenants.
 */
class AgentSupervisor
{
  public:
    enum class AgentState { kHealthy, kProbation };

    /** What tripped the watchdog (telemetry / tests). */
    enum class TripReason {
        kNone,
        kNonFiniteParams,
        kNonFiniteDecision,
        kEntropyCollapse,
        kRewardDivergence,
        kSloStreak,
        kCrashRecovery,  ///< probation imposed after power loss
    };

    /** |blended reward| above this trips the reward-divergence check
     *  (healthy Eq. 1/Eq. 2 rewards live in single digits). */
    static constexpr double kRewardLimit = 1e3;

    AgentSupervisor(const SupervisorConfig &cfg, GsbManager &gsb);

    /**
     * Register an agent under supervision. Captures its pristine
     * initial weights (the reinitialization target) and a first
     * last-good snapshot.
     */
    void attach(FleetIoAgent &agent, Vssd &vssd);

    /**
     * Drop an agent from supervision (tenant retirement). The agent
     * and vSSD pointers become invalid after the controller destroys
     * the Managed entry, so this must run before removal completes.
     * @return true when an entry was removed.
     */
    bool detach(VssdId id);

    /**
     * Supervised replacement for agent.decide(): run the divergence
     * checks against this window's @p reward and @p window_slo_vio,
     * quarantine on a trip, and return either the agent's learned
     * action or the deterministic fallback.
     */
    AgentAction decide(VssdId id, const rl::Vector &state, double reward,
                       double window_slo_vio);

    /**
     * The global training switch (mirrors
     * FleetIoController::setTraining). Applied immediately to healthy
     * agents; quarantined agents pick it up when probation ends so a
     * re-enable cannot resurrect learning mid-quarantine.
     */
    void setTrainingEnabled(bool on);

    AgentState state(VssdId id) const;
    TripReason lastTripReason(VssdId id) const;

    /**
     * Crash recovery (DESIGN.md §12): place an agent on probation
     * without a restore — the controller already reloaded it from its
     * on-disk CheckpointStore, which may lag the pre-crash weights by
     * up to one checkpoint interval, so it drives the deterministic
     * fallback for a probation period before learning resumes. Leases
     * are reconciled by the recovery manager, not here.
     * @return false when the id is not under supervision.
     */
    bool imposeProbation(VssdId id);

    /** The deterministic quarantine action: release/keep nothing
     *  harvested, donate nothing, medium priority — the
     *  SoftwareIsolation stance expressed in the action space. */
    static AgentAction fallbackAction();

    /**
     * An external drift monitor flagged @p id's action distribution
     * this window. Recorded as telemetry only — no restore, no
     * probation: drifting with a shifted workload is often the correct
     * behaviour, so the signal is surfaced, not acted on.
     */
    void noteDrift(VssdId id);

    /** Aggregated counters, including per-trainer grad-skip totals. */
    SupervisionStats stats() const;

    std::size_t numAttached() const { return entries_.size(); }

  private:
    struct Entry
    {
        FleetIoAgent *agent = nullptr;
        Vssd *vssd = nullptr;
        AgentState state = AgentState::kHealthy;
        TripReason last_reason = TripReason::kNone;
        rl::AgentCheckpoint initial;    ///< reinit target
        rl::AgentCheckpoint last_good;  ///< restore target
        int probation_left = 0;
        int entropy_streak = 0;
        int slo_streak = 0;
        int trips_since_good = 0;  ///< restore-vs-reinit decision
        std::uint64_t windows = 0; ///< supervised windows seen
    };

    Entry *find(VssdId id);
    const Entry *find(VssdId id) const;
    TripReason preDecideCheck(const Entry &e, double reward) const;
    void quarantine(Entry &e, TripReason reason);
    void maybeSnapshot(Entry &e);

    SupervisorConfig cfg_;
    GsbManager &gsb_;
    std::vector<Entry> entries_;
    SupervisionStats stats_;
    bool training_enabled_ = true;
};

}  // namespace fleetio
