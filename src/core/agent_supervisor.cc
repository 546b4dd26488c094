#include "src/core/agent_supervisor.h"

#include <cassert>
#include <cmath>

namespace fleetio {

AgentSupervisor::AgentSupervisor(const SupervisorConfig &cfg,
                                 GsbManager &gsb)
    : cfg_(cfg), gsb_(gsb)
{
}

void
AgentSupervisor::attach(FleetIoAgent &agent, Vssd &vssd)
{
    Entry e;
    e.agent = &agent;
    e.vssd = &vssd;
    // The pristine initial weights double as the reinitialization
    // target and the first last-good snapshot.
    e.initial = agent.snapshot();
    e.last_good = e.initial;
    entries_.push_back(std::move(e));
}

bool
AgentSupervisor::detach(VssdId id)
{
    for (auto it = entries_.begin(); it != entries_.end(); ++it) {
        if (it->vssd->id() == id) {
            entries_.erase(it);
            return true;
        }
    }
    return false;
}

AgentSupervisor::Entry *
AgentSupervisor::find(VssdId id)
{
    for (auto &e : entries_) {
        if (e.vssd->id() == id)
            return &e;
    }
    return nullptr;
}

const AgentSupervisor::Entry *
AgentSupervisor::find(VssdId id) const
{
    for (const auto &e : entries_) {
        if (e.vssd->id() == id)
            return &e;
    }
    return nullptr;
}

AgentAction
AgentSupervisor::fallbackAction()
{
    // SoftwareIsolation expressed in the action space: live off the
    // guaranteed channel allocation, lend and borrow nothing. Routed
    // through the normal admission path, a zero Harvest/
    // Make_Harvestable target also reconciles away any lingering
    // donations of the quarantined tenant.
    AgentAction a;
    a.harvest_bw_mbps = 0.0;
    a.harvestable_bw_mbps = 0.0;
    a.priority = Priority::kMedium;
    return a;
}

AgentSupervisor::TripReason
AgentSupervisor::preDecideCheck(const Entry &e, double reward) const
{
    // Reward divergence: a blown-up or non-finite blended reward means
    // either the reward pipeline or the value targets are poisoned.
    if (!std::isfinite(reward) || std::abs(reward) > cfg_.reward_limit)
        return TripReason::kRewardDivergence;

    // Non-finite parameters: one NaN weight is terminal for the whole
    // network; catch it before it reaches the logits.
    for (double p : e.agent->policy().params().rawValues()) {
        if (!std::isfinite(p))
            return TripReason::kNonFiniteParams;
    }
    return TripReason::kNone;
}

void
AgentSupervisor::quarantine(Entry &e, TripReason reason)
{
    ++stats_.trips;
    e.last_reason = reason;
    ++e.trips_since_good;
    FLEETIO_TRACE_EVENT(gsb_.device().tracer(),
                        agentTrip(gsb_.device().eventQueue().now(),
                                  e.vssd->id(),
                                  std::uint64_t(reason)));

    // Restore the last-good snapshot, unless this agent keeps tripping
    // without surviving long enough to take a fresh one — then the
    // snapshot lineage itself is suspect and we restart from the
    // initial weights.
    if (e.trips_since_good <= cfg_.max_restores &&
        e.agent->restore(e.last_good)) {
        ++stats_.restores;
    } else {
        const bool ok = e.agent->restore(e.initial);
        assert(ok);
        (void)ok;
        ++stats_.reinits;
    }

    // Force-release every harvest lease so the donors' bandwidth
    // recovers within this decision window, and freeze learning for
    // the probation period.
    stats_.lease_releases += gsb_.forceReleaseHeld(e.vssd->id());
    e.agent->setTraining(false);

    e.state = AgentState::kProbation;
    e.probation_left = cfg_.probation_windows;
    e.entropy_streak = 0;
    e.slo_streak = 0;
}

bool
AgentSupervisor::imposeProbation(VssdId id)
{
    Entry *e = find(id);
    if (e == nullptr)
        return false;
    e->last_reason = TripReason::kCrashRecovery;
    e->agent->setTraining(false);
    e->state = AgentState::kProbation;
    e->probation_left = cfg_.probation_windows;
    e->entropy_streak = 0;
    e->slo_streak = 0;
    return true;
}

void
AgentSupervisor::maybeSnapshot(Entry &e)
{
    if (e.windows % std::uint64_t(cfg_.snapshot_interval_windows) != 0)
        return;
    rl::AgentCheckpoint c = e.agent->snapshot();
    if (!c.wellFormed())
        return;  // never let a poisoned state become "last good"
    e.last_good = std::move(c);
    ++stats_.snapshots;
    // Surviving a full snapshot interval re-arms the restore budget.
    e.trips_since_good = 0;
}

AgentAction
AgentSupervisor::decide(VssdId id, const rl::Vector &state, double reward,
                        double window_slo_vio)
{
    Entry *e = find(id);
    assert(e != nullptr && "decide() for an unattached vSSD");
    if (e == nullptr)
        return fallbackAction();
    ++e->windows;

    if (e->state == AgentState::kProbation) {
        ++stats_.fallback_windows;
        if (--e->probation_left <= 0) {
            // Probation served: re-enable learning (respecting the
            // global switch) and return to full supervision.
            e->state = AgentState::kHealthy;
            e->agent->setTraining(training_enabled_);
        }
        return fallbackAction();
    }

    TripReason reason = preDecideCheck(*e, reward);

    // Consecutive-SLO-violation streak: a policy that pins its tenant
    // at near-total violation for this long is doing worse than the
    // deterministic fallback would.
    if (window_slo_vio >= cfg_.slo_vio_trip)
        ++e->slo_streak;
    else
        e->slo_streak = 0;
    if (reason == TripReason::kNone &&
        e->slo_streak >= cfg_.slo_streak_windows) {
        reason = TripReason::kSloStreak;
    }

    if (reason != TripReason::kNone) {
        quarantine(*e, reason);
        ++stats_.fallback_windows;
        return fallbackAction();
    }

    const AgentAction action = e->agent->decide(state);

    // Post-decide checks on the forward pass itself.
    if (!std::isfinite(e->agent->lastLogProb()) ||
        !std::isfinite(e->agent->lastValue()) ||
        !std::isfinite(e->agent->lastEntropy())) {
        quarantine(*e, TripReason::kNonFiniteDecision);
        ++stats_.fallback_windows;
        return fallbackAction();
    }
    if (e->agent->lastEntropy() <= cfg_.entropy_floor) {
        if (++e->entropy_streak >= cfg_.entropy_windows) {
            quarantine(*e, TripReason::kEntropyCollapse);
            ++stats_.fallback_windows;
            return fallbackAction();
        }
    } else {
        e->entropy_streak = 0;
    }

    maybeSnapshot(*e);
    return action;
}

void
AgentSupervisor::setTrainingEnabled(bool on)
{
    training_enabled_ = on;
    for (auto &e : entries_) {
        // Quarantined agents stay frozen; they adopt the new setting
        // when probation ends.
        if (e.state == AgentState::kHealthy)
            e.agent->setTraining(on);
    }
}

AgentSupervisor::AgentState
AgentSupervisor::state(VssdId id) const
{
    const Entry *e = find(id);
    return e != nullptr ? e->state : AgentState::kHealthy;
}

AgentSupervisor::TripReason
AgentSupervisor::lastTripReason(VssdId id) const
{
    const Entry *e = find(id);
    return e != nullptr ? e->last_reason : TripReason::kNone;
}

void
AgentSupervisor::noteDrift(VssdId id)
{
    if (find(id) != nullptr)
        ++stats_.drift_flags;
}

SupervisionStats
AgentSupervisor::stats() const
{
    SupervisionStats s = stats_;
    for (const auto &e : entries_)
        s.grad_skips += e.agent->trainer().skippedUpdates();
    return s;
}

}  // namespace fleetio
