/**
 * @file
 * One FleetIO RL agent: a PPO-trained policy deployed in a vSSD
 * (paper §3.2 — one agent per vSSD, acting independently).
 */
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/core/action.h"
#include "src/rl/adam.h"
#include "src/core/config.h"
#include "src/rl/checkpoint.h"
#include "src/rl/policy_network.h"
#include "src/rl/ppo.h"
#include "src/rl/rollout_buffer.h"
#include "src/sim/rng.h"
#include "src/sim/types.h"

namespace fleetio {

/**
 * Per-vSSD agent: policy network + PPO trainer + rollout buffer + the
 * workload-type-specific reward alpha.
 *
 * Interaction protocol per decision window:
 *   1. completeTransition(reward) — credit the previous action;
 *   2. decide(state) — sample this window's action (caches the pending
 *      transition).
 * train() runs a PPO update once enough transitions accumulated.
 */
class FleetIoAgent
{
  public:
    FleetIoAgent(VssdId vssd, const FleetIoConfig &cfg,
                 std::uint64_t seed);

    VssdId vssd() const { return vssd_; }

    /** Reward trade-off coefficient (fine-tuned per workload type). */
    double alpha() const { return alpha_; }
    void setAlpha(double alpha) { alpha_ = alpha; }

    /** Freeze/unfreeze learning (deployment vs pre-training). */
    void setTraining(bool on) { training_ = on; }
    bool training() const { return training_; }

    /** Use argmax actions instead of sampling. */
    void setDeterministic(bool on) { deterministic_ = on; }

    /** Sample an action for @p state and cache the pending transition. */
    AgentAction decide(const rl::Vector &state);

    /**
     * Credit @p reward to the pending transition and move it into the
     * rollout buffer. No-op when nothing is pending or not training.
     */
    void completeTransition(double reward);

    /**
     * PPO update bootstrap-valued with @p bootstrap_state; clears the
     * rollout. No-op unless training and at least one minibatch of
     * transitions is stored.
     */
    rl::PpoTrainer::Stats train(const rl::Vector &bootstrap_state);

    /**
     * Behaviour-cloning step: push one (state, expert action, value
     * target) sample; every config().ppo.minibatch samples an Adam
     * update maximizes the expert action's log-probability and
     * regresses the value head toward @p value_target.
     */
    void imitate(const rl::Vector &state,
                 const std::vector<std::size_t> &actions,
                 double value_target);

    /** Transitions waiting for the next update. */
    std::size_t rolloutSize() const { return rollout_.size(); }

    rl::PolicyNetwork &policy() { return net_; }
    const rl::PolicyNetwork &policy() const { return net_; }
    const ActionMapper &mapper() const { return mapper_; }
    const rl::PpoTrainer &trainer() const { return trainer_; }

    /** Diagnostics of the most recent decide() (watchdog signals). */
    double lastEntropy() const { return last_entropy_; }
    double lastLogProb() const { return last_log_prob_; }
    double lastValue() const { return last_value_; }

    /**
     * Capture the full learning state (weights, Adam moments, alpha,
     * step counters) for checkpointing.
     */
    rl::AgentCheckpoint snapshot() const;

    /**
     * Restore a previously captured state. Rejects checkpoints whose
     * shapes disagree with this agent or that hold non-finite values;
     * on rejection the live state is untouched. A successful restore
     * also drops the rollout and any pending transition (experience
     * gathered under the discarded weights is off-policy garbage).
     */
    bool restore(const rl::AgentCheckpoint &ckpt);

    /** Drop the rollout buffer and any pending transition. */
    void resetEpisode();

    bool savePolicy(const std::string &path) const
    {
        return net_.save(path);
    }
    bool loadPolicy(const std::string &path) { return net_.load(path); }

    /** Lifetime decisions made (telemetry). */
    std::uint64_t decisions() const { return decisions_; }

  private:
    VssdId vssd_;
    const FleetIoConfig &cfg_;
    ActionMapper mapper_;
    rl::PolicyNetwork net_;
    rl::PpoTrainer trainer_;
    rl::RolloutBuffer rollout_;
    Rng rng_;
    // Cloning replay: one flat row per sample, its state, its actions
    // (as doubles) and its value target.
    std::vector<double> bc_rows_;
    std::size_t bc_write_ = 0;
    std::unique_ptr<rl::Adam> bc_opt_;

    double alpha_;
    bool training_ = true;
    bool deterministic_ = false;

    bool has_pending_ = false;
    rl::Transition pending_;
    std::uint64_t decisions_ = 0;
    double last_entropy_ = 0.0;
    double last_log_prob_ = 0.0;
    double last_value_ = 0.0;
};

}  // namespace fleetio
