/**
 * @file
 * FleetIO framework configuration — the RL-side half of paper Table 3
 * plus action-space and admission-control knobs.
 */
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/rl/ppo.h"
#include "src/sim/types.h"

namespace fleetio {

/** Unified reward alpha for unclassified workloads (§3.4). */
inline constexpr double kUnifiedAlpha = 0.01;

/** Fine-tuned reward alphas per cluster (§3.8): LC-1, LC-2, BI. */
inline constexpr double kAlphaLc1 = 2.5e-2;
inline constexpr double kAlphaLc2 = 5e-3;
inline constexpr double kAlphaBi = 0.0;

/** Guaranteed SLO-violation budget (Eq. 1 denominator; §3.3.3: 1 %). */
inline constexpr double kSloVioGuar = 0.01;
static_assert(kSloVioGuar > 0.0 && kSloVioGuar < 1.0,
              "the SLO-violation budget is a fraction in (0, 1)");

/** Pick the fine-tuned alpha for a learned cluster id (0..2), or the
 *  unified alpha for unknown (-1). */
double alphaForCluster(int cluster);

/**
 * Tunables of the per-agent watchdog (see src/core/agent_supervisor.h
 * and DESIGN.md §8). Defaults are deliberately conservative: a healthy
 * training run never trips, so supervised and unsupervised runs are
 * action-for-action identical until something actually diverges.
 */
struct SupervisorConfig
{
    /** Master switch; disabled reproduces the pre-supervision loop. */
    bool enabled = true;

    /** Policy entropy (nats, summed over heads) below this for
     *  entropy_windows consecutive windows trips entropy collapse. */
    double entropy_floor = 0.01;
    int entropy_windows = 8;

    /** Consecutive windows with an SLO-violation fraction at or above
     *  the 95 % trip level that trip the SLO check. */
    int slo_streak_windows = 40;

    /** Decision windows a quarantined agent runs the deterministic
     *  fallback before learning is re-enabled. */
    int probation_windows = 10;

    /** In-memory last-good snapshot cadence (decision windows). */
    int snapshot_interval_windows = 20;

    /** Consecutive trips handled by checkpoint restore before the
     *  agent is reinitialized to its initial weights instead. */
    int max_restores = 2;

    /** @return empty string when valid, else the first problem. */
    std::string validate() const;
};

/** Tunables of the FleetIO RL framework. */
struct FleetIoConfig
{
    /** RL decision interval (Table 3: 2 s). */
    SimTime decision_window = sec(2);

    /** Windows stacked into one RL state (§3.3.1: three). */
    int state_stack = 3;

    /** Multi-agent reward blend (Eq. 2; Table 3: 0.6). */
    double beta = 0.6;

    /**
     * Discrete bandwidth levels (MB/s) for the Harvest and
     * Make_Harvestable heads. Defaults cover 0-8 channels of 64 MB/s
     * in steps of two.
     */
    std::vector<double> harvest_bw_levels = {0, 128, 256, 384, 512};
    std::vector<double> harvestable_bw_levels = {0, 128, 256, 384, 512};

    /** Admission-control batching interval (§3.5: 50 ms). */
    SimTime admission_batch = msec(50);

    /**
     * Bootstrap phase: for the first N decision windows the controller
     * executes the heuristic teacher (§3.3.2's action guidance) and
     * behaviour-clones it into each agent — our stand-in for the
     * paper's offline pre-training on out-of-evaluation workloads —
     * before switching to on-policy PPO fine-tuning.
     */
    int teacher_windows = 0;

    /** PPO hyper-parameters (Table 3: lr 1e-4, gamma 0.9, batch 32). */
    rl::PpoTrainer::Config ppo{};

    /** Agent watchdog / quarantine knobs (DESIGN.md §8). */
    SupervisorConfig supervisor{};

    /** RL states tracked per window (Table 1's nine + two shared). */
    static constexpr std::size_t kStatesPerWindow = 11;

    /** Dimension of the stacked state vector. */
    std::size_t stateDim() const
    {
        return kStatesPerWindow * std::size_t(state_stack);
    }

    /**
     * Sanity-check the configuration. @return an empty string when
     * valid, otherwise a description of the first problem found. The
     * controller calls this at setup and refuses to run on a bad
     * config (an empty bandwidth-level list, say, would leave an
     * action head with no choices).
     */
    std::string validate() const;
};

}  // namespace fleetio
