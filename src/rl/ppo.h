/**
 * @file
 * Proximal Policy Optimization (Schulman et al. 2017) — the algorithm
 * FleetIO trains its per-vSSD agents with (paper §3.8).
 */
#pragma once

#include <cstdint>

#include "src/rl/adam.h"
#include "src/rl/policy_network.h"
#include "src/rl/rollout_buffer.h"
#include "src/sim/rng.h"

namespace fleetio::rl {

/**
 * Clipped-surrogate PPO over a PolicyNetwork. Hyper-parameters default
 * to the paper's Table 3 (lr 1e-4, gamma 0.9, minibatch 32). Each
 * minibatch runs as one block through the network.
 */
class PpoTrainer
{
  public:
    struct Config
    {
        double gamma = 0.9;
        double gae_lambda = 0.95;
        double clip = 0.2;
        double ent_coef = 0.01;
        int epochs = 4;
        std::size_t minibatch = 32;
        std::uint64_t seed = 42;
        Adam::Config adam{};
    };

    struct Stats
    {
        double policy_loss = 0.0;
        double value_loss = 0.0;
        double entropy = 0.0;
        double approx_kl = 0.0;
        std::size_t samples = 0;
    };

    explicit PpoTrainer(PolicyNetwork &net);
    PpoTrainer(PolicyNetwork &net, const Config &cfg);

    const Config &config() const { return cfg_; }

    /**
     * Run one PPO update over @p rollout. Computes GAE internally with
     * @p last_value as the bootstrap, then config().epochs passes of
     * shuffled minibatches.
     */
    Stats update(RolloutBuffer &rollout, double last_value);

    /** Total optimizer steps taken (telemetry). */
    std::uint64_t optimizerSteps() const { return opt_.t(); }

    /**
     * Minibatch steps skipped because the accumulated gradient held a
     * NaN/inf (the update is dropped instead of corrupting weights;
     * the supervisor surfaces this counter).
     */
    std::uint64_t skippedUpdates() const { return skipped_updates_; }

    /** The optimizer (checkpoint capture/restore). */
    Adam &optimizer() { return opt_; }
    const Adam &optimizer() const { return opt_; }

    /** The minibatch-shuffle RNG (checkpoint capture/restore). */
    Rng &shuffleRng() { return rng_; }
    const Rng &shuffleRng() const { return rng_; }

  private:
    PolicyNetwork &net_;
    Config cfg_;
    Adam opt_;
    Rng rng_;
    std::uint64_t skipped_updates_ = 0;
};

}  // namespace fleetio::rl
