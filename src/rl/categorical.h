/**
 * @file
 * Categorical (softmax) distribution used by the factored discrete
 * action heads. This is the only softmax / entropy code in the RL
 * library.
 */
#pragma once

#include <cstddef>
#include <span>

#include "src/rl/matrix.h"
#include "src/sim/rng.h"

namespace fleetio::rl {

/**
 * A categorical distribution over k classes parameterized by logits.
 * setLogits() computes the probabilities, log-probabilities and entropy
 * once, into storage the object owns and reuses, so a network can keep
 * one per head and refill it on every forward pass without allocating.
 */
class Categorical
{
  public:
    explicit Categorical(std::span<const double> logits)
    {
        setLogits(logits);
    }

    /** Recompute the distribution for @p logits (numerically stable). */
    void setLogits(std::span<const double> logits);

    const Vector &probs() const { return probs_; }

    /** Draw a class index. */
    std::size_t sample(Rng &rng) const;

    /** Most probable class (greedy / deterministic evaluation). */
    std::size_t argmax() const;

    /** log P(a). */
    double logProb(std::size_t a) const;

    /** Shannon entropy in nats. */
    double entropy() const { return entropy_; }

    /**
     * Gradient of log P(a) w.r.t. the logits, onehot(a) - probs,
     * scaled by @p coeff, written into @p g.
     */
    void logProbGradLogits(std::size_t a, double coeff,
                           std::span<double> g) const;

    /**
     * Gradient of the entropy w.r.t. the logits,
     * -probs * (logprobs + H), scaled by @p coeff, added into @p g.
     */
    void addEntropyGradLogits(double coeff, std::span<double> g) const;

  private:
    Vector probs_;
    Vector log_probs_;
    double entropy_ = 0.0;
};

}  // namespace fleetio::rl
