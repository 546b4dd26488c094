/**
 * @file
 * Actor-critic network for a FleetIO agent: a shared tanh MLP trunk
 * (hidden [50, 50], Table 3) with factored categorical action heads —
 * Harvest level, Make_Harvestable level, Set_Priority level — and a
 * scalar value head.
 */
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "src/rl/categorical.h"
#include "src/rl/matrix.h"
#include "src/rl/mlp.h"
#include "src/sim/rng.h"

namespace fleetio::rl {

/** Sizes of the factored discrete action heads. */
struct ActionSpec
{
    /** e.g. {5, 5, 3}: harvest levels, make-harvestable levels,
     *  priority levels. */
    std::vector<std::size_t> head_sizes;

    std::size_t numHeads() const { return head_sizes.size(); }
};

/**
 * The policy + value network.
 *
 * The joint action distribution factorizes over heads:
 * log P(a) = sum_i log P_i(a_i). backward() must be called directly
 * after act()/evaluate() on the same state — it consumes the cached
 * activations and head distributions of that forward pass. Every
 * buffer a pass needs is a member sized at construction, so evaluate()
 * and backward() allocate nothing (act() only its result's actions).
 */
class PolicyNetwork
{
  public:
    struct ActResult
    {
        std::vector<std::size_t> actions;
        double log_prob = 0.0;
        double value = 0.0;
        double entropy = 0.0;  ///< summed over heads (watchdog signal)
    };

    struct Eval
    {
        double log_prob = 0.0;
        double entropy = 0.0;
        double value = 0.0;
    };

    PolicyNetwork(std::size_t state_dim, const ActionSpec &spec,
                  const std::vector<std::size_t> &hidden,
                  std::uint64_t seed);

    std::size_t stateDim() const { return state_dim_; }
    const ActionSpec &actionSpec() const { return spec_; }
    std::size_t numParams() const { return store_.size(); }

    /** Sample (or greedily pick) an action for @p state. */
    ActResult act(const Vector &state, Rng &rng,
                  bool deterministic = false);

    /** Log-prob/entropy/value of @p actions under the current policy.
     *  Caches activations for a following backward(). */
    Eval evaluate(const Vector &state,
                  const std::vector<std::size_t> &actions);

    /**
     * Accumulate gradients of
     *   L = dlogp * logP(a) + dentropy * H + dvalue * V
     * into the parameter store. @pre the immediately preceding forward
     * (act or evaluate) used the same @p state and @p actions.
     */
    void backward(const std::vector<std::size_t> &actions, double dlogp,
                  double dentropy, double dvalue);

    /** Logits of head @p head from the latest act() or evaluate(). */
    const Vector &logits(std::size_t head) const { return logits_[head]; }

    ParameterStore &params() { return store_; }
    const ParameterStore &params() const { return store_; }

    bool save(const std::string &path) const
    {
        return store_.saveToFile(path);
    }
    bool load(const std::string &path)
    {
        return store_.loadFromFile(path);
    }

    /** Copy parameter values from another identically-shaped network. */
    void copyParamsFrom(const PolicyNetwork &other);

  private:
    /** Trunk, heads and value head on @p state; refills dists_. */
    void forward(const Vector &state);

    std::size_t state_dim_;
    ActionSpec spec_;
    ParameterStore store_;
    Rng init_rng_;
    Mlp trunk_;
    std::vector<Linear> heads_;
    Linear value_head_;

    // Forward caches: each head's logits and distribution, the value.
    std::vector<Vector> logits_;
    std::vector<Categorical> dists_;
    double value_ = 0.0;
    // Backward workspaces: dL/dlogits of one head (widest head), dL/dx
    // of one head, and their sum over heads (trunk output width).
    Vector dlogits_;
    Vector dx_;
    Vector d_trunk_;
};

}  // namespace fleetio::rl
