/**
 * @file
 * Actor-critic network for a FleetIO agent: a shared tanh MLP trunk
 * (hidden [50, 50], Table 3) with factored categorical action heads —
 * Harvest level, Make_Harvestable level, Set_Priority level — and a
 * scalar value head.
 */
#pragma once

#include <cstddef>
#include <span>
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

/** Per-row results of PolicyNetwork::evaluate(). */
struct Eval
{
    double log_prob = 0.0;
    double entropy = 0.0;
    double value = 0.0;
};

/**
 * The rows of one PolicyNetwork::evaluate()/backward() pass: the
 * trainer fills the states and actions, evaluate() writes the evals,
 * the trainer sets the loss coefficients for backward().
 */
struct Minibatch
{
    Vector states;                     ///< row r at r * stateDim()
    std::vector<std::size_t> actions;  ///< row r at r * numHeads()
    std::vector<Eval> evals;
    Vector dlogp, dvalue;
};

/**
 * The policy + value network.
 *
 * The joint action distribution factorizes over heads:
 * log P(a) = sum_i log P_i(a_i). Training runs on the network's
 * minibatch: one evaluate() forwards all its rows, and the backward()
 * right after it consumes that pass's cached activations and head
 * distributions. The minibatch and the row workspaces grow to the
 * largest block asked for and are then reused, so only a block larger
 * than any before allocates, and act() only its result's actions.
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

    PolicyNetwork(std::size_t state_dim, const ActionSpec &spec,
                  const std::vector<std::size_t> &hidden,
                  std::uint64_t seed);

    std::size_t stateDim() const { return state_dim_; }
    std::size_t numHeads() const { return heads_.size(); }
    std::size_t numParams() const { return store_.size(); }

    /** Sample (or greedily pick) an action for @p state. */
    ActResult act(const Vector &state, Rng &rng,
                  bool deterministic = false);

    /** Value estimate of @p state (a one-row forward). */
    double value(const Vector &state);

    /** The minibatch, with room for at least @p rows rows. */
    Minibatch &minibatch(std::size_t rows);

    /**
     * Forward the first @p rows rows of the minibatch: writes each
     * row's log-prob of its actions, entropy and value into its evals,
     * and caches the activations for a following backward().
     */
    void evaluate(std::size_t rows);

    /**
     * Accumulate, row after row, the gradients of
     *   L_r = dlogp[r] * logP(a_r) + dentropy * H_r + dvalue[r] * V_r
     * into the parameter store, with the coefficients read from the
     * minibatch. A row whose dvalue is exactly 0 skips the value head.
     * @pre the immediately preceding forward was evaluate(rows).
     */
    void backward(std::size_t rows, double dentropy);

    /** Logits of head @p head for row @p row of the latest forward
     *  (act() and value() forward row 0). */
    std::span<const double> logits(std::size_t head, std::size_t row) const;

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
    /** Grow the minibatch and row workspaces to @p rows rows. */
    void reserveRows(std::size_t rows);

    /** Trunk, heads and value head on @p rows rows of @p states;
     *  refills the distributions of those rows. */
    void forward(std::span<const double> states, std::size_t rows);

    const Categorical &dist(std::size_t head, std::size_t row) const
    {
        return dists_[head * rows_cap_ + row];
    }

    std::size_t state_dim_;
    ParameterStore store_;
    Rng init_rng_;
    Mlp trunk_;
    std::vector<Linear> heads_;
    Linear value_head_;

    Minibatch mb_;
    // Row workspaces for rows_cap_ rows, laid out row after row. Forward
    // caches: the trunk's activations (trunk_out_ views the output
    // layer's), each head's logits and distributions (head-major: head
    // h, row r at h * rows_cap_ + r), the values.
    std::size_t rows_cap_ = 0;
    Vector acts_;
    std::span<const double> trunk_out_;
    std::vector<Vector> logits_;
    std::vector<Categorical> dists_;
    Vector values_;
    // Backward workspaces: dL/dlogits of one head (widest head), dL/dx
    // of one head, and their sum over heads (trunk output width); the
    // value head's rows with a nonzero coefficient, packed: their
    // trunk outputs, coefficients and row numbers.
    Vector dlogits_;
    Vector dx_;
    Vector d_trunk_;
    Vector value_x_;
    Vector value_dy_;
    std::vector<std::size_t> value_rows_;
};

}  // namespace fleetio::rl
