#include "src/rl/policy_network.h"

#include <algorithm>
#include <cassert>

namespace fleetio::rl {

namespace {

std::vector<Linear>
buildHeads(ParameterStore &store, std::size_t trunk_out,
           const ActionSpec &spec, Rng &rng)
{
    std::vector<Linear> heads;
    heads.reserve(spec.head_sizes.size());
    for (std::size_t k : spec.head_sizes) {
        // Small init keeps the initial policy near-uniform.
        heads.emplace_back(store, trunk_out, k, rng, /*gain=*/0.01);
    }
    return heads;
}

}  // namespace

PolicyNetwork::PolicyNetwork(std::size_t state_dim, const ActionSpec &spec,
                             const std::vector<std::size_t> &hidden,
                             std::uint64_t seed)
    : state_dim_(state_dim),
      spec_(spec),
      init_rng_(seed),
      trunk_(store_, state_dim, hidden, init_rng_),
      heads_(buildHeads(store_, trunk_.outSize(), spec, init_rng_)),
      value_head_(store_, trunk_.outSize(), 1, init_rng_, /*gain=*/1.0),
      dx_(trunk_.outSize()),
      d_trunk_(trunk_.outSize())
{
    assert(!spec.head_sizes.empty());
    for (std::size_t k : spec.head_sizes) {
        logits_.emplace_back(k);
        dists_.emplace_back(logits_.back());
    }
    dlogits_.resize(*std::max_element(spec.head_sizes.begin(),
                                      spec.head_sizes.end()));
}

void
PolicyNetwork::forward(const Vector &state)
{
    assert(state.size() == state_dim_);
    const Vector &trunk_out = trunk_.forward(state);
    for (std::size_t i = 0; i < heads_.size(); ++i) {
        heads_[i].forward(trunk_out, logits_[i]);
        dists_[i].setLogits(logits_[i]);
    }
    value_head_.forward(trunk_out, std::span<double>(&value_, 1));
}

PolicyNetwork::ActResult
PolicyNetwork::act(const Vector &state, Rng &rng, bool deterministic)
{
    forward(state);
    ActResult res;
    res.value = value_;
    res.actions.reserve(dists_.size());
    for (const Categorical &dist : dists_) {
        const std::size_t a =
            deterministic ? dist.argmax() : dist.sample(rng);
        res.actions.push_back(a);
        res.log_prob += dist.logProb(a);
        res.entropy += dist.entropy();
    }
    return res;
}

PolicyNetwork::Eval
PolicyNetwork::evaluate(const Vector &state,
                        const std::vector<std::size_t> &actions)
{
    assert(actions.size() == heads_.size());
    forward(state);
    Eval ev;
    ev.value = value_;
    for (std::size_t i = 0; i < heads_.size(); ++i) {
        ev.log_prob += dists_[i].logProb(actions[i]);
        ev.entropy += dists_[i].entropy();
    }
    return ev;
}

void
PolicyNetwork::backward(const std::vector<std::size_t> &actions,
                        double dlogp, double dentropy, double dvalue)
{
    assert(actions.size() == heads_.size());
    const Vector &trunk_out = trunk_.output();
    std::fill(d_trunk_.begin(), d_trunk_.end(), 0.0);
    // Each head's dL/dx is summed on its own in dx_, then added to
    // d_trunk_ head by head, the order that keeps the sums bit-identical.
    for (std::size_t i = 0; i < heads_.size(); ++i) {
        const std::span<double> dlogits(dlogits_.data(),
                                        heads_[i].outSize());
        dists_[i].logProbGradLogits(actions[i], dlogp, dlogits);
        if (dentropy != 0.0)
            dists_[i].addEntropyGradLogits(dentropy, dlogits);
        heads_[i].backward(dlogits, trunk_out, dx_);
        axpy(1.0, dx_, d_trunk_);
    }

    if (dvalue != 0.0) {
        value_head_.backward(std::span<const double>(&dvalue, 1),
                             trunk_out, dx_);
        axpy(1.0, dx_, d_trunk_);
    }

    trunk_.backward(d_trunk_);
}

void
PolicyNetwork::copyParamsFrom(const PolicyNetwork &other)
{
    assert(store_.size() == other.store_.size());
    store_.rawValues() = other.store_.rawValues();
}

}  // namespace fleetio::rl
