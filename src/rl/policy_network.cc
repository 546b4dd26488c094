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
      init_rng_(seed),
      trunk_(store_, state_dim, hidden, init_rng_),
      heads_(buildHeads(store_, trunk_.outSize(), spec, init_rng_)),
      value_head_(store_, trunk_.outSize(), 1, init_rng_, /*gain=*/1.0),
      logits_(spec.head_sizes.size())
{
    assert(!spec.head_sizes.empty());
}

Minibatch &
PolicyNetwork::minibatch(std::size_t rows)
{
    reserveRows(rows);
    return mb_;
}

void
PolicyNetwork::reserveRows(std::size_t rows)
{
    if (rows <= rows_cap_)
        return;
    rows_cap_ = rows;
    mb_.states.resize(rows * state_dim_);
    mb_.actions.resize(rows * heads_.size());
    mb_.evals.resize(rows);
    mb_.dlogp.resize(rows);
    mb_.dvalue.resize(rows);
    const std::size_t w = trunk_.outSize();
    std::size_t widest = 0;
    acts_.resize(rows * trunk_.actsPerRow());
    dists_.clear();
    for (std::size_t h = 0; h < heads_.size(); ++h) {
        const std::size_t k = heads_[h].outSize();
        logits_[h].assign(rows * k, 0.0);
        for (std::size_t r = 0; r < rows; ++r)
            dists_.emplace_back(std::span(logits_[h]).subspan(r * k, k));
        widest = std::max(widest, k);
    }
    values_.resize(rows);
    dlogits_.resize(rows * widest);
    dx_.resize(rows * w);
    d_trunk_.resize(rows * w);
    value_x_.resize(rows * w);
    value_dy_.resize(rows);
    value_rows_.resize(rows);
}

void
PolicyNetwork::forward(std::span<const double> states, std::size_t rows)
{
    assert(states.size() >= rows * state_dim_);
    reserveRows(rows);
    trunk_out_ = trunk_.forward(states.first(rows * state_dim_), acts_);
    for (std::size_t h = 0; h < heads_.size(); ++h) {
        const std::size_t k = heads_[h].outSize();
        const std::span<double> z(logits_[h].data(), rows * k);
        heads_[h].forward(trunk_out_, z);
        for (std::size_t r = 0; r < rows; ++r)
            dists_[h * rows_cap_ + r].setLogits(z.subspan(r * k, k));
    }
    value_head_.forward(trunk_out_, std::span(values_.data(), rows));
}

PolicyNetwork::ActResult
PolicyNetwork::act(const Vector &state, Rng &rng, bool deterministic)
{
    assert(state.size() == state_dim_);
    forward(state, 1);
    ActResult res;
    res.value = values_[0];
    res.actions.reserve(heads_.size());
    for (std::size_t h = 0; h < heads_.size(); ++h) {
        const Categorical &d = dist(h, 0);
        const std::size_t a = deterministic ? d.argmax() : d.sample(rng);
        res.actions.push_back(a);
        res.log_prob += d.logProb(a);
        res.entropy += d.entropy();
    }
    return res;
}

double
PolicyNetwork::value(const Vector &state)
{
    assert(state.size() == state_dim_);
    forward(state, 1);
    return values_[0];
}

void
PolicyNetwork::evaluate(std::size_t rows)
{
    assert(rows <= rows_cap_);
    forward(mb_.states, rows);
    const std::size_t n_heads = heads_.size();
    for (std::size_t r = 0; r < rows; ++r) {
        Eval &ev = mb_.evals[r];
        ev = Eval{};
        ev.value = values_[r];
        for (std::size_t h = 0; h < n_heads; ++h) {
            const Categorical &d = dist(h, r);
            ev.log_prob += d.logProb(mb_.actions[r * n_heads + h]);
            ev.entropy += d.entropy();
        }
    }
}

void
PolicyNetwork::backward(std::size_t rows, double dentropy)
{
    const std::size_t w = trunk_.outSize();
    const std::size_t n_heads = heads_.size();
    assert(trunk_out_.size() == rows * w);
    const std::span<double> d_trunk(d_trunk_.data(), rows * w);
    const std::span<double> dx(dx_.data(), rows * w);
    std::fill(d_trunk.begin(), d_trunk.end(), 0.0);
    // Each head's dL/dx is summed on its own in dx_, then added to
    // d_trunk_ head by head, the order that keeps the sums bit-identical.
    for (std::size_t h = 0; h < n_heads; ++h) {
        const std::size_t k = heads_[h].outSize();
        const std::span<double> dlogits(dlogits_.data(), rows * k);
        for (std::size_t r = 0; r < rows; ++r) {
            const std::span<double> g = dlogits.subspan(r * k, k);
            const Categorical &d = dist(h, r);
            d.logProbGradLogits(mb_.actions[r * n_heads + h], mb_.dlogp[r],
                                g);
            if (dentropy != 0.0)
                d.addEntropyGradLogits(dentropy, g);
        }
        heads_[h].backward(dlogits, trunk_out_, dx);
        for (std::size_t j = 0; j < d_trunk.size(); ++j)
            d_trunk[j] += dx[j];
    }

    // The value head runs on the rows with a nonzero coefficient only,
    // packed in row order, as a one-row-at-a-time pass skips the rest.
    std::size_t n = 0;
    for (std::size_t r = 0; r < rows; ++r) {
        if (mb_.dvalue[r] == 0.0)
            continue;
        std::copy_n(trunk_out_.begin() + r * w, w,
                    value_x_.begin() + n * w);
        value_dy_[n] = mb_.dvalue[r];
        value_rows_[n++] = r;
    }
    if (n > 0) {
        value_head_.backward(std::span(value_dy_.data(), n),
                             std::span(value_x_.data(), n * w),
                             dx.first(n * w));
        for (std::size_t k = 0; k < n; ++k)
            for (std::size_t i = 0; i < w; ++i)
                d_trunk[value_rows_[k] * w + i] += dx[k * w + i];
    }

    trunk_.backward(std::span(mb_.states.data(), rows * state_dim_),
                    std::span(acts_.data(), rows * trunk_.actsPerRow()),
                    d_trunk);
}

std::span<const double>
PolicyNetwork::logits(std::size_t head, std::size_t row) const
{
    const std::size_t k = heads_[head].outSize();
    return std::span(logits_[head]).subspan(row * k, k);
}

void
PolicyNetwork::copyParamsFrom(const PolicyNetwork &other)
{
    assert(store_.size() == other.store_.size());
    store_.rawValues() = other.store_.rawValues();
}

}  // namespace fleetio::rl
