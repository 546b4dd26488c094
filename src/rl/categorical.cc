#include "src/rl/categorical.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace fleetio::rl {

void
Categorical::setLogits(std::span<const double> logits)
{
    assert(!logits.empty());
    const std::size_t n = logits.size();
    probs_.resize(n);
    log_probs_.resize(n);
    const double m = *std::max_element(logits.begin(), logits.end());
    double sum = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        probs_[i] = std::exp(logits[i] - m);
        sum += probs_[i];
    }
    const double log_z = m + std::log(sum);
    for (std::size_t i = 0; i < n; ++i) {
        probs_[i] /= sum;
        log_probs_[i] = logits[i] - log_z;
    }
    double h = 0.0;
    for (std::size_t i = 0; i < n; ++i)
        h -= probs_[i] * log_probs_[i];
    entropy_ = h;
}

std::size_t
Categorical::sample(Rng &rng) const
{
    double r = rng.uniform();
    for (std::size_t i = 0; i < probs_.size(); ++i) {
        r -= probs_[i];
        if (r <= 0.0)
            return i;
    }
    return probs_.size() - 1;
}

std::size_t
Categorical::argmax() const
{
    return std::size_t(std::max_element(probs_.begin(), probs_.end()) -
                       probs_.begin());
}

double
Categorical::logProb(std::size_t a) const
{
    assert(a < log_probs_.size());
    return log_probs_[a];
}

void
Categorical::logProbGradLogits(std::size_t a, double coeff,
                               std::span<double> g) const
{
    assert(g.size() == probs_.size());
    for (std::size_t i = 0; i < probs_.size(); ++i)
        g[i] = coeff * ((i == a ? 1.0 : 0.0) - probs_[i]);
}

void
Categorical::addEntropyGradLogits(double coeff, std::span<double> g) const
{
    assert(g.size() == probs_.size());
    for (std::size_t i = 0; i < probs_.size(); ++i)
        g[i] += coeff * (-probs_[i] * (log_probs_[i] + entropy_));
}

}  // namespace fleetio::rl
