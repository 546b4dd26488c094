/** @file Unit tests for the categorical distribution. */
#include <gtest/gtest.h>

#include <cmath>

#include "src/rl/categorical.h"

namespace fleetio::rl {
namespace {

TEST(Categorical, ProbsAndLogProbsConsistent)
{
    Categorical d(Vector{0.0, 1.0, 2.0});
    double total = 0;
    for (std::size_t a = 0; a < 3; ++a) {
        EXPECT_NEAR(std::exp(d.logProb(a)), d.probs()[a], 1e-12);
        total += d.probs()[a];
    }
    EXPECT_NEAR(total, 1.0, 1e-12);
}

TEST(Categorical, ArgmaxPicksLargestLogit)
{
    Categorical d(Vector{-1.0, 5.0, 2.0});
    EXPECT_EQ(d.argmax(), 1u);
}

TEST(Categorical, SamplingFollowsDistribution)
{
    Categorical d(Vector{0.0, std::log(3.0)});  // probs 0.25 / 0.75
    Rng rng(9);
    int ones = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        ones += d.sample(rng) == 1;
    EXPECT_NEAR(double(ones) / n, 0.75, 0.02);
}

TEST(Categorical, UniformEntropyIsLogK)
{
    Categorical d(Vector{0.7, 0.7, 0.7, 0.7});
    EXPECT_NEAR(d.entropy(), std::log(4.0), 1e-12);
}

TEST(Categorical, DegenerateEntropyNearZero)
{
    Categorical d(Vector{100.0, 0.0, 0.0});
    EXPECT_NEAR(d.entropy(), 0.0, 1e-6);
}

TEST(Categorical, LogProbGradIsOneHotMinusProbs)
{
    Categorical d(Vector{0.1, 0.2, 0.3});
    Vector g(3);
    d.logProbGradLogits(1, 2.0, g);
    for (std::size_t i = 0; i < 3; ++i) {
        const double expect =
            2.0 * ((i == 1 ? 1.0 : 0.0) - d.probs()[i]);
        EXPECT_NEAR(g[i], expect, 1e-12);
    }
}

TEST(Categorical, LogProbGradMatchesNumerical)
{
    const Vector logits{0.3, -0.6, 1.1, 0.0};
    const std::size_t action = 2;
    const double eps = 1e-6;
    Categorical base(logits);
    Vector g(logits.size());
    base.logProbGradLogits(action, 1.0, g);
    for (std::size_t i = 0; i < logits.size(); ++i) {
        Vector up = logits, down = logits;
        up[i] += eps;
        down[i] -= eps;
        const double num = (Categorical(up).logProb(action) -
                            Categorical(down).logProb(action)) /
                           (2 * eps);
        EXPECT_NEAR(g[i], num, 1e-6);
    }
}

TEST(Categorical, EntropyGradMatchesNumerical)
{
    const Vector logits{0.5, -0.5, 0.25};
    const double eps = 1e-6;
    Categorical base(logits);
    Vector g(logits.size(), 0.0);
    base.addEntropyGradLogits(1.0, g);
    for (std::size_t i = 0; i < logits.size(); ++i) {
        Vector up = logits, down = logits;
        up[i] += eps;
        down[i] -= eps;
        const double num =
            (Categorical(up).entropy() - Categorical(down).entropy()) /
            (2 * eps);
        EXPECT_NEAR(g[i], num, 1e-6);
    }
}

TEST(Categorical, SetLogitsRefillsInPlace)
{
    // A refilled distribution equals a freshly built one, bit for bit,
    // and keeps its storage when the class count is unchanged.
    Categorical d(Vector{0.4, -1.2, 2.5});
    const double *storage = d.probs().data();
    const Vector logits{-0.3, 0.9, 0.1};
    d.setLogits(logits);
    const Categorical fresh(logits);
    EXPECT_EQ(d.probs().data(), storage);
    EXPECT_EQ(d.probs(), fresh.probs());
    for (std::size_t a = 0; a < 3; ++a)
        EXPECT_EQ(d.logProb(a), fresh.logProb(a));
    EXPECT_EQ(d.entropy(), fresh.entropy());
}

TEST(Softmax, SumsToOneAndOrdersCorrectly)
{
    const Vector p = Categorical(Vector{1.0, 2.0, 3.0}).probs();
    EXPECT_NEAR(p[0] + p[1] + p[2], 1.0, 1e-12);
    EXPECT_LT(p[0], p[1]);
    EXPECT_LT(p[1], p[2]);
}

TEST(Softmax, StableForHugeLogits)
{
    const Categorical d(Vector{1000.0, 1000.0, -1000.0});
    const Vector &p = d.probs();
    EXPECT_NEAR(p[0], 0.5, 1e-9);
    EXPECT_NEAR(p[1], 0.5, 1e-9);
    EXPECT_NEAR(p[2], 0.0, 1e-9);
    EXPECT_FALSE(std::isnan(p[0]));
    EXPECT_FALSE(std::isnan(d.logProb(2)));
}

TEST(LogSoftmax, MatchesLogOfSoftmax)
{
    const Categorical d(Vector{0.5, -1.0, 2.0});
    for (std::size_t i = 0; i < 3; ++i)
        EXPECT_NEAR(d.logProb(i), std::log(d.probs()[i]), 1e-12);
}

}  // namespace
}  // namespace fleetio::rl
