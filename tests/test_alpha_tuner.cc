/** @file Unit tests for the binary-search alpha tuner. */
#include <gtest/gtest.h>

#include <cmath>

#include "src/cluster/alpha_tuner.h"

namespace fleetio {
namespace {

TEST(AlphaTuner, FindsThresholdCrossing)
{
    // Violations fall linearly with alpha: vio(alpha) = 0.2 (1-alpha).
    // Threshold 0.05 crosses at alpha = 0.75.
    auto eval = [](double alpha) {
        return AlphaOutcome{0.2 * (1 - alpha), 100 * (1 - alpha)};
    };
    AlphaTuner::Config cfg;
    cfg.iterations = 20;
    const double a = AlphaTuner::tune(eval, cfg);
    EXPECT_NEAR(a, 0.75, 1e-3);
}

TEST(AlphaTuner, ReturnsLoWhenAlwaysAdmissible)
{
    auto eval = [](double) { return AlphaOutcome{0.0, 100.0}; };
    EXPECT_DOUBLE_EQ(AlphaTuner::tune(eval), 0.0);
}

TEST(AlphaTuner, ReturnsHiWhenNeverAdmissible)
{
    auto eval = [](double) { return AlphaOutcome{0.5, 100.0}; };
    EXPECT_DOUBLE_EQ(AlphaTuner::tune(eval), 1.0);
}

TEST(AlphaTuner, RespectsCustomInterval)
{
    auto eval = [](double alpha) {
        return AlphaOutcome{alpha < 0.3 ? 0.1 : 0.0, 0.0};
    };
    AlphaTuner::Config cfg;
    cfg.lo = 0.2;
    cfg.hi = 0.4;
    cfg.iterations = 16;
    const double a = AlphaTuner::tune(eval, cfg);
    EXPECT_NEAR(a, 0.3, 1e-3);
}

TEST(AlphaTuner, StepViolationFunction)
{
    // Sharp step at 0.111...
    auto eval = [](double alpha) {
        return AlphaOutcome{alpha >= 1.0 / 9 ? 0.0 : 1.0, 0.0};
    };
    AlphaTuner::Config cfg;
    cfg.iterations = 24;
    const double a = AlphaTuner::tune(eval, cfg);
    EXPECT_NEAR(a, 1.0 / 9, 1e-4);
    // The found alpha is admissible.
    EXPECT_LE(eval(a).slo_violation, AlphaTuner::kViolationThreshold);
}

TEST(AlphaTuner, EvaluationCountIsBounded)
{
    int calls = 0;
    auto eval = [&](double alpha) {
        ++calls;
        return AlphaOutcome{0.2 * (1 - alpha), 0.0};
    };
    AlphaTuner::Config cfg;
    cfg.iterations = 8;
    AlphaTuner::tune(eval, cfg);
    EXPECT_LE(calls, 2 + 8);
}

}  // namespace
}  // namespace fleetio
