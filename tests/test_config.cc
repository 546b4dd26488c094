/** @file Unit tests for FleetIoConfig::validate and reward hygiene. */
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "src/core/config.h"
#include "src/core/reward.h"

namespace fleetio {
namespace {

TEST(ConfigValidateTest, DefaultConfigIsValid)
{
    FleetIoConfig cfg;
    EXPECT_TRUE(cfg.validate().empty());
}

TEST(ConfigValidateTest, RejectsEmptyHarvestLevels)
{
    FleetIoConfig cfg;
    cfg.harvest_bw_levels.clear();
    EXPECT_FALSE(cfg.validate().empty());

    FleetIoConfig cfg2;
    cfg2.harvestable_bw_levels.clear();
    EXPECT_FALSE(cfg2.validate().empty());
}

TEST(ConfigValidateTest, RejectsBetaOutsideUnitInterval)
{
    FleetIoConfig cfg;
    cfg.beta = -0.1;
    EXPECT_FALSE(cfg.validate().empty());
    cfg.beta = 1.1;
    EXPECT_FALSE(cfg.validate().empty());
    cfg.beta = 1.0;
    EXPECT_TRUE(cfg.validate().empty());
}

TEST(ConfigValidateTest, RejectsNonPositiveWindowAndGuarantee)
{
    FleetIoConfig cfg;
    cfg.decision_window = 0;
    EXPECT_FALSE(cfg.validate().empty());
    // The guarantee is the constant kSloVioGuar, held to (0, 1) by a
    // static_assert beside it; check the same range here.
    EXPECT_GT(kSloVioGuar, 0.0);
    EXPECT_LT(kSloVioGuar, 1.0);
}

TEST(ConfigValidateTest, RejectsDegenerateRlShape)
{
    FleetIoConfig cfg;
    cfg.state_stack = 0;
    EXPECT_FALSE(cfg.validate().empty());
}

TEST(ConfigValidateTest, RejectsNegativeBandwidthLevels)
{
    FleetIoConfig cfg;
    cfg.harvest_bw_levels = {0, -64};
    EXPECT_FALSE(cfg.validate().empty());
}

TEST(RewardHygieneTest, RewardIsFiniteAndClampedUnderExtremes)
{
    // A corrupted bandwidth meter must not feed inf/NaN into PPO.
    const double r = singleReward(1e308, 1e-308, 0.0, 0.01, 0.0);
    EXPECT_TRUE(std::isfinite(r));
    EXPECT_LE(r, 10.0);

    const double nan_bw = std::numeric_limits<double>::quiet_NaN();
    const double r2 = singleReward(nan_bw, 100.0, 0.0, 0.01, 0.5);
    EXPECT_TRUE(std::isfinite(r2));

    const double r3 = singleReward(100.0, 100.0, 1.0, 1e-300, 1.0);
    EXPECT_TRUE(std::isfinite(r3));
    EXPECT_GE(r3, -10.0);
}

TEST(RewardHygieneTest, MultiAgentBlendStaysFinite)
{
    const double inf = std::numeric_limits<double>::infinity();
    const auto out = multiAgentRewards({1.0, inf, -2.0}, 0.6);
    ASSERT_EQ(out.size(), 3u);
    for (double r : out)
        EXPECT_TRUE(std::isfinite(r));
}

}  // namespace
}  // namespace fleetio
