/** @file Tests for the action mapper and reward functions (Eq. 1/2). */
#include <gtest/gtest.h>

#include "src/core/action.h"
#include "src/core/reward.h"

namespace fleetio {
namespace {

TEST(ActionMapper, SpecMatchesConfiguredLevels)
{
    FleetIoConfig cfg;
    ActionMapper m(cfg);
    const auto spec = m.spec();
    ASSERT_EQ(spec.numHeads(), 3u);
    EXPECT_EQ(spec.head_sizes[0], cfg.harvest_bw_levels.size());
    EXPECT_EQ(spec.head_sizes[1], cfg.harvestable_bw_levels.size());
    EXPECT_EQ(spec.head_sizes[2], 3u);  // low/medium/high
}

TEST(ActionMapper, DecodeMapsIndicesToLevels)
{
    FleetIoConfig cfg;
    cfg.harvest_bw_levels = {0, 64, 128};
    cfg.harvestable_bw_levels = {0, 32};
    ActionMapper m(cfg);
    const auto a = m.decode({2, 1, 0});
    EXPECT_DOUBLE_EQ(a.harvest_bw_mbps, 128.0);
    EXPECT_DOUBLE_EQ(a.harvestable_bw_mbps, 32.0);
    EXPECT_EQ(a.priority, Priority::kLow);
}

TEST(ActionMapper, DecodeClampsOutOfRangeIndices)
{
    FleetIoConfig cfg;
    cfg.harvest_bw_levels = {0, 64};
    cfg.harvestable_bw_levels = {0, 64};
    ActionMapper m(cfg);
    const auto a = m.decode({9, 9, 9});
    EXPECT_DOUBLE_EQ(a.harvest_bw_mbps, 64.0);
    EXPECT_EQ(a.priority, Priority::kHigh);
}

TEST(ActionMapper, EncodeFindsNearestLevel)
{
    FleetIoConfig cfg;
    cfg.harvest_bw_levels = {0, 128, 256, 384, 512};
    cfg.harvestable_bw_levels = {0, 128, 256, 384, 512};
    ActionMapper m(cfg);
    AgentAction a;
    a.harvest_bw_mbps = 190.0;       // nearest 128? no: 190-128=62 vs 256-190=66 -> 128
    a.harvestable_bw_mbps = 200.0;   // nearest 256
    a.priority = Priority::kHigh;
    const auto idx = m.encode(a);
    EXPECT_EQ(idx[0], 1u);
    EXPECT_EQ(idx[1], 2u);
    EXPECT_EQ(idx[2], 2u);
}

TEST(ActionMapper, EncodeDecodeRoundTripOnExactLevels)
{
    FleetIoConfig cfg;
    ActionMapper m(cfg);
    for (std::size_t h = 0; h < cfg.harvest_bw_levels.size(); ++h) {
        const auto a = m.decode({h, 0, 1});
        const auto idx = m.encode(a);
        EXPECT_EQ(idx[0], h);
    }
}

TEST(Reward, Equation1Balance)
{
    // (1-a) BW/guar - a Vio/VioGuar with a = 0.5.
    const double r = singleReward(128, 256, 0.02, 0.01, 0.5);
    EXPECT_NEAR(r, 0.5 * 0.5 - 0.5 * 2.0, 1e-12);
}

TEST(Reward, AlphaZeroIsPureBandwidth)
{
    EXPECT_DOUBLE_EQ(singleReward(100, 200, 1.0, 0.01, 0.0), 0.5);
}

TEST(Reward, AlphaOneIsPureIsolation)
{
    EXPECT_DOUBLE_EQ(singleReward(100, 200, 0.05, 0.01, 1.0), -5.0);
}

TEST(Reward, HigherViolationLowersReward)
{
    const double lo = singleReward(100, 200, 0.00, 0.01, 0.025);
    const double hi = singleReward(100, 200, 0.10, 0.01, 0.025);
    EXPECT_GT(lo, hi);
}

TEST(Reward, Equation2BlendsCollocatedAgents)
{
    // Two agents with rewards 1.0 and 0.0, beta = 0.6.
    const auto r = multiAgentRewards({1.0, 0.0}, 0.6);
    EXPECT_NEAR(r[0], 0.6 * 1.0 + 0.4 * 0.0, 1e-12);
    EXPECT_NEAR(r[1], 0.6 * 0.0 + 0.4 * 1.0, 1e-12);
}

TEST(Reward, Equation2AveragesOthers)
{
    const auto r = multiAgentRewards({3.0, 0.0, 0.0, 0.0}, 0.5);
    EXPECT_NEAR(r[1], 0.5 * 0.0 + 0.5 * 1.0, 1e-12);  // others avg 1.0
}

TEST(Reward, SingleAgentDegeneratesToOwnReward)
{
    const auto r = multiAgentRewards({0.7}, 0.6);
    EXPECT_DOUBLE_EQ(r[0], 0.7);
}

TEST(Reward, BetaOneIsPurelyLocal)
{
    const auto r = multiAgentRewards({2.0, -1.0}, 1.0);
    EXPECT_DOUBLE_EQ(r[0], 2.0);
    EXPECT_DOUBLE_EQ(r[1], -1.0);
}

TEST(Config, AlphaForClusterMatchesPaperValues)
{
    EXPECT_DOUBLE_EQ(alphaForCluster(0), 2.5e-2);  // LC-1
    EXPECT_DOUBLE_EQ(alphaForCluster(1), 5e-3);    // LC-2
    EXPECT_DOUBLE_EQ(alphaForCluster(2), 0.0);     // BI
    EXPECT_DOUBLE_EQ(alphaForCluster(-1), 0.01);   // unified
}

}  // namespace
}  // namespace fleetio
