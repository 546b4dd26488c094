/** @file Tests for the per-vSSD RL agent. */
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <memory>

#include "src/core/agent.h"

namespace fleetio {
namespace {

class AgentTest : public ::testing::Test
{
  protected:
    AgentTest()
    {
        cfg_.decision_window = msec(100);
        agent_ = std::make_unique<FleetIoAgent>(0, cfg_, 1234);
    }

    rl::Vector state(double fill = 0.1) const
    {
        return rl::Vector(cfg_.stateDim(), fill);
    }

    FleetIoConfig cfg_;
    std::unique_ptr<FleetIoAgent> agent_;
};

TEST_F(AgentTest, DecideProducesValidAction)
{
    const auto a = agent_->decide(state());
    const auto &levels = cfg_.harvest_bw_levels;
    EXPECT_TRUE(std::find(levels.begin(), levels.end(),
                          a.harvest_bw_mbps) != levels.end());
    EXPECT_LE(std::size_t(a.priority), 2u);
    EXPECT_EQ(agent_->decisions(), 1u);
}

TEST_F(AgentTest, TransitionsAccumulateWithRewards)
{
    EXPECT_EQ(agent_->rolloutSize(), 0u);
    agent_->decide(state());
    agent_->completeTransition(1.0);
    EXPECT_EQ(agent_->rolloutSize(), 1u);
    // Without a pending decision, rewards are dropped.
    agent_->completeTransition(1.0);
    EXPECT_EQ(agent_->rolloutSize(), 1u);
}

TEST_F(AgentTest, NoTransitionsWhenNotTraining)
{
    agent_->setTraining(false);
    agent_->decide(state());
    agent_->completeTransition(1.0);
    EXPECT_EQ(agent_->rolloutSize(), 0u);
}

TEST_F(AgentTest, TrainRequiresAMinibatch)
{
    agent_->decide(state());
    agent_->completeTransition(0.5);
    const auto stats = agent_->train(state());
    EXPECT_EQ(stats.samples, 0u);  // below minibatch: no-op
    EXPECT_EQ(agent_->rolloutSize(), 1u);
}

TEST_F(AgentTest, TrainConsumesRollout)
{
    for (std::size_t i = 0; i < cfg_.ppo.minibatch; ++i) {
        agent_->decide(state(double(i) * 0.01));
        agent_->completeTransition(0.1);
    }
    const auto stats = agent_->train(state());
    EXPECT_GT(stats.samples, 0u);
    EXPECT_EQ(agent_->rolloutSize(), 0u);
}

TEST_F(AgentTest, AlphaIsConfigurable)
{
    EXPECT_DOUBLE_EQ(agent_->alpha(), kUnifiedAlpha);
    agent_->setAlpha(0.025);
    EXPECT_DOUBLE_EQ(agent_->alpha(), 0.025);
}

TEST_F(AgentTest, ImitationClonesTeacherActions)
{
    // Teach: state A -> action {4,0,2}; state B -> action {0,4,0}.
    const rl::Vector sa = state(0.9);
    const rl::Vector sb = state(-0.9);
    const std::vector<std::size_t> aa{4, 0, 2};
    const std::vector<std::size_t> ab{0, 4, 0};
    for (int i = 0; i < 400; ++i) {
        agent_->imitate(sa, aa, 1.0);
        agent_->imitate(sb, ab, 0.0);
    }
    agent_->setDeterministic(true);
    agent_->setTraining(false);
    const auto ra = agent_->decide(sa);
    const auto rb = agent_->decide(sb);
    EXPECT_DOUBLE_EQ(ra.harvest_bw_mbps, cfg_.harvest_bw_levels[4]);
    EXPECT_EQ(ra.priority, Priority::kHigh);
    EXPECT_DOUBLE_EQ(rb.harvestable_bw_mbps,
                     cfg_.harvestable_bw_levels[4]);
    EXPECT_EQ(rb.priority, Priority::kLow);
}

TEST_F(AgentTest, SaveLoadPolicyRoundTrip)
{
    const auto path = std::filesystem::temp_directory_path() /
                      "fleetio_agent_policy.txt";
    agent_->setDeterministic(true);
    const auto before = agent_->decide(state(0.42));
    ASSERT_TRUE(agent_->savePolicy(path.string()));

    FleetIoAgent other(1, cfg_, 999);
    other.setDeterministic(true);
    ASSERT_TRUE(other.loadPolicy(path.string()));
    const auto after = other.decide(state(0.42));
    EXPECT_DOUBLE_EQ(before.harvest_bw_mbps, after.harvest_bw_mbps);
    EXPECT_EQ(before.priority, after.priority);
    std::filesystem::remove(path);
}

}  // namespace
}  // namespace fleetio
