/** @file Tests for the agent watchdog / quarantine (DESIGN.md §8). */
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>

#include "src/core/agent_supervisor.h"

namespace fleetio {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

class AgentSupervisorTest : public ::testing::Test
{
  protected:
    AgentSupervisorTest()
        : geo_(testGeometry()), dev_(geo_, eq_), hbt_(geo_),
          vssds_(dev_, hbt_), gsb_(dev_, vssds_)
    {
        vssds_.setOnErased([this](ChannelId ch, ChipId c, BlockId b) {
            gsb_.onBlockErased(ch, c, b);
        });
        cfg_.decision_window = msec(100);
        home_ = &makeVssd(0, {0, 1, 2, 3, 4, 5, 6, 7});
        harv_ = &makeVssd(1, {8, 9, 10, 11, 12, 13, 14, 15});
        agent_ = std::make_unique<FleetIoAgent>(1, cfg_, 42);
    }

    Vssd &makeVssd(VssdId id, std::vector<ChannelId> chs)
    {
        Vssd::Config c;
        c.id = id;
        c.quota_blocks = geo_.blocksPerChannel() * chs.size();
        c.channels = std::move(chs);
        return vssds_.create(c);
    }

    std::unique_ptr<AgentSupervisor> makeSupervisor()
    {
        auto s = std::make_unique<AgentSupervisor>(cfg_.supervisor,
                                                   gsb_);
        s->attach(*agent_, *harv_);
        return s;
    }

    rl::Vector state(double fill = 0.1) const
    {
        return rl::Vector(cfg_.stateDim(), fill);
    }

    void corruptAgent()
    {
        agent_->policy().params().rawValues()[0] = kNaN;
    }

    double chBw() const { return geo_.channelBandwidthMBps(); }

    SsdGeometry geo_;
    EventQueue eq_;
    FlashDevice dev_;
    HarvestedBlockTable hbt_;
    VssdManager vssds_;
    GsbManager gsb_;
    FleetIoConfig cfg_;
    Vssd *home_ = nullptr;
    Vssd *harv_ = nullptr;
    std::unique_ptr<FleetIoAgent> agent_;
};

TEST_F(AgentSupervisorTest, HealthyPathIsBitIdenticalToBareAgent)
{
    // A twin agent with the same seed must produce the same actions the
    // supervised agent does — the checks consume no randomness.
    FleetIoAgent twin(1, cfg_, 42);
    auto sup = makeSupervisor();
    for (int i = 0; i < 20; ++i) {
        const rl::Vector s = state(0.01 * i);
        const AgentAction got = sup->decide(1, s, 0.3, 0.0);
        const AgentAction want = twin.decide(s);
        EXPECT_DOUBLE_EQ(got.harvest_bw_mbps, want.harvest_bw_mbps);
        EXPECT_DOUBLE_EQ(got.harvestable_bw_mbps,
                         want.harvestable_bw_mbps);
        EXPECT_EQ(got.priority, want.priority);
    }
    EXPECT_EQ(sup->stats().trips, 0u);
    EXPECT_EQ(sup->state(1), AgentSupervisor::AgentState::kHealthy);
}

TEST_F(AgentSupervisorTest, FallbackActionIsIsolationStance)
{
    const AgentAction a = AgentSupervisor::fallbackAction();
    EXPECT_DOUBLE_EQ(a.harvest_bw_mbps, 0.0);
    EXPECT_DOUBLE_EQ(a.harvestable_bw_mbps, 0.0);
    EXPECT_EQ(a.priority, Priority::kMedium);
}

TEST_F(AgentSupervisorTest, NonFiniteParamsTripQuarantineAndProbation)
{
    auto sup = makeSupervisor();
    sup->decide(1, state(), 0.1, 0.0);
    corruptAgent();

    const AgentAction a = sup->decide(1, state(), 0.1, 0.0);
    EXPECT_DOUBLE_EQ(a.harvest_bw_mbps, 0.0);
    EXPECT_EQ(sup->state(1), AgentSupervisor::AgentState::kProbation);
    EXPECT_EQ(sup->lastTripReason(1),
              AgentSupervisor::TripReason::kNonFiniteParams);
    EXPECT_EQ(sup->stats().trips, 1u);
    EXPECT_EQ(sup->stats().restores, 1u);
    EXPECT_FALSE(agent_->training());
    // The restore healed the weights.
    for (double p : agent_->policy().params().rawValues())
        EXPECT_TRUE(std::isfinite(p));

    // Probation: deterministic fallback for probation_windows windows.
    for (int w = 0; w < cfg_.supervisor.probation_windows; ++w) {
        EXPECT_EQ(sup->state(1),
                  AgentSupervisor::AgentState::kProbation)
            << "window " << w;
        const AgentAction f = sup->decide(1, state(), 0.1, 0.0);
        EXPECT_DOUBLE_EQ(f.harvest_bw_mbps, 0.0);
        EXPECT_DOUBLE_EQ(f.harvestable_bw_mbps, 0.0);
    }
    // Probation served: healthy again, learning re-enabled.
    EXPECT_EQ(sup->state(1), AgentSupervisor::AgentState::kHealthy);
    EXPECT_TRUE(agent_->training());
    EXPECT_EQ(
        sup->stats().fallback_windows,
        std::uint64_t(cfg_.supervisor.probation_windows) + 1);
}

TEST_F(AgentSupervisorTest, RewardDivergenceTrips)
{
    auto sup = makeSupervisor();
    sup->decide(1, state(), 0.5, 0.0);
    sup->decide(1, state(), AgentSupervisor::kRewardLimit * 10, 0.0);
    EXPECT_EQ(sup->lastTripReason(1),
              AgentSupervisor::TripReason::kRewardDivergence);

    // NaN rewards trip the same guard.
    auto sup2 = std::make_unique<AgentSupervisor>(cfg_.supervisor,
                                                  gsb_);
    FleetIoAgent other(0, cfg_, 7);
    sup2->attach(other, *home_);
    sup2->decide(0, state(), kNaN, 0.0);
    EXPECT_EQ(sup2->lastTripReason(0),
              AgentSupervisor::TripReason::kRewardDivergence);
}

TEST_F(AgentSupervisorTest, SloViolationStreakTrips)
{
    cfg_.supervisor.slo_streak_windows = 3;
    auto sup = makeSupervisor();
    sup->decide(1, state(), 0.1, 1.0);
    sup->decide(1, state(), 0.1, 1.0);
    EXPECT_EQ(sup->stats().trips, 0u);
    // A clean window resets the streak.
    sup->decide(1, state(), 0.1, 0.0);
    sup->decide(1, state(), 0.1, 1.0);
    sup->decide(1, state(), 0.1, 1.0);
    EXPECT_EQ(sup->stats().trips, 0u);
    sup->decide(1, state(), 0.1, 1.0);
    EXPECT_EQ(sup->stats().trips, 1u);
    EXPECT_EQ(sup->lastTripReason(1),
              AgentSupervisor::TripReason::kSloStreak);
}

TEST_F(AgentSupervisorTest, EntropyCollapseStreakTrips)
{
    // A floor above any reachable entropy makes every window "collapsed"
    // — the trip must still wait for the full streak.
    cfg_.supervisor.entropy_floor = 100.0;
    cfg_.supervisor.entropy_windows = 3;
    auto sup = makeSupervisor();
    sup->decide(1, state(), 0.1, 0.0);
    sup->decide(1, state(), 0.1, 0.0);
    EXPECT_EQ(sup->stats().trips, 0u);
    sup->decide(1, state(), 0.1, 0.0);
    EXPECT_EQ(sup->stats().trips, 1u);
    EXPECT_EQ(sup->lastTripReason(1),
              AgentSupervisor::TripReason::kEntropyCollapse);
}

TEST_F(AgentSupervisorTest, QuarantineForceReleasesHarvestLeases)
{
    gsb_.makeHarvestable(0, chBw() * 2);
    ASSERT_EQ(gsb_.harvest(1, chBw() * 2), 2u);
    ASSERT_EQ(gsb_.heldChannels(1), 2u);

    auto sup = makeSupervisor();
    corruptAgent();
    sup->decide(1, state(), 0.1, 0.0);

    EXPECT_EQ(gsb_.heldChannels(1), 0u);
    EXPECT_EQ(sup->stats().lease_releases, 2u);
    EXPECT_EQ(gsb_.forceReleasedCount(), 1u);  // one gSB released
}

TEST_F(AgentSupervisorTest, RepeatedTripsEscalateToReinit)
{
    cfg_.supervisor.max_restores = 1;
    cfg_.supervisor.probation_windows = 1;
    auto sup = makeSupervisor();
    const rl::Vector initial = agent_->policy().params().rawValues();

    corruptAgent();
    sup->decide(1, state(), 0.1, 0.0);  // trip 1: restore
    EXPECT_EQ(sup->stats().restores, 1u);
    EXPECT_EQ(sup->stats().reinits, 0u);
    sup->decide(1, state(), 0.1, 0.0);  // serve 1-window probation

    corruptAgent();
    sup->decide(1, state(), 0.1, 0.0);  // trip 2: beyond max_restores
    EXPECT_EQ(sup->stats().restores, 1u);
    EXPECT_EQ(sup->stats().reinits, 1u);
    EXPECT_EQ(agent_->policy().params().rawValues(), initial);
}

TEST_F(AgentSupervisorTest, TrainingToggleDeferredDuringProbation)
{
    auto sup = makeSupervisor();
    corruptAgent();
    sup->decide(1, state(), 0.1, 0.0);
    ASSERT_EQ(sup->state(1), AgentSupervisor::AgentState::kProbation);
    ASSERT_FALSE(agent_->training());

    // A global re-enable must not resurrect a quarantined agent...
    sup->setTrainingEnabled(true);
    EXPECT_FALSE(agent_->training());

    // ...and a global freeze must stick after probation ends.
    sup->setTrainingEnabled(false);
    for (int w = 0; w < cfg_.supervisor.probation_windows; ++w)
        sup->decide(1, state(), 0.1, 0.0);
    EXPECT_EQ(sup->state(1), AgentSupervisor::AgentState::kHealthy);
    EXPECT_FALSE(agent_->training());
}

TEST_F(AgentSupervisorTest, SnapshotRefreshesRestoreTarget)
{
    cfg_.supervisor.snapshot_interval_windows = 2;
    auto sup = makeSupervisor();

    // Drift the weights to a new (finite) state and let the periodic
    // snapshot capture it.
    sup->decide(1, state(), 0.1, 0.0);
    agent_->policy().params().rawValues()[0] = 1.25;
    sup->decide(1, state(), 0.1, 0.0);  // window 2: snapshot
    EXPECT_GE(sup->stats().snapshots, 1u);

    corruptAgent();
    sup->decide(1, state(), 0.1, 0.0);
    // The restore target was the drifted snapshot, not the initial.
    EXPECT_DOUBLE_EQ(agent_->policy().params().rawValues()[0], 1.25);
}

}  // namespace
}  // namespace fleetio
