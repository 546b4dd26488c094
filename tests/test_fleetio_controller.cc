/** @file Tests for the FleetIO decision loop. */
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <optional>

#include "src/core/fleetio_controller.h"
#include "src/harness/testbed.h"
#include "src/virt/channel_allocator.h"

namespace fleetio {
namespace {

class ControllerTest : public ::testing::Test
{
  protected:
    ControllerTest()
    {
        TestbedOptions opts;
        opts.geo = testGeometry();
        opts.window = msec(50);
        tb_ = std::make_unique<Testbed>(opts);
        const auto split =
            ChannelAllocator::equalSplit(tb_->device().geometry(), 2);
        const auto quota = tb_->device().geometry().totalBlocks() / 2;
        ls_ = &tb_->addTenant(WorkloadKind::kVdiWeb, split[0], quota,
                              msec(2));
        bi_ = &tb_->addTenant(WorkloadKind::kTeraSort, split[1], quota,
                              msec(30));

        cfg_.decision_window = opts.window;
        ctrl_ = std::make_unique<FleetIoController>(
            cfg_, tb_->eq(), tb_->vssds(), tb_->gsb());
    }

    FleetIoConfig cfg_;
    std::unique_ptr<Testbed> tb_;
    std::unique_ptr<FleetIoController> ctrl_;
    Vssd *ls_ = nullptr;
    Vssd *bi_ = nullptr;
};

TEST_F(ControllerTest, AddVssdDeploysOneAgentPerVssd)
{
    ctrl_->addVssd(*ls_, 0.025);
    ctrl_->addVssd(*bi_, 0.0);
    EXPECT_EQ(ctrl_->numAgents(), 2u);
    ASSERT_NE(ctrl_->agent(0), nullptr);
    ASSERT_NE(ctrl_->agent(1), nullptr);
    EXPECT_DOUBLE_EQ(ctrl_->agent(0)->alpha(), 0.025);
    EXPECT_DOUBLE_EQ(ctrl_->agent(1)->alpha(), 0.0);
    EXPECT_EQ(ctrl_->agent(9), nullptr);
}

TEST_F(ControllerTest, TickAdvancesWindowsAndDecisions)
{
    ctrl_->addVssd(*ls_, 0.025);
    ctrl_->addVssd(*bi_, 0.0);
    ctrl_->tick();
    ctrl_->tick();
    EXPECT_EQ(ctrl_->windows(), 2u);
    // Decisions happen every window for every agent.
    EXPECT_EQ(ctrl_->agent(0)->decisions() +
                  ctrl_->agent(1)->decisions(),
              4u);
}

TEST_F(ControllerTest, TickRollsObservationWindows)
{
    ctrl_->addVssd(*ls_, 0.025);
    ls_->latency().record(usec(500));
    ls_->bandwidth().record(IoType::kRead, 4096);
    ctrl_->tick();
    EXPECT_EQ(ls_->latency().windowCount(), 0u);
    EXPECT_EQ(ls_->latency().totalCount(), 1u);
}

TEST_F(ControllerTest, RewardsAreTracked)
{
    ctrl_->addVssd(*ls_, 0.025);
    ctrl_->addVssd(*bi_, 0.0);
    ls_->bandwidth().record(IoType::kRead, 8ull << 20);
    ctrl_->tick();
    ctrl_->tick();
    // Lifetime reward average exists (possibly small but finite).
    const double r = ctrl_->lifetimeMeanReward(0);
    EXPECT_TRUE(std::isfinite(r));
}

TEST_F(ControllerTest, StartStopScheduleTicks)
{
    ctrl_->addVssd(*ls_, 0.025);
    ctrl_->start();
    tb_->run(msec(160));  // > 3 windows
    EXPECT_GE(ctrl_->windows(), 3u);
    ctrl_->stop();
    const auto w = ctrl_->windows();
    tb_->run(msec(200));
    EXPECT_EQ(ctrl_->windows(), w);
}

TEST_F(ControllerTest, TeacherPhaseImitatesAndActsSensibly)
{
    cfg_.teacher_windows = 1000;  // whole test inside teacher phase
    ctrl_ = std::make_unique<FleetIoController>(cfg_, tb_->eq(),
                                                tb_->vssds(),
                                                tb_->gsb());
    ctrl_->addVssd(*ls_, 0.025);
    ctrl_->addVssd(*bi_, 0.0);
    ctrl_->start();
    tb_->warmupFill();
    tb_->startWorkloads();
    tb_->run(sec(4));
    // The teacher donates the LS tenant's idle bandwidth, so gSBs get
    // created; the BI tenant harvests during its bursts.
    EXPECT_GT(tb_->gsb().createdCount(), 0u);
    ctrl_->stop();
}

TEST_F(ControllerTest, ClassifierUpdatesAlphaOnline)
{
    ctrl_->addVssd(*ls_, 0.5);  // wrong alpha on purpose
    // A classifier whose cluster 1 (LC-2) always matches.
    static WorkloadClassifier wc;
    std::vector<rl::Vector> feats;
    std::vector<int> ids;
    Rng rng(1);
    for (int i = 0; i < 40; ++i) {
        feats.push_back({10 + rng.normal(), 5 + rng.normal(),
                         3 + rng.normal() * 0.1, 16.0});
        ids.push_back(0);
        feats.push_back({200 + rng.normal(), 100 + rng.normal(),
                         6 + rng.normal() * 0.1, 128.0});
        ids.push_back(1);
    }
    WorkloadClassifier::Config wcfg;
    wcfg.k = 2;
    wc = WorkloadClassifier(wcfg);
    wc.fit(feats, ids);

    ctrl_->setClassifier(&wc, [](VssdId) {
        return std::optional<IoFeatures>(IoFeatures{10, 5, 3, 16});
    });
    ctrl_->tick();
    // Alpha now reflects the classified cluster (0 or 1 -> LC alpha).
    const double a = ctrl_->agent(0)->alpha();
    EXPECT_TRUE(a == kAlphaLc1 || a == kAlphaLc2);
}

}  // namespace
}  // namespace fleetio
