/** @file Tests for the evaluation policies (§4.1). */
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <thread>
#include <vector>

#include "src/policies/adaptive.h"
#include "src/policies/fleetio_policy.h"
#include "src/policies/hardware_isolation.h"
#include "src/policies/policy.h"
#include "src/policies/software_isolation.h"
#include "src/policies/ssdkeeper.h"

namespace fleetio {
namespace {

TestbedOptions smallOpts()
{
    TestbedOptions opts;
    opts.geo = testGeometry();
    opts.window = msec(50);
    return opts;
}

std::vector<WorkloadKind> pair()
{
    return {WorkloadKind::kVdiWeb, WorkloadKind::kTeraSort};
}

std::vector<SimTime> slos()
{
    return {msec(2), msec(30)};
}

TEST(PolicyFactory, AllKindsConstructAndName)
{
    for (auto kind : {PolicyKind::kHardwareIsolation,
                      PolicyKind::kSsdKeeper, PolicyKind::kAdaptive,
                      PolicyKind::kSoftwareIsolation,
                      PolicyKind::kFleetIo,
                      PolicyKind::kFleetIoUnifiedGlobal,
                      PolicyKind::kFleetIoCustomizedLocal,
                      PolicyKind::kMixedIsolation,
                      PolicyKind::kFleetIoMixed}) {
        auto p = makePolicy(kind);
        ASSERT_NE(p, nullptr);
        EXPECT_EQ(p->name(), policyName(kind));
    }
}

TEST(PolicyAlpha, AlphaForKindMatchesClusters)
{
    EXPECT_DOUBLE_EQ(alphaForKind(WorkloadKind::kTeraSort), 0.0);
    EXPECT_DOUBLE_EQ(alphaForKind(WorkloadKind::kYcsbB), 5e-3);
    EXPECT_DOUBLE_EQ(alphaForKind(WorkloadKind::kVdiWeb), 2.5e-2);
}

TEST(HardwareIsolation, DisjointEqualChannels)
{
    Testbed tb(smallOpts());
    HardwareIsolationPolicy p;
    p.setup(tb, pair(), slos());
    ASSERT_EQ(tb.numTenants(), 2u);
    const auto &c0 = tb.vssds().get(0)->ftl().channels();
    const auto &c1 = tb.vssds().get(1)->ftl().channels();
    EXPECT_EQ(c0.size(), 8u);
    EXPECT_EQ(c1.size(), 8u);
    std::set<ChannelId> all(c0.begin(), c0.end());
    for (ChannelId ch : c1)
        EXPECT_TRUE(all.insert(ch).second);
}

TEST(SoftwareIsolation, SharedChannelsWithLimits)
{
    Testbed tb(smallOpts());
    SoftwareIsolationPolicy p;
    p.setup(tb, pair(), slos());
    EXPECT_EQ(tb.vssds().get(0)->ftl().channels().size(), 16u);
    EXPECT_EQ(tb.vssds().get(1)->ftl().channels().size(), 16u);
}

TEST(Adaptive, RepartitionsTowardTheBusyTenant)
{
    Testbed tb(smallOpts());
    AdaptivePolicy p;
    p.setup(tb, pair(), slos());
    tb.warmupFill();
    tb.startWorkloads();
    // Sample across a full burst period: during the BI tenant's heavy
    // phases it must win a clear channel majority (eZNS utilization
    // weighting), and it must never starve or leak capacity.
    std::size_t bi_max = 0;
    for (int i = 0; i < 30; ++i) {
        tb.run(msec(100));
        const auto n0 = tb.vssds().get(0)->ftl().channels().size();
        const auto n1 = tb.vssds().get(1)->ftl().channels().size();
        EXPECT_EQ(n0 + n1, 16u);
        EXPECT_GE(n1, 2u);
        bi_max = std::max(bi_max, n1);
    }
    EXPECT_GE(bi_max, 9u);
    EXPECT_EQ(tb.scheduler().blockedWrites(), 0u);
}

TEST(SsdKeeper, DemandNetPredictsMonotonically)
{
    const auto &net = SsdKeeperPolicy::demandNet();
    const double low = net.predict(32, 16, 16);
    const double high = net.predict(400, 300, 128);
    EXPECT_GT(high, low);
    EXPECT_GT(high, 6.0);
    EXPECT_LT(low, 4.0);
    EXPECT_LT(net.finalLoss(), 1.0);
}

TEST(SsdKeeper, ConcurrentPredictionsMatchSerialOnes)
{
    // demandNet() is one static that parallel cells share, so a
    // prediction must not write state that another thread reads.
    const auto &net = SsdKeeperPolicy::demandNet();
    constexpr int kThreads = 4;
    constexpr int kCalls = 500;
    auto predict = [&net](int k) {
        return net.predict(2.0 * k, 700.0 - k, 4.0 + k % 60);
    };
    std::vector<double> serial(kCalls);
    for (int k = 0; k < kCalls; ++k)
        serial[k] = predict(k);
    std::vector<int> mismatches(kThreads, 0);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            for (int i = 0; i < kCalls; ++i) {
                const int k = (i + 97 * t) % kCalls;
                mismatches[t] += predict(k) != serial[k];
            }
        });
    }
    for (std::thread &th : threads)
        th.join();
    for (int t = 0; t < kThreads; ++t)
        EXPECT_EQ(mismatches[t], 0) << "thread " << t;
}

TEST(SsdKeeper, ProfilesAndStaticallyRepartitions)
{
    Testbed tb(smallOpts());
    SsdKeeperPolicy p;
    p.setup(tb, pair(), slos());
    tb.warmupFill();
    tb.startWorkloads();
    tb.run(sec(1));
    p.prepare(tb);
    const auto n0 = tb.vssds().get(0)->ftl().channels().size();
    const auto n1 = tb.vssds().get(1)->ftl().channels().size();
    EXPECT_EQ(n0 + n1, 16u);
    EXPECT_GE(n1, n0);  // BI demand >= LS demand
}

TEST(FleetIo, SetupDeploysControllerAndAgents)
{
    Testbed tb(smallOpts());
    FleetIoPolicy p;
    p.setup(tb, pair(), slos());
    ASSERT_NE(p.controller(), nullptr);
    EXPECT_EQ(p.controller()->numAgents(), 2u);
    // Customized alphas by workload type.
    EXPECT_DOUBLE_EQ(p.controller()->agent(0)->alpha(),
                     alphaForKind(WorkloadKind::kVdiWeb));
    EXPECT_DOUBLE_EQ(p.controller()->agent(1)->alpha(), 0.0);
}

TEST(FleetIo, UnifiedVariantUsesOneAlpha)
{
    Testbed tb(smallOpts());
    auto p = makePolicy(PolicyKind::kFleetIoUnifiedGlobal);
    p->setup(tb, pair(), slos());
    auto *fp = dynamic_cast<FleetIoPolicy *>(p.get());
    ASSERT_NE(fp, nullptr);
    EXPECT_DOUBLE_EQ(fp->controller()->agent(0)->alpha(), 0.01);
    EXPECT_DOUBLE_EQ(fp->controller()->agent(1)->alpha(), 0.01);
}

TEST(MixedIsolation, LayoutSplitsLsHwAndBiSw)
{
    Testbed tb(smallOpts());
    MixedIsolationPolicy p;
    // mix3: 2 VDI-Web (HW-isolated), 2 TeraSort (SW-shared).
    p.setup(tb,
            {WorkloadKind::kVdiWeb, WorkloadKind::kVdiWeb,
             WorkloadKind::kTeraSort, WorkloadKind::kTeraSort},
            {msec(2), msec(2), msec(30), msec(30)});
    EXPECT_EQ(tb.vssds().get(0)->ftl().channels().size(), 4u);
    EXPECT_EQ(tb.vssds().get(1)->ftl().channels().size(), 4u);
    EXPECT_EQ(tb.vssds().get(2)->ftl().channels().size(), 8u);
    EXPECT_EQ(tb.vssds().get(3)->ftl().channels(),
              tb.vssds().get(2)->ftl().channels());
}

}  // namespace
}  // namespace fleetio
