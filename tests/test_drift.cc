/** @file Tests for the agent drift monitors: PSI/KL math, baseline
 *  freeze, swap flagging, and determinism across harness job counts. */
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <string>
#include <vector>

#include "src/harness/parallel.h"
#include "src/harness/testbed.h"
#include "src/obs/drift.h"
#include "src/policies/fleetio_policy.h"
#include "src/workloads/generators.h"

namespace fleetio {
namespace {

using obs::DriftMonitor;

DriftMonitor::Config
fastConfig()
{
    DriftMonitor::Config cfg;
    cfg.baseline_windows = 2;
    cfg.psi_threshold = 0.25;
    return cfg;
}

/** One window where the agent always picks @p code. */
void
window(DriftMonitor &m, VssdId id, std::uint64_t code,
       std::size_t repeats = 4)
{
    for (std::size_t i = 0; i < repeats; ++i)
        m.recordAction(id, code);
    m.rollWindow();
}

TEST(Drift, BaselineWindowsPoolThenScoringStarts)
{
    DriftMonitor m(fastConfig());
    window(m, 0, 1);
    window(m, 0, 1);
    EXPECT_EQ(m.windowsSeen(), 2u);
    EXPECT_EQ(m.windowsScored(), 0u);
    EXPECT_TRUE(m.scores().empty());

    // Identical behaviour (same bin, same total mass as the pooled
    // baseline): scored, with an exactly-zero divergence.
    window(m, 0, 1, 8);
    EXPECT_EQ(m.windowsScored(), 1u);
    ASSERT_EQ(m.scores().size(), 1u);
    EXPECT_FALSE(m.scores()[0].flagged);
    EXPECT_LT(m.scores()[0].psi, 0.05);
    EXPECT_GE(m.scores()[0].kl, 0.0);
    EXPECT_EQ(m.flaggedWindows(), 0u);
}

TEST(Drift, BehaviourSwapFlagsAndRaisesPsi)
{
    DriftMonitor m(fastConfig());
    window(m, 0, 1);
    window(m, 0, 1);
    window(m, 0, 1, 8);  // stable window
    const double stable_psi = m.latest(0).psi;

    window(m, 0, 9);  // the swap: a bin the baseline never saw
    EXPECT_EQ(m.windowsScored(), 2u);
    const DriftMonitor::Score s = m.latest(0);
    EXPECT_TRUE(s.flagged);
    EXPECT_GT(s.psi, 0.25);
    EXPECT_GT(s.psi, stable_psi);
    EXPECT_GT(s.kl, 0.0);
    EXPECT_EQ(m.flaggedWindows(), 1u);
    EXPECT_EQ(m.flaggedWindows(0), 1u);
    EXPECT_EQ(m.flaggedWindows(1), 0u);
    EXPECT_DOUBLE_EQ(m.maxPsi(), s.psi);
}

TEST(Drift, QuietWindowKeepsLatestScoreButMintsNoneNew)
{
    DriftMonitor m(fastConfig());
    window(m, 0, 1);
    window(m, 0, 1);
    window(m, 0, 9);
    const std::uint64_t scored = m.windowsScored();
    const DriftMonitor::Score before = m.latest(0);
    ASSERT_TRUE(before.flagged);

    // The agent goes quiet (no decisions recorded this window).
    m.rollWindow();
    EXPECT_EQ(m.latest(0).window, before.window);
    EXPECT_EQ(m.flaggedWindows(), 1u);
    EXPECT_GT(m.windowsSeen(), scored + fastConfig().baseline_windows);
}

TEST(Drift, MarkBaselineForgetsHistory)
{
    DriftMonitor m(fastConfig());
    window(m, 0, 1);
    window(m, 0, 1);
    window(m, 0, 9);
    ASSERT_EQ(m.flaggedWindows(), 1u);

    m.markBaseline();
    EXPECT_EQ(m.windowsSeen(), 0u);
    EXPECT_EQ(m.windowsScored(), 0u);
    EXPECT_EQ(m.flaggedWindows(), 0u);
    EXPECT_DOUBLE_EQ(m.maxPsi(), 0.0);
    EXPECT_TRUE(m.scores().empty());

    // The new baseline is the new normal: 9 no longer drifts.
    window(m, 0, 9);
    window(m, 0, 9);
    window(m, 0, 9);
    EXPECT_EQ(m.flaggedWindows(), 0u);
}

TEST(Drift, RemoveAgentDropsItsStateOnly)
{
    DriftMonitor m(fastConfig());
    for (int w = 0; w < 3; ++w) {
        for (VssdId id = 0; id < 2; ++id) {
            m.recordAction(id, id == 0 ? 1 : 5);
        }
        m.rollWindow();
    }
    m.removeAgent(0);
    EXPECT_EQ(m.latest(0).window, 0u);
    // The survivor keeps scoring.
    window(m, 1, 5);
    EXPECT_EQ(m.latest(1).tenant, VssdId(1));
}

TEST(Drift, PsiAndKlMatchHandComputedValues)
{
    // baseline: one window, 4 actions in bin 1; scored window: 4
    // actions in bin 2. kBins=16, epsilon=0.5 on both sides.
    DriftMonitor::Config cfg;
    cfg.baseline_windows = 1;
    DriftMonitor m(cfg);
    window(m, 0, 1);
    window(m, 0, 2);

    const double eps = DriftMonitor::kEpsilon;
    const double btot = 4 + eps * DriftMonitor::kBins;
    const double wtot = 4 + eps * DriftMonitor::kBins;
    double psi = 0.0, kl = 0.0;
    for (std::size_t b = 0; b < DriftMonitor::kBins; ++b) {
        const double p = ((b == 2 ? 4 : 0) + eps) / wtot;  // current
        const double q = ((b == 1 ? 4 : 0) + eps) / btot;  // baseline
        psi += (p - q) * std::log(p / q);
        kl += p * std::log(p / q);
    }
    const DriftMonitor::Score s = m.latest(0);
    EXPECT_NEAR(s.psi, psi, 1e-12);
    EXPECT_NEAR(s.kl, std::max(kl, 0.0), 1e-12);
    EXPECT_TRUE(s.flagged);
}

TEST(Drift, WriteJsonListsScores)
{
    DriftMonitor m(fastConfig());
    window(m, 0, 1);
    window(m, 0, 1);
    window(m, 0, 9);
    std::ostringstream os;
    m.writeJson(os);
    const std::string json = os.str();
    EXPECT_NE(json.find("\"tenant\":0"), std::string::npos);
    EXPECT_NE(json.find("\"flagged\":true"), std::string::npos);
}

/** Outcome of one small drift-enabled FleetIO cell. */
struct DriftCell
{
    std::uint64_t scored = 0;
    std::uint64_t flagged = 0;
    double max_psi = 0.0;
    std::uint64_t events = 0;

    bool operator==(const DriftCell &o) const
    {
        return scored == o.scored && flagged == o.flagged &&
               max_psi == o.max_psi && events == o.events;
    }
};

DriftCell
runDriftCell()
{
    TestbedOptions opts;
    opts.geo = testGeometry();
    opts.window = msec(50);
    opts.obs.drift = true;
    Testbed tb(opts);
    FleetIoPolicy::Variant v;
    v.train_windows = 30;
    FleetIoPolicy p(v);
    p.setup(tb, {WorkloadKind::kVdiWeb, WorkloadKind::kTeraSort},
            {msec(2), msec(30)});
    tb.warmupFill();
    tb.startWorkloads();
    tb.run(msec(500));
    p.prepare(tb);
    p.beforeMeasure(tb);
    tb.beginMeasurement();
    tb.run(msec(500));
    // Swap the LS workload so scored windows actually diverge.
    tb.workload(0).morphTo(profileFor(WorkloadKind::kPageRank, 2.0));
    tb.run(msec(500));
    tb.endMeasurement();

    DriftCell out;
    out.scored = tb.drift()->windowsScored();
    out.flagged = tb.drift()->flaggedWindows();
    out.max_psi = tb.drift()->maxPsi();
    out.events = tb.eq().dispatched();
    return out;
}

TEST(Drift, DeterministicAcrossHarnessJobCounts)
{
    // The monitor must be a pure function of the simulated decision
    // stream: running the identical cell serially and under a
    // multi-worker parallelMap (FLEETIO_BENCH_JOBS analogue) has to
    // produce bit-identical drift results.
    const std::vector<int> items{0, 1};
    const auto serial =
        parallelMap(items, [](int) { return runDriftCell(); }, 1);
    const auto threaded =
        parallelMap(items, [](int) { return runDriftCell(); }, 2);
    ASSERT_EQ(serial.size(), 2u);
    ASSERT_EQ(threaded.size(), 2u);
    EXPECT_TRUE(serial[0] == serial[1]);
    EXPECT_TRUE(serial[0] == threaded[0]);
    EXPECT_TRUE(serial[0] == threaded[1]);
    // The default 8-window baseline leaves windows to score, and the
    // swap shows up as flags.
    EXPECT_GT(serial[0].scored, 0u);
    EXPECT_GT(serial[0].flagged, 0u);
}

}  // namespace
}  // namespace fleetio
