/** @file Tests for elastic tenancy under churn (DESIGN.md §11). */
#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <vector>

#include "src/check/audit.h"
#include "src/harness/parallel.h"
#include "src/harness/testbed.h"
#include "src/policies/fleetio_policy.h"
#include "src/virt/channel_allocator.h"
#include "src/virt/qos_tier.h"

namespace fleetio {
namespace {

/** Everything a churn run produces, comparable bit-for-bit. */
struct Digest
{
    std::vector<double> util;
    std::vector<std::uint64_t> tenant_bytes;
    ChurnStats churn{};
    std::uint32_t free_channels = 0;
    std::uint64_t events = 0;
};

bool
operator==(const Digest &a, const Digest &b)
{
    return a.util == b.util && a.tenant_bytes == b.tenant_bytes &&
           a.churn.arrivals == b.churn.arrivals &&
           a.churn.admitted == b.churn.admitted &&
           a.churn.retries == b.churn.retries &&
           a.churn.rejected == b.churn.rejected &&
           a.churn.removals_completed == b.churn.removals_completed &&
           a.churn.tier_stepdowns == b.churn.tier_stepdowns &&
           a.free_channels == b.free_channels && a.events == b.events;
}

TestbedOptions
baseOptions()
{
    TestbedOptions opts;
    opts.geo = testGeometry();
    opts.window = msec(50);
    return opts;
}

/** Two hardware-isolated tenants on 8 + 8 channels. */
void
addPair(Testbed &tb)
{
    const auto &geo = tb.device().geometry();
    const auto split = ChannelAllocator::equalSplit(geo, 2);
    const auto quota = geo.totalBlocks() / 2;
    tb.addTenant(WorkloadKind::kVdiWeb, split[0], quota, msec(2));
    tb.addTenant(WorkloadKind::kTeraSort, split[1], quota, msec(30));
}

ChurnEvent
arrive(SimTime at, std::uint32_t channels, const SsdGeometry &geo)
{
    ChurnEvent ev;
    ev.at = at;
    ev.kind = ChurnEvent::Kind::kArrive;
    ev.workload = WorkloadKind::kYcsbB;
    ev.channels = channels;
    ev.quota_blocks = ChannelAllocator::quotaForChannels(geo, channels);
    ev.declared_mbps = geo.channelBandwidthMBps() * channels;
    return ev;
}

ChurnEvent
remove(SimTime at, VssdId id)
{
    ChurnEvent ev;
    ev.at = at;
    ev.kind = ChurnEvent::Kind::kRemove;
    ev.remove_id = id;
    return ev;
}

Digest
runChurn(const TestbedOptions &opts, SimTime duration)
{
    Testbed tb(opts);
    addPair(tb);
    tb.warmupFill();
    tb.startWorkloads();
    tb.run(msec(200));
    tb.beginMeasurement();
    tb.startChurn();
    tb.run(duration);
    tb.endMeasurement();

    Digest d;
    d.util = tb.utilizationSamples();
    for (auto *v : tb.vssds().active())
        d.tenant_bytes.push_back(v->bandwidth().totalBytes());
    if (tb.elastic() != nullptr) {
        d.churn = tb.elastic()->stats();
        d.free_channels = tb.elastic()->ledger().freeChannels();
    }
    d.events = tb.eq().dispatched();
    return d;
}

TestbedOptions
churnOptions()
{
    TestbedOptions opts = baseOptions();
    opts.churn.schedule.push_back(remove(msec(100), VssdId(1)));
    opts.churn.schedule.push_back(arrive(msec(150), 4, opts.geo));
    auto &adm = opts.churn.elastic.admission;
    adm.backoff_base = msec(50);
    adm.backoff_cap = msec(400);
    adm.max_retries = 30;
    return opts;
}

TEST(ElasticTenancy, StaticRunsNeverConstructTheElasticLayer)
{
    // No schedule -> no manager, even when elastic knobs were touched:
    // the static path stays byte-identical to a testbed without the
    // elastic layer.
    TestbedOptions opts = baseOptions();
    opts.churn.elastic.degrade_slo_1 = 0.01;
    Testbed tb(opts);
    EXPECT_EQ(tb.elastic(), nullptr);
    tb.startChurn();  // must be a no-op
    EXPECT_EQ(tb.eq().dispatched(), 0u);
}

TEST(ElasticTenancy, StaticOutputUnaffectedByElasticConfig)
{
    TestbedOptions plain = baseOptions();
    TestbedOptions tweaked = baseOptions();
    tweaked.churn.elastic.admission.max_retries = 1;
    tweaked.churn.elastic.pressure_interval = msec(1);
    const Digest a = runChurn(plain, sec(1));
    const Digest b = runChurn(tweaked, sec(1));
    EXPECT_TRUE(a == b);
}

TEST(ElasticTenancy, ChurnTestbedRejectsAnInvalidConfig)
{
    // Checked in every build type, not only where assert is compiled in.
    TestbedOptions unordered = churnOptions();
    unordered.churn.elastic.degrade_slo_1 = 0.6;  // above degrade_slo_2
    EXPECT_THROW(Testbed tb(unordered), std::invalid_argument);

    TestbedOptions no_recovery = churnOptions();
    no_recovery.churn.elastic.recover_evals = 0;
    EXPECT_THROW(Testbed tb(no_recovery), std::invalid_argument);

    TestbedOptions bad_admission = churnOptions();
    bad_admission.churn.elastic.admission.max_retries = -1;
    EXPECT_THROW(Testbed tb(bad_admission), std::invalid_argument);
}

TEST(ElasticTenancy, ChurnRunsAreBitIdenticalAcrossRunsAndJobs)
{
    const TestbedOptions opts = churnOptions();
    const Digest serial = runChurn(opts, sec(4));

    // Same schedule re-run serially and under a parallel harness
    // (FLEETIO_BENCH_JOBS-style fan-out) must match bit-for-bit.
    const std::vector<int> lanes = {0, 1};
    const auto parallel = parallelMap(
        lanes, [&opts](int) { return runChurn(opts, sec(4)); }, 2);
    EXPECT_TRUE(serial == parallel[0]);
    EXPECT_TRUE(serial == parallel[1]);
    EXPECT_GE(serial.churn.admitted, 1u);
    EXPECT_GE(serial.churn.removals_completed, 1u);
}

TEST(ElasticTenancy, RemovalDrainsScrubsAndReclaimsUnderFaults)
{
    TestbedOptions opts = churnOptions();
    opts.churn.schedule.clear();
    opts.churn.schedule.push_back(remove(msec(100), VssdId(1)));
    // Program/erase faults race the drain-then-reclaim path.
    opts.faults.program_fail_prob = 1e-3;
    opts.faults.erase_fail_prob = 1e-2;

    Testbed tb(opts);
    addPair(tb);
    tb.warmupFill();
    tb.startWorkloads();
    tb.run(msec(200));
    tb.startChurn();
    tb.run(sec(5));

    ASSERT_NE(tb.elastic(), nullptr);
    const ChurnStats &cs = tb.elastic()->stats();
    EXPECT_EQ(cs.removals_requested, 1u);
    EXPECT_EQ(cs.removals_completed, 1u);
    EXPECT_EQ(tb.elastic()->removalsInFlight(), 0u);

    // The tenant is gone: dead, drained, zero blocks, no gSB refs,
    // and its channels are back in the free pool.
    EXPECT_FALSE(tb.vssds().alive(1));
    EXPECT_TRUE(tb.scheduler().tenantQuiesced(1));
    Vssd *gone = tb.vssds().get(1);
    ASSERT_NE(gone, nullptr);
    EXPECT_EQ(gone->ftl().blocksUsed(), 0u);
    EXPECT_FALSE(tb.gsb().hasGsbsForHome(1));
    EXPECT_EQ(tb.elastic()->ledger().freeChannels(), 8u);

    // The survivor's mappings are intact despite the injected faults.
    for (auto *v : tb.vssds().active())
        EXPECT_EQ(check::auditMappings(tb.device(), v->ftl()), "");
    EXPECT_EQ(check::auditBlocks(tb.device()), "");
}

TEST(ElasticTenancy, ArrivalWaitsForChannelsThenIsProvisioned)
{
    const TestbedOptions opts = churnOptions();
    Testbed tb(opts);
    addPair(tb);
    tb.warmupFill();
    tb.startWorkloads();
    tb.run(msec(200));
    tb.startChurn();
    tb.run(sec(5));

    ASSERT_NE(tb.elastic(), nullptr);
    const ChurnStats &cs = tb.elastic()->stats();
    // The device starts fully carved, so the arrival must have backed
    // off at least once before the removal's scrub freed channels.
    EXPECT_EQ(cs.admitted, 1u);
    EXPECT_GE(cs.retries, 1u);
    EXPECT_LE(cs.max_attempts_observed,
              tb.elastic()->config().admission.max_retries);
    EXPECT_EQ(tb.elastic()->queuedArrivals(), 0u);

    // The newcomer is live on exactly the 4 carved channels and its
    // workload is generating I/O.
    const VssdId id = 2;
    ASSERT_TRUE(tb.vssds().alive(id));
    EXPECT_EQ(tb.vssds().get(id)->config().channels.size(), 4u);
    std::uint32_t owned = 0;
    for (ChannelId ch = 0;
         ch < tb.elastic()->ledger().totalChannels(); ++ch) {
        if (tb.elastic()->ledger().ownerOf(ch) == id)
            ++owned;
    }
    EXPECT_EQ(owned, 4u);
    EXPECT_GT(tb.workload(id).issued(), 0u);
}

TEST(ElasticTenancy, ExhaustedRetriesRejectTheArrival)
{
    TestbedOptions opts = baseOptions();
    // No removal ever frees channels: the arrival must exhaust its
    // bounded retry budget and be rejected, not spin forever.
    opts.churn.schedule.push_back(arrive(msec(100), 4, opts.geo));
    auto &adm = opts.churn.elastic.admission;
    adm.backoff_base = msec(50);
    adm.backoff_cap = msec(200);
    adm.max_retries = 4;

    Testbed tb(opts);
    addPair(tb);
    tb.warmupFill();
    tb.startWorkloads();
    tb.run(msec(200));
    tb.startChurn();
    tb.run(sec(2));

    ASSERT_NE(tb.elastic(), nullptr);
    const ChurnStats &cs = tb.elastic()->stats();
    EXPECT_EQ(cs.admitted, 0u);
    EXPECT_EQ(cs.rejected, 1u);
    EXPECT_LE(cs.max_attempts_observed, 4);
    EXPECT_EQ(tb.elastic()->queuedArrivals(), 0u);
    EXPECT_EQ(tb.numTenants(), 2u);
}

TEST(ElasticTenancy, QosTierClampIsIdentityAtG0AndFloorsCompose)
{
    // Pure G-state algebra: G0 must be a perfect no-op (byte-identity
    // of static runs depends on it), floors only ever worsen.
    static_assert(qosTierSpec(QosTier::kG0).bw_fraction == 0.0);
    static_assert(qosTierSpec(QosTier::kG0).may_harvest);
    static_assert(!qosTierSpec(QosTier::kG2).may_harvest);
    EXPECT_EQ(clampPriority(Priority::kHigh, QosTier::kG0),
              Priority::kHigh);
    EXPECT_EQ(clampPriority(Priority::kHigh, QosTier::kG1),
              Priority::kMedium);
    EXPECT_EQ(clampPriority(Priority::kLow, QosTier::kG1),
              Priority::kLow);
    EXPECT_EQ(clampPriority(Priority::kHigh, QosTier::kG3),
              Priority::kLow);

    TestbedOptions opts = baseOptions();
    Testbed tb(opts);
    addPair(tb);
    Vssd &v = *tb.vssds().get(0);
    EXPECT_EQ(v.effectiveTier(), QosTier::kG0);
    v.setTierFloor(QosTier::kG2);
    EXPECT_EQ(v.effectiveTier(), QosTier::kG2);
    v.setTierFloor(QosTier::kG3);
    EXPECT_EQ(v.effectiveTier(), QosTier::kG3);
    v.setPriority(Priority::kHigh);
    EXPECT_EQ(v.effectivePriority(), Priority::kLow);
}

TEST(ElasticTenancy, HotAddedAgentJoinsTheControllerMidRun)
{
    TestbedOptions opts = churnOptions();
    opts.window = msec(50);

    Testbed tb(opts);
    FleetIoPolicy::Variant var;
    var.train_windows = 30;
    FleetIoPolicy policy(var);
    const std::vector<WorkloadKind> kinds = {WorkloadKind::kVdiWeb,
                                             WorkloadKind::kTeraSort};
    policy.setup(tb, kinds, {msec(2), msec(30)});
    tb.warmupFill();
    tb.startWorkloads();
    tb.run(msec(500));
    policy.prepare(tb);
    ASSERT_EQ(policy.controller()->numAgents(), 2u);

    tb.startChurn();
    tb.run(sec(5));

    // Tenant 1's agent retired with it; the arrival brought its own,
    // bootstrapped mid-run from the teacher policy.
    const ChurnStats &cs = tb.elastic()->stats();
    EXPECT_EQ(cs.removals_completed, 1u);
    EXPECT_GE(cs.admitted, 1u);
    EXPECT_EQ(policy.controller()->numAgents(), 2u);
    EXPECT_EQ(policy.controller()->agent(1), nullptr);
    EXPECT_NE(policy.controller()->agent(2), nullptr);
    if (policy.controller()->supervisor() != nullptr) {
        EXPECT_EQ(policy.controller()->supervisor()->numAttached(), 2u);
    }
}

}  // namespace
}  // namespace fleetio
