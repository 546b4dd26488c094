/**
 * @file
 * Exact heap-allocation gate. Each cell runs one experiment through
 * runExperiment()'s steps and counts global operator new calls over
 * policy->prepare() and over the measure phase (beforeMeasure through
 * endMeasurement). Both counts must equal the constants committed
 * below. The simulator is deterministic, so the counts repeat exactly
 * from run to run, from -O0 to -O3 and under ASan + UBSan (GCC 12.2's
 * libstdc++); any allocation added to or removed from those paths
 * changes them.
 *
 * Changing a constant is a reviewed edit: take the "got" number from
 * the failure message and give the reason for the change in
 * CHANGES.md.
 *
 * The counting operator new is simbench/alloc_count.cc, linked into
 * this binary only. Its counter is a plain global, so these tests stay
 * out of fleetio_tests, whose parallel-harness tests run many threads.
 */
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "simbench/alloc_count.h"
#include "src/harness/experiment.h"
#include "src/virt/channel_allocator.h"

namespace fleetio {
namespace {

/** One finished cell. The policy is declared after the testbed so it
 *  is destroyed first, as in runExperiment(). */
struct Cell
{
    std::unique_ptr<Testbed> tb;
    std::unique_ptr<Policy> policy;
    SimTime measure_start = 0;
    std::uint64_t prepare_allocs = 0;
    std::uint64_t measure_allocs = 0;
};

/** Table-5 mix4 under @p policy: 100 ms windows, seed 7, 0.5 s warm-up
 *  and 2 s measured. */
ExperimentSpec
gateSpec(PolicyKind policy)
{
    ExperimentSpec spec;
    spec.workloads = {WorkloadKind::kVdiWeb, WorkloadKind::kYcsbB,
                      WorkloadKind::kTeraSort, WorkloadKind::kPageRank};
    spec.policy = policy;
    spec.opts.window = msec(100);
    spec.opts.seed = 7;
    spec.warm_run = msec(500);
    spec.measure = sec(2);
    return spec;
}

/** runExperiment()'s steps, counting allocations over prepare and
 *  over the measure phase. */
Cell
runCell(const ExperimentSpec &spec)
{
    std::vector<SimTime> slos;
    for (WorkloadKind kind : spec.workloads)
        slos.push_back(
            calibratedSlo(kind, spec.workloads.size(), spec.opts));

    Cell c;
    c.tb = std::make_unique<Testbed>(spec.opts);
    Testbed &tb = *c.tb;
    c.policy = makePolicy(spec.policy);
    c.policy->setup(tb, spec.workloads, slos);

    tb.warmupFill();
    tb.startWorkloads();
    tb.run(spec.warm_run);

    const std::uint64_t a0 = simbench::heapAllocations();
    c.policy->prepare(tb);
    const std::uint64_t a1 = simbench::heapAllocations();

    c.measure_start = tb.eq().now();
    c.policy->beforeMeasure(tb);
    tb.beginMeasurement();
    tb.startChurn();
    tb.run(spec.measure);
    tb.endMeasurement();
    const std::uint64_t a2 = simbench::heapAllocations();

    c.prepare_allocs = a1 - a0;
    c.measure_allocs = a2 - a1;
    return c;
}

void
expectAllocs(const Cell &c, std::uint64_t prepare, std::uint64_t measure)
{
    EXPECT_EQ(c.prepare_allocs, prepare)
        << "prepare-phase heap allocations: got " << c.prepare_allocs
        << ", committed " << prepare;
    EXPECT_EQ(c.measure_allocs, measure)
        << "measure-phase heap allocations: got " << c.measure_allocs
        << ", committed " << measure;
}

TEST(AllocGate, HardwareIsolation)
{
    const Cell c = runCell(gateSpec(PolicyKind::kHardwareIsolation));
    expectAllocs(c, 0, 24400);
}

TEST(AllocGate, SoftwareIsolationWithEveryObsSink)
{
    ExperimentSpec spec = gateSpec(PolicyKind::kSoftwareIsolation);
    spec.opts.obs.trace = true;
    spec.opts.obs.metrics = true;
    spec.opts.obs.attribution = true;
    spec.opts.obs.drift = true;
    const Cell c = runCell(spec);
    ASSERT_NE(c.tb->tracer(), nullptr);
    ASSERT_NE(c.tb->attribution(), nullptr);
    expectAllocs(c, 0, 30432);
}

TEST(AllocGate, FleetIo)
{
    const Cell c = runCell(gateSpec(PolicyKind::kFleetIo));
    expectAllocs(c, 492980, 16612);
}

TEST(AllocGate, FleetIoWithFaults)
{
    ExperimentSpec spec = gateSpec(PolicyKind::kFleetIo);
    FaultConfig &f = spec.opts.faults;
    f.read_retry_prob = 1e-2;
    f.program_fail_prob = 1e-3;
    f.erase_fail_prob = 1e-2;
    f.chip_slowdown_prob = 1e-3;
    f.wear_error_growth = 1e-5;
    const Cell c = runCell(spec);
    EXPECT_GT(c.tb->faultCounters().read_retries, 0u);
    expectAllocs(c, 501727, 16125);
}

TEST(AllocGate, FleetIoWithChurn)
{
    ExperimentSpec spec = gateSpec(PolicyKind::kFleetIo);
    // The device starts fully carved, so the arrival waits for the
    // departed tenant's scrub (about 2.7 s) and is admitted at 3.5 s.
    spec.measure = sec(4);
    const SsdGeometry &geo = spec.opts.geo;
    ChurnEvent leave;
    leave.at = msec(200);
    leave.kind = ChurnEvent::Kind::kRemove;
    leave.remove_id = 1;
    ChurnEvent join;
    join.at = msec(400);
    join.kind = ChurnEvent::Kind::kArrive;
    join.workload = WorkloadKind::kMlPrep;
    join.channels = 4;
    join.quota_blocks = ChannelAllocator::quotaForChannels(geo, 4);
    join.declared_mbps = geo.channelBandwidthMBps() * 4;
    join.slo = calibratedSlo(WorkloadKind::kMlPrep,
                             spec.workloads.size(), spec.opts);
    spec.opts.churn.schedule = {leave, join};
    ElasticTenancyConfig &el = spec.opts.churn.elastic;
    el.pressure_interval = spec.opts.window;
    el.admission.backoff_base = msec(100);
    el.admission.backoff_cap = msec(800);
    el.admission.max_retries = 8;
    const Cell c = runCell(spec);
    ASSERT_NE(c.tb->elastic(), nullptr);
    EXPECT_EQ(c.tb->elastic()->stats().removals_completed, 1u);
    EXPECT_EQ(c.tb->elastic()->stats().admitted, 1u);
    expectAllocs(c, 492980, 25412);
}

TEST(AllocGate, HardwareIsolationWithPowerLoss)
{
    ExperimentSpec spec = gateSpec(PolicyKind::kHardwareIsolation);
    spec.opts.crash.plan.trigger = CrashPlan::Trigger::kSimTime;
    spec.opts.crash.plan.at = spec.warm_run + spec.measure / 2;
    const Cell c = runCell(spec);
    ASSERT_TRUE(c.tb->recovered());
    EXPECT_GT(c.tb->recoveryReport().crash_time, c.measure_start);
    expectAllocs(c, 0, 128809);
}

TEST(AllocGate, SsdKeeper)
{
    const Cell c = runCell(gateSpec(PolicyKind::kSsdKeeper));
    expectAllocs(c, 6266, 23852);
}

}  // namespace
}  // namespace fleetio
