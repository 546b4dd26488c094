/**
 * @file
 * Exact heap-allocation gate. Each cell runs one experiment through
 * runExperiment() and, from its step hook, counts global operator new
 * calls over policy->prepare() and over the measure phase
 * (beforeMeasure through endMeasurement). Both counts must equal the
 * constants committed below. The simulator is deterministic, so the
 * counts repeat exactly from run to run, from -O0 to -O3 and under
 * ASan + UBSan (GCC 12.2's libstdc++); any allocation added to or
 * removed from those paths changes them.
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
#include <cstdlib>
#include <functional>

#include "simbench/alloc_count.h"
#include "src/harness/experiment.h"
#include "src/virt/channel_allocator.h"

namespace fleetio {
namespace {

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

/**
 * Runs @p spec and checks its allocations over prepare and over the
 * measure phase against the committed counts. @p inspect, if given,
 * sees the testbed once the measure has ended. @return the result.
 */
ExperimentResult
expectAllocs(ExperimentSpec spec, std::uint64_t prepare,
             std::uint64_t measure,
             const std::function<void(Testbed &)> &inspect = {})
{
    // runExperiment turns every obs sink on under FLEETIO_TRACE=1,
    // which would change the counts.
    ::unsetenv("FLEETIO_TRACE");
    std::uint64_t warmed = 0;
    std::uint64_t prepared = 0;
    std::uint64_t measured = 0;
    spec.on_step = [&](ExperimentStep step, Testbed &tb, Policy &) {
        if (step == ExperimentStep::kWarmedUp) {
            warmed = simbench::heapAllocations();
        } else if (step == ExperimentStep::kPrepared) {
            prepared = simbench::heapAllocations();
        } else if (step == ExperimentStep::kMeasured) {
            measured = simbench::heapAllocations();
            if (inspect)
                inspect(tb);
        }
    };
    const ExperimentResult res = runExperiment(spec);
    EXPECT_EQ(prepared - warmed, prepare)
        << "prepare-phase heap allocations: got " << prepared - warmed
        << ", committed " << prepare;
    EXPECT_EQ(measured - prepared, measure)
        << "measure-phase heap allocations: got " << measured - prepared
        << ", committed " << measure;
    return res;
}

TEST(AllocGate, HardwareIsolation)
{
    expectAllocs(gateSpec(PolicyKind::kHardwareIsolation), 0, 24400);
}

TEST(AllocGate, SoftwareIsolationWithEveryObsSink)
{
    ExperimentSpec spec = gateSpec(PolicyKind::kSoftwareIsolation);
    spec.opts.obs.trace = true;
    spec.opts.obs.metrics = true;
    spec.opts.obs.attribution = true;
    spec.opts.obs.drift = true;
    expectAllocs(spec, 0, 30432, [](Testbed &tb) {
        EXPECT_NE(tb.tracer(), nullptr);
        EXPECT_NE(tb.attribution(), nullptr);
    });
}

TEST(AllocGate, FleetIo)
{
    expectAllocs(gateSpec(PolicyKind::kFleetIo), 492980, 16612);
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
    const ExperimentResult res = expectAllocs(spec, 501727, 16125);
    EXPECT_GT(res.faults.read_retries, 0u);
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
    const ExperimentResult res = expectAllocs(spec, 492980, 25412);
    EXPECT_EQ(res.churn.removals_completed, 1u);
    EXPECT_EQ(res.churn.admitted, 1u);
}

TEST(AllocGate, HardwareIsolationWithPowerLoss)
{
    ExperimentSpec spec = gateSpec(PolicyKind::kHardwareIsolation);
    spec.opts.crash.plan.trigger = CrashPlan::Trigger::kSimTime;
    spec.opts.crash.plan.at = spec.warm_run + spec.measure / 2;
    expectAllocs(spec, 0, 128809, [](Testbed &tb) {
        EXPECT_TRUE(tb.recovered());
        EXPECT_GT(tb.recoveryReport().crash_time, tb.measureStart());
    });
}

TEST(AllocGate, SsdKeeper)
{
    expectAllocs(gateSpec(PolicyKind::kSsdKeeper), 6266, 23852);
}

}  // namespace
}  // namespace fleetio
