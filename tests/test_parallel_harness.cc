/** @file Tests for the experiment harness: runExperiment's step hook,
 *  the outcome digest and the parallel runner. */
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <set>
#include <stdexcept>
#include <thread>

#include "src/harness/parallel.h"
#include "src/virt/channel_allocator.h"

namespace fleetio {
namespace {

TEST(ThreadPool, RunsEverySubmittedTask)
{
    ThreadPool pool(4);
    EXPECT_EQ(pool.size(), 4u);
    std::atomic<int> ran{0};
    for (int i = 0; i < 100; ++i)
        pool.submit([&ran] { ++ran; });
    pool.wait();
    EXPECT_EQ(ran.load(), 100);
}

TEST(ThreadPool, WaitIsReusableAcrossBatches)
{
    ThreadPool pool(2);
    std::atomic<int> ran{0};
    pool.submit([&ran] { ++ran; });
    pool.wait();
    EXPECT_EQ(ran.load(), 1);
    pool.submit([&ran] { ++ran; });
    pool.submit([&ran] { ++ran; });
    pool.wait();
    EXPECT_EQ(ran.load(), 3);
}

TEST(ParallelMap, PreservesItemOrder)
{
    std::vector<int> items(64);
    for (int i = 0; i < 64; ++i)
        items[i] = i;
    const auto out = parallelMap(
        items, [](const int &v) { return v * v; }, 8);
    ASSERT_EQ(out.size(), items.size());
    for (int i = 0; i < 64; ++i)
        EXPECT_EQ(out[i], i * i);
}

TEST(ParallelMap, SerialAndParallelAgree)
{
    std::vector<int> items(33);
    for (int i = 0; i < 33; ++i)
        items[i] = i * 3 + 1;
    auto fn = [](const int &v) { return v * 7 - 2; };
    EXPECT_EQ(parallelMap(items, fn, 1), parallelMap(items, fn, 4));
}

TEST(ParallelMap, PropagatesTheFirstException)
{
    std::vector<int> items{1, 2, 3, 4, 5, 6, 7, 8};
    EXPECT_THROW(
        parallelMap(
            items,
            [](const int &v) -> int {
                if (v == 5)
                    throw std::runtime_error("boom");
                return v;
            },
            4),
        std::runtime_error);
}

TEST(ParallelMap, ActuallyRunsConcurrently)
{
    // With 4 jobs, 4 tasks that each wait for every sibling to start
    // can only finish if they run at the same time.
    std::vector<int> items{0, 1, 2, 3};
    std::atomic<int> started{0};
    const auto out = parallelMap(
        items,
        [&started](const int &v) {
            ++started;
            while (started.load() < 4)
                std::this_thread::yield();
            return v;
        },
        4);
    EXPECT_EQ(out, items);
}

TEST(BenchJobs, DefaultsToAtLeastOne) { EXPECT_GE(benchJobs(), 1u); }

TEST(ParallelJobCount, ParsesValidCounts)
{
    EXPECT_EQ(parallelJobCount("1", 7), 1u);
    EXPECT_EQ(parallelJobCount("8", 7), 8u);
    EXPECT_EQ(parallelJobCount("4096", 7), 4096u);
}

TEST(ParallelJobCount, MissingValueFallsBack)
{
    EXPECT_EQ(parallelJobCount(nullptr, 7), 7u);
    EXPECT_EQ(parallelJobCount("", 7), 7u);
}

TEST(ParallelJobCount, RejectsGarbage)
{
    // Trailing junk, embedded exponents, units, hex.
    EXPECT_EQ(parallelJobCount("4x", 7), 7u);
    EXPECT_EQ(parallelJobCount("1e3", 7), 7u);
    EXPECT_EQ(parallelJobCount("8 jobs", 7), 7u);
    EXPECT_EQ(parallelJobCount("0x10", 7), 7u);
    EXPECT_EQ(parallelJobCount("potato", 7), 7u);
    // strtol would quietly accept these; a job count shouldn't.
    EXPECT_EQ(parallelJobCount(" 8", 7), 7u);
    EXPECT_EQ(parallelJobCount("+8", 7), 7u);
    EXPECT_EQ(parallelJobCount("-2", 7), 7u);
}

TEST(ParallelJobCount, RejectsOutOfRange)
{
    EXPECT_EQ(parallelJobCount("0", 7), 7u);
    EXPECT_EQ(parallelJobCount("4097", 7), 7u);
    // Larger than any integer type: must not overflow into a
    // plausible-looking count.
    EXPECT_EQ(parallelJobCount("99999999999999999999", 7), 7u);
}

/** Shrunk experiment spec: small geometry, short phases. */
ExperimentSpec
tinySpec(WorkloadKind a, WorkloadKind b, PolicyKind policy)
{
    ExperimentSpec spec;
    spec.workloads = {a, b};
    spec.policy = policy;
    spec.opts.geo = testGeometry();
    spec.opts.window = msec(50);
    spec.warm_run = msec(200);
    spec.measure = msec(500);
    return spec;
}

TEST(RunExperiment, StepHookFiresOnceAtEachStepInOrder)
{
    ExperimentSpec spec = tinySpec(WorkloadKind::kVdiWeb,
                                   WorkloadKind::kTeraSort,
                                   PolicyKind::kHardwareIsolation);
    std::vector<ExperimentStep> steps;
    spec.on_step = [&steps](ExperimentStep step, Testbed &, Policy &) {
        steps.push_back(step);
    };
    runExperiment(spec);
    using S = ExperimentStep;
    EXPECT_EQ(steps, (std::vector<S>{S::kSetUp, S::kWarmedUp, S::kPrepared,
                                     S::kMeasureStart, S::kMeasured}));
}

TEST(RunExperiment, MeasureEndsSpecMeasureAfterItsStart)
{
    // A measure-start hook that runs part of the measure itself: the
    // measured region still ends spec.measure after it began, and the
    // split run is the same run.
    ExperimentSpec spec = tinySpec(WorkloadKind::kVdiWeb,
                                   WorkloadKind::kTeraSort,
                                   PolicyKind::kHardwareIsolation);
    const std::uint64_t plain = check::outcomeDigest(runExperiment(spec));
    SimTime start = 0;
    SimTime end = 0;
    spec.on_step = [&](ExperimentStep step, Testbed &tb, Policy &) {
        if (step == ExperimentStep::kMeasureStart) {
            start = tb.eq().now();
            tb.run(spec.measure / 4);
        } else if (step == ExperimentStep::kMeasured) {
            end = tb.eq().now();
        }
    };
    const ExperimentResult res = runExperiment(spec);
    EXPECT_EQ(start, spec.warm_run);
    EXPECT_EQ(end, start + spec.measure);
    EXPECT_EQ(check::outcomeDigest(res), plain);
}

TEST(RunExperiment, ObservingHookLeavesTheOutcome)
{
    ExperimentSpec spec = tinySpec(WorkloadKind::kYcsbB,
                                   WorkloadKind::kMlPrep,
                                   PolicyKind::kSoftwareIsolation);
    const std::uint64_t plain = check::outcomeDigest(runExperiment(spec));
    std::uint64_t seen = 0;
    spec.on_step = [&seen](ExperimentStep, Testbed &tb, Policy &policy) {
        seen += tb.eq().dispatched() + tb.vssds().active().size() +
                policy.name().size();
    };
    const ExperimentResult res = runExperiment(spec);
    EXPECT_GT(seen, 0u);
    EXPECT_EQ(check::outcomeDigest(res), plain);
}

TEST(RunExperiments, ParallelIsBitIdenticalToSerialLoop)
{
    // A cell's result must not depend on the grid it runs in, because
    // bench_paper runs each distinct cell once and reuses it across
    // figures. So the parallel side runs the cells in reverse order.
    // Each serial digest must also equal the one committed here; a
    // changed digest is a reviewed edit, with the reason in CHANGES.md.
    std::vector<ExperimentSpec> specs;
    std::vector<std::uint64_t> golden;
    const auto cell = [&](ExperimentSpec spec, std::uint64_t digest) {
        specs.push_back(std::move(spec));
        golden.push_back(digest);
    };
    using K = WorkloadKind;
    cell(tinySpec(K::kVdiWeb, K::kTeraSort, PolicyKind::kHardwareIsolation),
         0x3f23a0440a39ceccull);
    cell(tinySpec(K::kVdiWeb, K::kTeraSort, PolicyKind::kSoftwareIsolation),
         0x4fbd7d701e355840ull);
    cell(tinySpec(K::kYcsbB, K::kMlPrep, PolicyKind::kHardwareIsolation),
         0xa5a3f5bf3768c757ull);
    cell(tinySpec(K::kYcsbB, K::kMlPrep, PolicyKind::kSoftwareIsolation),
         0x0d77f162415bc3fcull);
    // Every SSDKeeper cell shares one static demand net.
    cell(tinySpec(K::kVdiWeb, K::kTeraSort, PolicyKind::kSsdKeeper),
         0x027da11e7f0275e7ull);
    // FleetIO on the default geometry: on testGeometry() its TeraSort
    // tenant completes no request.
    ExperimentSpec fleet;
    fleet.workloads = {K::kVdiWeb, K::kTeraSort};
    fleet.policy = PolicyKind::kFleetIo;
    fleet.opts.window = msec(100);
    fleet.warm_run = sec(1);
    fleet.measure = sec(1);
    cell(fleet, 0x8ffb396ee8019159ull);

    // NAND faults at bench_chaos's medium rates.
    ExperimentSpec faults =
        tinySpec(K::kVdiWeb, K::kTeraSort, PolicyKind::kHardwareIsolation);
    faults.opts.faults = {.read_retry_prob = 1e-2,
                          .program_fail_prob = 1e-3,
                          .erase_fail_prob = 1e-2,
                          .wear_error_growth = 1e-5,
                          .chip_slowdown_prob = 1e-3};
    cell(faults, 0x76b494053d2109efull);
    // Churn inside the measured region: a departure, then an arrival
    // admitted once the departure's channels are scrubbed.
    ExperimentSpec churn =
        tinySpec(K::kVdiWeb, K::kTeraSort, PolicyKind::kHardwareIsolation);
    churn.measure = sec(1);
    ChurnEvent leave;
    leave.kind = ChurnEvent::Kind::kRemove;
    leave.remove_id = 1;
    ChurnEvent join;
    join.at = msec(10);
    join.workload = K::kYcsbB;
    join.channels = 2;
    join.quota_blocks =
        ChannelAllocator::quotaForChannels(churn.opts.geo, 2);
    join.declared_mbps = churn.opts.geo.channelBandwidthMBps() * 2;
    churn.opts.churn.schedule = {leave, join};
    ElasticTenancyConfig &el = churn.opts.churn.elastic;
    el.pressure_interval = churn.opts.window;
    el.admission.backoff_base = msec(100);
    el.admission.backoff_cap = msec(200);
    cell(churn, 0x14067cba1b8f7d48ull);
    // Power loss half-way through the measured region.
    ExperimentSpec crash =
        tinySpec(K::kVdiWeb, K::kTeraSort, PolicyKind::kHardwareIsolation);
    crash.opts.crash.plan.trigger = CrashPlan::Trigger::kSimTime;
    crash.opts.crash.plan.at = crash.warm_run + crash.measure / 2;
    cell(crash, 0xe77c57611e1d4810ull);

    std::vector<ExperimentResult> serial;
    serial.reserve(specs.size());
    for (const auto &s : specs)
        serial.push_back(runExperiment(s));
    for (const TenantResult &t : serial[5].tenants)
        EXPECT_GT(t.requests, 0u) << t.workload;
    EXPECT_GT(serial[6].faults.read_retries, 0u);
    EXPECT_EQ(serial[7].churn.removals_completed, 1u);
    EXPECT_EQ(serial[7].churn.admitted, 1u);
    for (std::size_t i = 0; i < specs.size(); ++i) {
        const std::uint64_t got = check::outcomeDigest(serial[i]);
        EXPECT_EQ(got, golden[i])
            << "cell " << i << std::hex << ": got 0x" << got
            << ", committed 0x" << golden[i];
    }

    const std::vector<ExperimentSpec> reversed(specs.rbegin(),
                                               specs.rend());
    const auto parallel = runExperiments(reversed, 4);

    ASSERT_EQ(parallel.size(), serial.size());
    for (std::size_t i = 0; i < specs.size(); ++i) {
        EXPECT_EQ(check::outcomeDigest(parallel[specs.size() - 1 - i]),
                  check::outcomeDigest(serial[i]))
            << "cell " << i;
    }
}

TEST(CalibratedSlo, CrashArmedCallerGetsTheCrashFreeSlo)
{
    // An SLO describes the healthy device, and the cache key ignores
    // the crash plan, so a plan that would fire inside the calibration
    // run must not reach it. A key no other test uses, so this call
    // calibrates it.
    TestbedOptions opts;
    opts.geo = testGeometry();
    opts.intensity = 0.871;
    opts.crash.plan.trigger = CrashPlan::Trigger::kSimTime;
    opts.crash.plan.at = sec(2);  // mid-way through the calibration
    // The crash-free calibration of this key; with the plan firing it
    // calibrates at 1678972 ns.
    EXPECT_EQ(calibratedSlo(WorkloadKind::kVdiWeb, 2, opts),
              SimTime(1648016));
}

TEST(CalibratedSlo, ConcurrentSameKeyCallersAgree)
{
    TestbedOptions opts;
    opts.geo = testGeometry();
    // A key no other test uses, so both threads race to calibrate it.
    opts.intensity = 0.493;
    std::vector<int> idx{0, 1, 2, 3};
    const auto slos = parallelMap(
        idx,
        [&opts](const int &) {
            return calibratedSlo(WorkloadKind::kVdiWeb, 2, opts);
        },
        4);
    for (const SimTime s : slos) {
        EXPECT_GT(s, 0u);
        EXPECT_EQ(s, slos[0]);
    }
}

}  // namespace
}  // namespace fleetio
