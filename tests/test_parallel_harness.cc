/** @file Tests for the parallel experiment harness. */
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <set>
#include <stdexcept>
#include <thread>

#include "src/harness/parallel.h"

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

bool
identical(const ExperimentResult &x, const ExperimentResult &y)
{
    if (x.policy != y.policy || x.sim_events != y.sim_events ||
        x.avg_util != y.avg_util || x.p95_util != y.p95_util ||
        x.write_amp != y.write_amp ||
        x.tenants.size() != y.tenants.size()) {
        return false;
    }
    for (std::size_t i = 0; i < x.tenants.size(); ++i) {
        const TenantResult &a = x.tenants[i];
        const TenantResult &b = y.tenants[i];
        if (a.workload != b.workload ||
            a.avg_bw_mbps != b.avg_bw_mbps || a.iops != b.iops ||
            a.p50 != b.p50 || a.p95 != b.p95 || a.p99 != b.p99 ||
            a.p999 != b.p999 || a.requests != b.requests ||
            a.slo != b.slo) {
            return false;
        }
    }
    return true;
}

TEST(RunExperiments, ParallelIsBitIdenticalToSerialLoop)
{
    // A cell's result must not depend on the grid it runs in, because
    // bench_paper runs each distinct cell once and reuses it across
    // figures. So the parallel side runs the cells in reverse order.
    std::vector<ExperimentSpec> specs;
    specs.push_back(tinySpec(WorkloadKind::kVdiWeb,
                             WorkloadKind::kTeraSort,
                             PolicyKind::kHardwareIsolation));
    specs.push_back(tinySpec(WorkloadKind::kVdiWeb,
                             WorkloadKind::kTeraSort,
                             PolicyKind::kSoftwareIsolation));
    specs.push_back(tinySpec(WorkloadKind::kYcsbB,
                             WorkloadKind::kMlPrep,
                             PolicyKind::kHardwareIsolation));
    specs.push_back(tinySpec(WorkloadKind::kYcsbB,
                             WorkloadKind::kMlPrep,
                             PolicyKind::kSoftwareIsolation));
    // Every SSDKeeper cell shares one static demand net.
    specs.push_back(tinySpec(WorkloadKind::kVdiWeb,
                             WorkloadKind::kTeraSort,
                             PolicyKind::kSsdKeeper));
    // FleetIO on the default geometry: on testGeometry() its TeraSort
    // tenant completes no request.
    ExperimentSpec fleet;
    fleet.workloads = {WorkloadKind::kVdiWeb, WorkloadKind::kTeraSort};
    fleet.policy = PolicyKind::kFleetIo;
    fleet.opts.window = msec(100);
    fleet.warm_run = sec(1);
    fleet.measure = sec(1);
    specs.push_back(fleet);

    std::vector<ExperimentResult> serial;
    serial.reserve(specs.size());
    for (const auto &s : specs)
        serial.push_back(runExperiment(s));
    for (const TenantResult &t : serial.back().tenants)
        EXPECT_GT(t.requests, 0u) << t.workload;

    const std::vector<ExperimentSpec> reversed(specs.rbegin(),
                                               specs.rend());
    const auto parallel = runExperiments(reversed, 4);

    ASSERT_EQ(parallel.size(), serial.size());
    for (std::size_t i = 0; i < specs.size(); ++i) {
        EXPECT_TRUE(identical(serial[i], parallel[specs.size() - 1 - i]))
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
