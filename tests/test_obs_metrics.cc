/** @file Tests for the per-window metrics pipeline and phase profiler. */
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>

#include "src/harness/parallel.h"
#include "src/harness/testbed.h"
#include "src/obs/json.h"
#include "src/obs/metrics.h"
#include "src/obs/phase_profiler.h"
#include "src/policies/fleetio_policy.h"
#include "src/sim/fnv.h"
#include "src/virt/channel_allocator.h"

namespace fleetio {
namespace {

using obs::MetricsRegistry;
using obs::WindowSnapshot;

TEST(MetricsRegistry, CounterReportsPerWindowDeltas)
{
    MetricsRegistry reg;
    obs::Counter &c = reg.counter("t0.requests");
    reg.markBaseline(0);
    c.add(10);
    reg.snapshotWindow(100);
    c.add(5);
    c.add(5);
    reg.snapshotWindow(200);
    reg.snapshotWindow(300);  // idle window

    ASSERT_EQ(reg.windows().size(), 3u);
    EXPECT_DOUBLE_EQ(reg.windows()[0].samples[0].value, 10.0);
    EXPECT_DOUBLE_EQ(reg.windows()[1].samples[0].value, 10.0);
    EXPECT_DOUBLE_EQ(reg.windows()[2].samples[0].value, 0.0);
    EXPECT_EQ(reg.counterSinceBaseline("t0.requests"), 20u);
    EXPECT_EQ(reg.counterSinceBaseline("no.such.metric"), 0u);
}

TEST(MetricsRegistry, ObserveMirrorsACumulativeSource)
{
    MetricsRegistry reg;
    obs::Counter &c = reg.counter("device.dispatched_ops");
    c.observe(1000);  // pre-baseline traffic
    reg.markBaseline(0);
    c.observe(1400);
    reg.snapshotWindow(100);
    c.observe(1450);
    reg.snapshotWindow(200);

    EXPECT_DOUBLE_EQ(reg.windows()[0].samples[0].value, 400.0);
    EXPECT_DOUBLE_EQ(reg.windows()[1].samples[0].value, 50.0);
    EXPECT_EQ(reg.counterSinceBaseline("device.dispatched_ops"), 450u);
}

TEST(MetricsRegistry, BaselineExcludesWarmupFromHistograms)
{
    MetricsRegistry reg;
    Histogram &h = reg.histogram("t0.latency_ns");
    for (int i = 0; i < 100; ++i)
        h.record(1000000);  // warm-up junk
    reg.snapshotWindow(50);
    h.record(3);
    reg.markBaseline(100);
    h.record(500);
    h.record(1500);
    reg.snapshotWindow(200);

    // Warm-up snapshots and samples are dropped.
    ASSERT_EQ(reg.windows().size(), 1u);
    EXPECT_EQ(reg.windows()[0].samples[0].count, 2u);
    EXPECT_DOUBLE_EQ(reg.windows()[0].samples[0].mean, 1000.0);
    EXPECT_EQ(reg.windows()[0].samples[0].max, 1500u);
}

TEST(MetricsRegistry, WindowHistogramPercentilesAreWindowLocal)
{
    MetricsRegistry reg;
    Histogram &h = reg.histogram("lat");
    reg.markBaseline(0);
    for (int i = 0; i < 100; ++i)
        h.record(100);
    reg.snapshotWindow(100);
    for (int i = 0; i < 100; ++i)
        h.record(100000);
    reg.snapshotWindow(200);

    // Each window's p99 reflects only that window's observations.
    EXPECT_NEAR(double(reg.windows()[0].samples[0].p99), 100.0, 5.0);
    EXPECT_NEAR(double(reg.windows()[1].samples[0].p99), 100000.0,
                100000.0 * 0.05);
    EXPECT_EQ(reg.windows()[1].samples[0].count, 100u);
    // Each snapshot leaves the histogram empty for the next window.
    EXPECT_EQ(h.count(), 0u);
}

TEST(MetricsRegistry, CsvAndJsonAreDeterministic)
{
    auto build = []() {
        MetricsRegistry reg;
        // Registration order differs between the two builds; output
        // order must not (std::map iteration).
        static int flip = 0;
        if (flip++ % 2 == 0) {
            reg.counter("b.count");
            reg.gauge("a.gauge");
        } else {
            reg.gauge("a.gauge");
            reg.counter("b.count");
        }
        reg.markBaseline(0);
        reg.counter("b.count").add(3);
        reg.gauge("a.gauge").set(1.5);
        reg.histogram("c.hist").record(42);
        reg.snapshotWindow(100);
        std::ostringstream csv, json;
        reg.writeCsv(csv);
        reg.writeJson(json);
        return std::make_pair(csv.str(), json.str());
    };
    const auto [csv1, json1] = build();
    const auto [csv2, json2] = build();
    EXPECT_EQ(csv1, csv2);
    EXPECT_EQ(json1, json2);
    // Spot-check the schema.
    EXPECT_NE(csv1.find("window,t_start_ms,t_end_ms,metric,kind,"),
              std::string::npos);
    EXPECT_NE(csv1.find("a.gauge,g,1.5"), std::string::npos);
    EXPECT_NE(json1.find("fleetio-metrics-v1"), std::string::npos);
}

TEST(CsvField, QuotesPerRfc4180)
{
    EXPECT_EQ(csvField("plain"), "plain");
    EXPECT_EQ(csvField("with space"), "with space");
    EXPECT_EQ(csvField("a,b"), "\"a,b\"");
    EXPECT_EQ(csvField("say \"hi\""), "\"say \"\"hi\"\"\"");
    EXPECT_EQ(csvField("line\nbreak"), "\"line\nbreak\"");
    EXPECT_EQ(csvField("cr\rhere"), "\"cr\rhere\"");
    EXPECT_EQ(csvField(""), "");
}

/** Two-tenant deterministic run with the full obs pipeline on. */
TestbedOptions
obsOptions()
{
    TestbedOptions opts;
    opts.geo = testGeometry();
    opts.window = msec(50);
    opts.seed = 42;
    opts.obs.trace = true;
    opts.obs.metrics = true;
    return opts;
}

void
driveTwoTenants(Testbed &tb)
{
    const auto &geo = tb.device().geometry();
    const auto split = ChannelAllocator::equalSplit(geo, 2);
    const std::uint64_t quota = geo.totalBlocks() / 2;
    tb.addTenant(WorkloadKind::kVdiWeb, split[0], quota, msec(10));
    tb.addTenant(WorkloadKind::kTeraSort, split[1], quota, msec(10));
    tb.warmupFill();
    tb.startWorkloads();
    tb.run(msec(200));
    tb.beginMeasurement();
    tb.run(msec(500));
    tb.endMeasurement();
    tb.stopWorkloads();
}

/** 64-bit FNV-1a of an artifact's bytes. */
std::uint64_t
digest(const std::string &s)
{
    return fnv1a(s.data(), s.size());
}

/** Every artifact a testbed with all four obs sinks writes, in the
 *  order the harness writes them. */
struct Artifacts
{
    std::string trace, metrics_csv, metrics_json, attribution;
};

TestbedOptions
allSinks(TestbedOptions opts)
{
    opts.obs.trace = true;
    opts.obs.metrics = true;
    opts.obs.attribution = true;
    opts.obs.drift = true;
    return opts;
}

Artifacts
artifacts(Testbed &tb)
{
    std::ostringstream t, c, j, a;
    tb.tracer()->writeChromeJson(t);
    tb.metrics()->writeCsv(c);
    tb.metrics()->writeJson(j);
    tb.attribution()->writeJson(a, tb.drift());
    return {t.str(), c.str(), j.str(), a.str()};
}

/**
 * Compare each artifact's digest with its committed value. A changed
 * digest is a reviewed edit: take the "got" value from the failure
 * and give the reason for the change in CHANGES.md.
 */
void
expectDigests(const Artifacts &a, std::uint64_t trace,
              std::uint64_t metrics_csv, std::uint64_t metrics_json,
              std::uint64_t attribution)
{
    EXPECT_EQ(digest(a.trace), trace)
        << "trace digest: got 0x" << std::hex << digest(a.trace);
    EXPECT_EQ(digest(a.metrics_csv), metrics_csv)
        << "metrics CSV digest: got 0x" << std::hex
        << digest(a.metrics_csv);
    EXPECT_EQ(digest(a.metrics_json), metrics_json)
        << "metrics JSON digest: got 0x" << std::hex
        << digest(a.metrics_json);
    EXPECT_EQ(digest(a.attribution), attribution)
        << "attribution digest: got 0x" << std::hex
        << digest(a.attribution);
}

/** A Software Isolation cell (VDI-Web + TeraSort sharing every channel
 *  under token buckets and stride) with all four sinks on. */
Artifacts
softwareIsolationCell()
{
    TestbedOptions opts = allSinks(obsOptions());
    Testbed tb(opts);
    auto policy = makePolicy(PolicyKind::kSoftwareIsolation);
    policy->setup(tb, {WorkloadKind::kVdiWeb, WorkloadKind::kTeraSort},
                  {msec(2), msec(30)});
    tb.warmupFill();
    tb.startWorkloads();
    tb.run(msec(200));
    policy->prepare(tb);
    policy->beforeMeasure(tb);
    tb.beginMeasurement();
    tb.run(msec(500));
    tb.endMeasurement();
    tb.stopWorkloads();
    return artifacts(tb);
}

TEST(MetricsPipeline, TimeSeriesGoldenIsReproducible)
{
    const Artifacts a = softwareIsolationCell();
    const Artifacts b = softwareIsolationCell();
    EXPECT_EQ(a.trace, b.trace);
    EXPECT_EQ(a.metrics_csv, b.metrics_csv);
    EXPECT_EQ(a.metrics_json, b.metrics_json);
    EXPECT_EQ(a.attribution, b.attribution);
    // Both tenants produce rows; ~10 windows plus the trailing flush.
    EXPECT_NE(a.metrics_csv.find("t0.latency_ns"), std::string::npos);
    EXPECT_NE(a.metrics_csv.find("t1.latency_ns"), std::string::npos);
    EXPECT_NE(a.metrics_csv.find("device.utilization"),
              std::string::npos);
    expectDigests(a, 0xf654e7f57f33ea22ull, 0x491d118c9d88e425ull,
                  0x430ddaac262e5b0eull, 0x319dd00b1b0074b4ull);
}

TEST(MetricsPipeline, FleetIoArtifactsMatchCommittedDigests)
{
    // The drift test's FleetIO cell (30 training windows, then a
    // mid-measurement workload swap) with all four sinks on: decide,
    // reward, gSB and drift events all reach the artifacts.
    TestbedOptions opts;
    opts.geo = testGeometry();
    opts.window = msec(50);
    Testbed tb(allSinks(opts));
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
    tb.workload(0).morphTo(profileFor(WorkloadKind::kPageRank, 2.0));
    tb.run(msec(500));
    tb.endMeasurement();
    expectDigests(artifacts(tb), 0xe20a6c461882654eull,
                  0xdac88a0f41367a8eull, 0x321c954312c13d12ull,
                  0xc41417fcaa43f869ull);
}

TEST(MetricsPipeline, AggregatesMatchTenantStatistics)
{
    Testbed tb(obsOptions());
    driveTwoTenants(tb);
    MetricsRegistry *reg = tb.metrics();
    ASSERT_NE(reg, nullptr);

    for (auto *v : tb.vssds().active()) {
        const auto name = [v](const char *suffix) {
            return obs::tenantMetric(v->id(), suffix);
        };
        // Completed requests: the metrics counter and the tenant's
        // latency tracker observe the same completions since
        // beginMeasurement.
        EXPECT_EQ(reg->counterSinceBaseline(name("requests")),
                  v->latency().totalCount())
            << "tenant " << int(v->id());
        // Bytes moved: counters vs the bandwidth meter (reset at
        // beginMeasurement, so lifetime totals cover the same region).
        EXPECT_EQ(reg->counterSinceBaseline(name("bytes_read")) +
                      reg->counterSinceBaseline(name("bytes_written")),
                  v->bandwidth().totalBytes())
            << "tenant " << int(v->id());
        // Latency distribution: every completion is in exactly one
        // window's histogram.
        std::uint64_t latency_samples = 0;
        for (const WindowSnapshot &w : reg->windows()) {
            for (const obs::MetricSample &s : w.samples) {
                if (s.metric == name("latency_ns"))
                    latency_samples += s.count;
            }
        }
        EXPECT_EQ(latency_samples, v->latency().totalCount())
            << "tenant " << int(v->id());
    }
    // Windows cover the measured region: 500 ms / 50 ms = 10 samples
    // (+1 trailing partial at most).
    EXPECT_GE(reg->windows().size(), 10u);
    EXPECT_LE(reg->windows().size(), 11u);
}

/** Shrunk experiment spec with the obs pipeline enabled. */
ExperimentSpec
obsSpec(PolicyKind policy)
{
    ExperimentSpec spec;
    spec.workloads = {WorkloadKind::kVdiWeb, WorkloadKind::kTeraSort};
    spec.policy = policy;
    spec.opts.geo = testGeometry();
    spec.opts.window = msec(50);
    spec.opts.obs.trace = true;
    spec.opts.obs.metrics = true;
    spec.warm_run = msec(200);
    spec.measure = msec(500);
    return spec;
}

TEST(MetricsPipeline, ObsOnParallelHarnessStaysBitIdentical)
{
    // Tracing/metrics must not perturb results, and per-thread rings
    // must keep the parallel harness contention-free and deterministic.
    std::vector<ExperimentSpec> specs;
    specs.push_back(obsSpec(PolicyKind::kHardwareIsolation));
    specs.push_back(obsSpec(PolicyKind::kSoftwareIsolation));

    std::vector<ExperimentResult> serial;
    for (const auto &s : specs)
        serial.push_back(runExperiment(s));
    const auto parallel = runExperiments(specs, 2);

    ASSERT_EQ(parallel.size(), serial.size());
    for (std::size_t i = 0; i < specs.size(); ++i) {
        EXPECT_EQ(check::outcomeDigest(serial[i]),
                  check::outcomeDigest(parallel[i]))
            << "cell " << i;
    }

    // And obs-off results match obs-on results (null-guard parity).
    ExperimentSpec off = obsSpec(PolicyKind::kHardwareIsolation);
    off.opts.obs = {};
    EXPECT_EQ(check::outcomeDigest(runExperiment(off)),
              check::outcomeDigest(serial[0]));
}

TEST(PhaseProfiler, AttributesWallTimeAndSimEvents)
{
    obs::PhaseProfiler prof;
    prof.begin("alpha", 0);
    prof.begin("beta", 1000);  // closes alpha at 1000 events
    prof.end(1500);

    const auto &phases = prof.phases();
    ASSERT_EQ(phases.size(), 2u);
    EXPECT_EQ(phases[0].name, "alpha");
    EXPECT_EQ(phases[0].sim_events, 1000u);
    EXPECT_EQ(phases[1].name, "beta");
    EXPECT_EQ(phases[1].sim_events, 500u);
    EXPECT_GE(phases[0].wall_seconds, 0.0);
    EXPECT_GE(prof.totalSeconds(), 0.0);

    // end() without an open phase is harmless.
    prof.end(2000);
    EXPECT_EQ(prof.phases().size(), 2u);
}

TEST(PhaseProfiler, ExperimentResultCarriesPhases)
{
    ExperimentSpec spec = obsSpec(PolicyKind::kHardwareIsolation);
    spec.opts.obs = {};  // phases are recorded regardless of obs knobs
    const ExperimentResult res = runExperiment(spec);
    ASSERT_EQ(res.phases.size(), 6u);
    EXPECT_EQ(res.phases[0].name, "calibrate");
    EXPECT_EQ(res.phases[4].name, "measure");
    EXPECT_EQ(res.phases[5].name, "collect");
    std::uint64_t ev = 0;
    for (const auto &p : res.phases)
        ev += p.sim_events;
    // Calibration runs in separate testbeds; every dispatched event of
    // *this* testbed is attributed to exactly one phase.
    EXPECT_EQ(ev, res.sim_events);
}

}  // namespace
}  // namespace fleetio
