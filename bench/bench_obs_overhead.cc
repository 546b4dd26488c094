/**
 * @file
 * Observability overhead bench (DESIGN.md §9): proves the tracing and
 * metrics pipeline is free when disabled and cheap when enabled.
 *
 * Verdicts:
 *  1. Parity — the same FleetIO experiment with the obs pipeline on
 *     and off produces an identical ExperimentResult (the null-guard
 *     and per-thread rings must not perturb the simulation).
 *  2. Disabled overhead < 2 % — measured as a bound, not a race of two
 *     wall clocks: the per-call cost of the null-guarded
 *     FLEETIO_OBS macro (microbenchmarked) times the trace-call
 *     density of a real run (calls per simulation event, read off an
 *     enabled run's recorder) over the per-event simulation cost of an
 *     untraced run. Run-to-run noise cancels out of the bound, so the
 *     verdict is stable enough for CI.
 *  3. (informational) Enabled overhead — wall-clock ratio of a fully
 *     traced+metered run over an untraced run of the same cell.
 *
 * --smoke shrinks durations for the ctest registration.
 */
#include <chrono>
#include <cstring>

#include "bench/bench_common.h"
#include "src/harness/testbed.h"
#include "src/virt/channel_allocator.h"

using namespace fleetio;
using namespace fleetio::bench;

namespace {

double
secondsSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

struct DriveStats
{
    double wall_sec = 0;
    std::uint64_t sim_events = 0;
    std::uint64_t trace_calls = 0;  ///< recorded events (enabled runs)
};

/**
 * Two-tenant cell on the bench geometry, driven directly (no policy)
 * so the wall clock measures the instrumented I/O hot path and nothing
 * else. Only the measured section is timed; warm-up fill is outside.
 */
DriveStats
driveCell(bool obs_on, SimTime measure)
{
    TestbedOptions opts;
    opts.seed = 42;
    opts.obs.trace = obs_on;
    opts.obs.metrics = obs_on;
    Testbed tb(opts);
    const auto &geo = tb.device().geometry();
    const auto split = ChannelAllocator::equalSplit(geo, 2);
    const std::uint64_t quota = geo.totalBlocks() / 2;
    tb.addTenant(WorkloadKind::kVdiWeb, split[0], quota, msec(10));
    tb.addTenant(WorkloadKind::kTeraSort, split[1], quota, msec(10));
    tb.warmupFill();
    tb.startWorkloads();
    tb.run(msec(200));
    tb.beginMeasurement();

    const std::uint64_t events_before = tb.eq().dispatched();
    const auto t0 = std::chrono::steady_clock::now();
    tb.run(measure);
    DriveStats out;
    out.wall_sec = secondsSince(t0);
    out.sim_events = tb.eq().dispatched() - events_before;

    tb.endMeasurement();
    tb.stopWorkloads();
    if (tb.tracer() != nullptr)
        out.trace_calls = tb.tracer()->eventCount();
    return out;
}

/**
 * Per-call cost of the disabled macro: the pointer lives behind
 * volatile so the compiler must re-load and re-test it per iteration,
 * exactly like the member-load + branch at a real call site.
 */
double
disabledMacroNs(std::uint64_t iters)
{
    obs::ObsHub *volatile hub = nullptr;
    // Baseline: the loop itself.
    volatile std::uint64_t sink = 0;
    auto t0 = std::chrono::steady_clock::now();
    for (std::uint64_t i = 0; i < iters; ++i)
        sink = sink + 1;
    const double loop_sec = secondsSince(t0);

    t0 = std::chrono::steady_clock::now();
    for (std::uint64_t i = 0; i < iters; ++i) {
        sink = sink + 1;
        FLEETIO_OBS(hub, decisionWindow(i));
    }
    const double macro_sec = secondsSince(t0);
    const double delta = macro_sec - loop_sec;
    return delta > 0 ? delta * 1e9 / double(iters) : 0.0;
}

bool
verdict(bool cond, const std::string &what)
{
    std::cout << (cond ? "PASS: " : "FAIL: ") << what << "\n";
    return cond;
}

bool
sameResult(const ExperimentResult &x, const ExperimentResult &y)
{
    if (x.sim_events != y.sim_events || x.avg_util != y.avg_util ||
        x.p95_util != y.p95_util || x.write_amp != y.write_amp ||
        x.tenants.size() != y.tenants.size()) {
        return false;
    }
    for (std::size_t i = 0; i < x.tenants.size(); ++i) {
        if (x.tenants[i].avg_bw_mbps != y.tenants[i].avg_bw_mbps ||
            x.tenants[i].p50 != y.tenants[i].p50 ||
            x.tenants[i].p99 != y.tenants[i].p99 ||
            x.tenants[i].requests != y.tenants[i].requests ||
            x.tenants[i].slo_violation != y.tenants[i].slo_violation) {
            return false;
        }
    }
    return true;
}

}  // namespace

int
main(int argc, char **argv)
{
    bool smoke = false;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--smoke") == 0)
            smoke = true;
    }

    banner("Observability overhead: obs pipeline parity and cost");
    BenchReport report("obs_overhead");
    report.setJobs(1);

    const SimTime drive_measure = smoke ? sec(1) : sec(4);
    const std::uint64_t macro_iters =
        smoke ? 50'000'000ull : 400'000'000ull;

    // 1. Parity: the full FleetIO stack (agents, supervisor, GSB)
    //    with and without the obs pipeline.
    ExperimentSpec spec = makeSpec(
        {WorkloadKind::kVdiWeb, WorkloadKind::kTeraSort},
        PolicyKind::kFleetIo);
    if (smoke) {
        spec.warm_run = sec(1);
        spec.measure = sec(2);
    }
    const ExperimentResult res_off = runExperiment(spec);
    ExperimentSpec traced = spec;
    traced.opts.obs.trace = true;
    traced.opts.obs.metrics = true;
    const ExperimentResult res_on = runExperiment(traced);

    // 2/3. Cost: timed direct drives plus the macro microbenchmark.
    const DriveStats off = driveCell(false, drive_measure);
    const DriveStats off2 = driveCell(false, drive_measure);
    const DriveStats on = driveCell(true, drive_measure);
    const double off_sec = std::min(off.wall_sec, off2.wall_sec);
    const double macro_ns = disabledMacroNs(macro_iters);

    const double ns_per_event = off_sec * 1e9 / double(off.sim_events);
    const double calls_per_event =
        double(on.trace_calls) / double(on.sim_events);
    const double disabled_pct =
        100.0 * macro_ns * calls_per_event / ns_per_event;
    const double enabled_pct =
        100.0 * (on.wall_sec - off_sec) / off_sec;

    Table t({"quantity", "value"});
    t.addRow({"sim events (drive)", std::to_string(off.sim_events)});
    t.addRow({"ns per sim event (obs off)", fmtDouble(ns_per_event, 1)});
    t.addRow({"trace calls per sim event", fmtDouble(calls_per_event, 3)});
    t.addRow({"disabled macro cost (ns/call)", fmtDouble(macro_ns, 3)});
    t.addRow({"disabled overhead bound", fmtDouble(disabled_pct, 3) + "%"});
    t.addRow({"enabled overhead (wall)", fmtDouble(enabled_pct, 1) + "%"});
    t.print(std::cout);
    std::cout << '\n';

    bool ok = true;
    ok &= verdict(sameResult(res_off, res_on),
                  "obs on/off FleetIO results are identical");
    ok &= verdict(res_on.sim_events > 0 && on.trace_calls > 0,
                  "traced run actually recorded events");
    ok &= verdict(disabled_pct < 2.0,
                  "compiled-in-but-disabled tracing bound < 2%");
    std::cout << "\n(enabled overhead is informational: "
              << fmtDouble(enabled_pct, 1)
              << "% wall for full trace + per-window metrics)\n";

    report.addCell("drive/obs-off", {{"wall_sec", off_sec}},
                   off.sim_events);
    report.addCell("drive/obs-on", {{"wall_sec", on.wall_sec}},
                   on.sim_events);
    report.setMetric("disabled_macro_ns", macro_ns);
    report.setMetric("trace_calls_per_event", calls_per_event);
    report.setMetric("disabled_overhead_pct", disabled_pct);
    report.setMetric("enabled_overhead_pct", enabled_pct);
    report.setMetric("parity", sameResult(res_off, res_on) ? 1 : 0);
    const int regress = report.finish(argc, argv, std::cout);

    return ok ? regress : 1;
}
