/**
 * @file
 * Perf-tracking smoke bench: microbenchmarks of the simulator's hot
 * paths plus one small end-to-end cell, emitting BENCH_perf_smoke.json
 * so the events/sec trajectory is comparable across commits. Registered
 * as a fast ctest so every CI run records the numbers.
 */
#include <chrono>
#include <cstdint>
#include <functional>

#include "bench/bench_common.h"
#include "src/ssd/ftl.h"

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

/** A capture of a few words, like the device completion callbacks the
 *  simulator schedules. */
struct Payload
{
    std::uint64_t a, b, c, d, e;
};

/** Self-rescheduling event chains through @p q until @p target events
 *  dispatched; returns events/sec. */
double
eventQueueThroughput(EventQueue &q, std::uint64_t target)
{
    std::uint64_t dispatched = 0;
    std::uint64_t sink = 0;
    // 64 concurrent chains keep the heap realistically deep.
    constexpr int kChains = 64;
    std::function<void(SimTime)> arm = [&](SimTime when) {
        Payload p{dispatched, 1, 2, 3, 4};
        q.scheduleAt(when, [&, p]() {
            sink += p.a + p.e;
            ++dispatched;
            if (dispatched + kChains <= target)
                arm(q.now() + 100);
        });
    };
    const auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < kChains; ++i)
        arm(SimTime(i));
    while (q.step()) {
    }
    const double wall = secondsSince(t0);
    // sink keeps the payload live; fold it in so it cannot be elided.
    return (double(dispatched) + double(sink % 2)) / wall;
}

}  // namespace

int
main(int argc, char **argv)
{
    banner("Perf smoke: hot-path microbenchmarks + end-to-end cell");
    BenchReport report("perf_smoke");
    report.setJobs(benchJobs());

    // --- 1. Event-queue throughput -----------------------------------
    constexpr std::uint64_t kEvents = 2'000'000;
    EventQueue eq;
    const double eq_eps = eventQueueThroughput(eq, kEvents);
    std::cout << "event queue: " << fmtDouble(eq_eps / 1e6, 2)
              << " M events/s\n";
    report.addCell("event_queue", {{"events_per_sec", eq_eps}}, kEvents);

    // --- 2. FTL write + lookup throughput ----------------------------
    {
        const SsdGeometry geo = benchGeometry();
        EventQueue dev_eq;
        FlashDevice dev(geo, dev_eq);
        std::vector<ChannelId> chans(geo.num_channels);
        for (ChannelId c = 0; c < geo.num_channels; ++c)
            chans[c] = c;
        Ftl ftl(dev, Ftl::Config{0, geo.totalBlocks(), chans});

        const std::uint64_t writes = ftl.logicalPages();
        auto t0 = std::chrono::steady_clock::now();
        Ppa ppa = kNoPpa;
        std::uint64_t written = 0;
        for (Lpa lpa = 0; lpa < writes; ++lpa)
            written += ftl.allocateWrite(lpa, ppa);
        const double write_ops = double(written) / secondsSince(t0);

        t0 = std::chrono::steady_clock::now();
        std::uint64_t hits = 0;
        for (int pass = 0; pass < 4; ++pass) {
            for (Lpa lpa = 0; lpa < writes; ++lpa)
                hits += ftl.lookup(lpa) != kNoPpa;
        }
        const double lookup_ops = double(hits) / secondsSince(t0);

        std::cout << "FTL: " << fmtDouble(write_ops / 1e6, 2)
                  << " M writes/s, " << fmtDouble(lookup_ops / 1e6, 2)
                  << " M lookups/s (" << written << " pages)\n";
        report.addCell("ftl",
                       {{"write_ops_per_sec", write_ops},
                        {"lookup_ops_per_sec", lookup_ops},
                        {"pages_written", double(written)}});
    }

    // --- 3. One small 2-tenant end-to-end cell ------------------------
    {
        ExperimentSpec spec =
            makeSpec({WorkloadKind::kVdiWeb, WorkloadKind::kTeraSort},
                     PolicyKind::kHardwareIsolation);
        spec.warm_run = sec(1);
        spec.measure = sec(2);  // smoke scale, not the 18 s default
        const auto t0 = std::chrono::steady_clock::now();
        const ExperimentResult res = runExperiment(spec);
        const double wall = secondsSince(t0);
        const double eps =
            wall > 0 ? double(res.sim_events) / wall : 0.0;
        std::cout << "end-to-end (VDI-Web+TeraSort, HW isolation): "
                  << res.sim_events << " events in "
                  << fmtDouble(wall, 2) << " s = "
                  << fmtDouble(eps / 1e6, 2) << " M events/s, util "
                  << fmtPercent(res.avg_util) << "\n";
        report.addCell("end_to_end", res);
        report.setMetric("end_to_end_events_per_sec", eps);
    }

    return report.finish(argc, argv);
}
