/**
 * @file
 * The measured cell: one runExperiment() call for one workload and
 * seed, alone in its process, so every cell pays SLO calibration (the
 * calibratedSlo cache is per process). Prints one JSON line: wall time,
 * the harness's own phase split, the core's speed just before and after
 * the cell, peak resident set, and the simulated outcome with its
 * digest.
 *
 * Usage: simbench_cell <workload> <seed> [--no-obs]
 *
 * --no-obs runs the same cell with every obs sink off; the traced run
 * of swiso-mix8-obs uses it to price the obs layer.
 */
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <iostream>
#include <string>

#include "simbench/json_line.h"
#include "simbench/workloads.h"

using namespace simbench;

namespace {

/**
 * Nanoseconds per step of a dependent multiply-add chain, fastest of
 * five 500,000-step reps: a fixed number of core cycles per step, so it
 * reads the speed the core gives this process right now (its clock and
 * what a co-scheduled hyperthread takes). It stands in for a cycle
 * counter, which virtual machines often do not expose: run.py scales
 * the cell's times by it.
 */
double
coreNsPerStep()
{
    constexpr int kSteps = 500000;
    double best = 1e30;
    for (int rep = 0; rep < 5; ++rep) {
        std::uint64_t x = rep + 1;
        const auto t0 = std::chrono::steady_clock::now();
        for (int i = 0; i < kSteps; ++i)
            x = x * 6364136223846793005ull + 1442695040888963407ull;
        const double ns = std::chrono::duration<double, std::nano>(
                              std::chrono::steady_clock::now() - t0)
                              .count();
        volatile std::uint64_t sink = x;
        (void)sink;
        best = std::min(best, ns / kSteps);
    }
    return best;
}

}  // namespace

int
main(int argc, char **argv)
{
    const bool no_obs = argc == 4 && std::string(argv[3]) == "--no-obs";
    if (argc != 3 && !no_obs) {
        std::cerr << "usage: simbench_cell <workload> <seed> [--no-obs]\n";
        return 2;
    }
    const Workload *w = findWorkload(argv[1]);
    if (w == nullptr) {
        std::cerr << "simbench_cell: unknown workload " << argv[1] << "\n";
        return 2;
    }
    const std::uint64_t seed = std::strtoull(argv[2], nullptr, 10);

    ExperimentSpec spec = makeSpec(*w, seed);
    if (no_obs)
        spec.opts.obs = {};
    const double core_before = coreNsPerStep();
    const auto t0 = std::chrono::steady_clock::now();
    const ExperimentResult res = runExperiment(spec);
    const double cell_s = std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - t0)
                              .count();
    const double core_ns = (core_before + coreNsPerStep()) / 2;
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);

    JsonLine phases;
    for (const obs::Phase &p : res.phases)
        phases.num(p.name, p.wall_seconds);
    std::string tenants = "[";
    for (const TenantResult &t : res.tenants) {
        if (tenants.size() > 1)
            tenants += ", ";
        tenants += JsonLine()
                       .str("name", t.workload)
                       .count("bi", t.bandwidth_intensive ? 1 : 0)
                       .count("requests", t.requests)
                       .count("p50_ns", t.p50)
                       .count("p99_ns", t.p99)
                       .num("bw_mbps", t.avg_bw_mbps)
                       .num("slo_violation", t.slo_violation)
                       .count("slo_ns", t.slo)
                       .text();
    }
    tenants += "]";

    std::cout << JsonLine()
                     .str("workload", w->name)
                     .count("seed", seed)
                     .num("cell_s", cell_s)
                     .raw("phases", phases.text())
                     .num("core_ns_per_step", core_ns)
                     .num("peak_rss_mb", double(ru.ru_maxrss) / 1024.0)
                     .raw("tenants", tenants)
                     .num("avg_util", res.avg_util)
                     .num("write_amp", res.write_amp)
                     .count("sim_events", res.sim_events)
                     .count("attr_sum_mismatches", res.attr_sum_mismatches)
                     .str("digest", outcomeDigest(res))
                     .text()
              << std::endl;
    return 0;
}
