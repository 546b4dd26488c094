/**
 * @file
 * Shared scaffolding for the figure-reproduction benches: the paper's
 * workload pairs (§4.2) and mixes (Table 5), spec construction,
 * normalized-metric helpers, and the mapping-integrity walk the
 * robustness benches share.
 *
 * Scale note (printed by every bench): the device is the benchGeometry
 * scale-down of Table 3 (identical channel/chip/page ratios and
 * per-channel bandwidth, fewer blocks) and the 2 s decision window is
 * compressed to 100 ms. Decision dynamics depend on windows, not wall
 * seconds, so the paper's *shapes* are preserved; absolute numbers are
 * not expected to match a physical board.
 */
#pragma once

#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "src/core/env.h"
#include "src/harness/experiment.h"
#include "src/harness/parallel.h"
#include "src/harness/reporting.h"

namespace fleetio::bench {

/** The six §4.2 collocation pairs (LS + BI). */
inline std::vector<std::vector<WorkloadKind>>
evaluationPairs()
{
    using K = WorkloadKind;
    return {{K::kVdiWeb, K::kTeraSort}, {K::kVdiWeb, K::kMlPrep},
            {K::kVdiWeb, K::kPageRank}, {K::kYcsbB, K::kTeraSort},
            {K::kYcsbB, K::kMlPrep},    {K::kYcsbB, K::kPageRank}};
}

/** Human label like "VDI-Web+TeraSort". */
inline std::string
pairLabel(const std::vector<WorkloadKind> &pair)
{
    std::string s;
    for (std::size_t i = 0; i < pair.size(); ++i) {
        if (i)
            s += "+";
        s += workloadName(pair[i]);
    }
    return s;
}

/** Table 5 scalability mixes. */
struct Mix
{
    std::string label;
    std::vector<WorkloadKind> workloads;
};

inline std::vector<Mix>
scalabilityMixes()
{
    using K = WorkloadKind;
    return {
        {"mix1 (2 vSSDs)", {K::kVdiWeb, K::kTeraSort}},
        {"mix2 (2 vSSDs)", {K::kYcsbB, K::kPageRank}},
        {"mix3 (4 vSSDs)",
         {K::kVdiWeb, K::kVdiWeb, K::kTeraSort, K::kTeraSort}},
        {"mix4 (4 vSSDs)",
         {K::kVdiWeb, K::kYcsbB, K::kTeraSort, K::kPageRank}},
        {"mix5 (8 vSSDs)",
         {K::kVdiWeb, K::kVdiWeb, K::kVdiWeb, K::kVdiWeb, K::kTeraSort,
          K::kTeraSort, K::kPageRank, K::kMlPrep}},
    };
}

/** Policies of the main comparison, in the paper's plotting order. */
inline std::vector<PolicyKind>
mainPolicies()
{
    return {PolicyKind::kHardwareIsolation, PolicyKind::kSsdKeeper,
            PolicyKind::kAdaptive, PolicyKind::kSoftwareIsolation,
            PolicyKind::kFleetIo};
}

/**
 * Measurement seconds (override with FLEETIO_BENCH_MEASURE_SEC).
 * A value that is not a positive integer (garbage, zero, negative,
 * absurdly large) would otherwise silently yield a 0 s measurement and
 * all-zero metrics; such values fall back to the default with a
 * warning instead.
 */
inline SimTime
measureDuration()
{
    constexpr std::uint64_t kDefaultSec = 18;
    const char *env = std::getenv("FLEETIO_BENCH_MEASURE_SEC");
    if (!env)
        return sec(kDefaultSec);
    // -1 is outside [1, 86400], so it doubles as the rejection signal.
    const long v = parseLongStrict(env, -1, 1, 86400);
    if (v < 0) {
        static bool warned = false;
        if (!warned) {
            warned = true;
            std::cerr << "warning: FLEETIO_BENCH_MEASURE_SEC=\"" << env
                      << "\" is not a valid duration (want integer "
                         "seconds in [1, 86400]); using "
                      << kDefaultSec << " s\n";
        }
        return sec(kDefaultSec);
    }
    return sec(std::uint64_t(v));
}

/** Standard spec for a workload set under a policy. */
inline ExperimentSpec
makeSpec(const std::vector<WorkloadKind> &workloads, PolicyKind policy)
{
    ExperimentSpec spec;
    spec.workloads = workloads;
    spec.policy = policy;
    spec.opts.window = msec(100);
    spec.warm_run = sec(2);
    spec.measure = measureDuration();
    return spec;
}

/** Banner with the scale-down disclaimer. */
inline void
banner(const std::string &title)
{
    std::cout << "==================================================\n"
              << title << "\n"
              << "Device: Table-3 geometry scaled down (benchGeometry:"
                 " 16 ch x 4 chips, 2 MB blocks, 4 GB);\n"
              << "decision window 2 s -> 100 ms; measure "
              << toSeconds(measureDuration()) << " s per cell; "
              << benchJobs()
              << " parallel jobs (FLEETIO_BENCH_JOBS).\n"
              << "Shapes (orderings, ratios) are the reproduction "
                 "target, not absolute board numbers.\n"
              << "==================================================\n\n";
}

/** Walk every active tenant's map: each mapped LPA must resolve to a
 *  valid, non-retired page whose reverse map points straight back. */
inline bool
verifyMappings(Testbed &tb)
{
    const auto &geo = tb.device().geometry();
    for (auto *v : tb.vssds().active()) {
        Ftl &ftl = v->ftl();
        for (Lpa lpa = 0; lpa < ftl.logicalPages(); ++lpa) {
            const Ppa ppa = ftl.lookup(lpa);
            if (ppa == kNoPpa)
                continue;
            const FlashBlock &blk = tb.device().blockOf(ppa);
            if (blk.state == BlockState::kRetired)
                return false;
            if (!blk.valid[geo.pageOf(ppa)])
                return false;
            const RmapEntry &r = tb.device().rmap(ppa);
            if (r.data_vssd != v->id() || r.lpa != lpa)
                return false;
        }
    }
    return true;
}

}  // namespace fleetio::bench
