/**
 * @file
 * Design-choice ablations called out in DESIGN.md §5 (beyond the
 * paper's own Fig. 15 reward ablation):
 *   - beta sweep for the multi-agent reward blend (paper default 0.6),
 *   - RL state stacking depth (1 vs the paper's 3 windows),
 *   - admission-control batching interval (paper default 50 ms).
 */
#include "bench/bench_common.h"

using namespace fleetio;
using namespace fleetio::bench;

int
main(int argc, char **argv)
{
    banner("Design ablations: beta, state stacking, admission batch");
    BenchReport report("ablation_design");
    report.setJobs(benchJobs());

    const std::vector<WorkloadKind> pair = {WorkloadKind::kVdiWeb,
                                            WorkloadKind::kTeraSort};

    // Enumerate every ablation cell, then fan out through the pool.
    // Each cell is FleetIO's own configuration with one knob changed.
    struct Cell
    {
        std::string what, setting;
        FleetIoConfig cfg = FleetIoPolicy::Variant{}.config;
    };
    std::vector<Cell> cells;
    for (double beta : {1.0, 0.6, 0.2}) {
        Cell &c = cells.emplace_back(
            Cell{"beta (Eq. 2)", fmtDouble(beta, 1)});
        c.cfg.beta = beta;
    }
    for (int stack : {1, 3}) {
        Cell &c = cells.emplace_back(
            Cell{"state stacking", std::to_string(stack) + " windows"});
        c.cfg.state_stack = stack;
    }
    for (SimTime batch : {msec(10), msec(50), msec(200)}) {
        Cell &c = cells.emplace_back(
            Cell{"admission batch", fmtDouble(toMillis(batch), 0) + " ms"});
        c.cfg.admission_batch = batch;
    }
    const auto results = parallelMap(cells, [&](const Cell &c) {
        ExperimentSpec spec = makeSpec(pair, PolicyKind::kFleetIo);
        spec.fleetio.config = c.cfg;
        return runExperiment(spec);
    });

    Table t({"ablation", "setting", "avg util", "LS P99", "BI BW"});
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const ExperimentResult &r = results[i];
        const double ls_p99 = r.meanLatencySensitiveP99();
        const double bi_bw = r.meanBandwidthIntensiveBw();
        t.addRow({cells[i].what, cells[i].setting,
                  fmtPercent(r.avg_util), fmtLatencyMs(SimTime(ls_p99)),
                  fmtDouble(bi_bw, 1) + " MB/s"});
        report.addCell(cells[i].what + " = " + cells[i].setting,
                       {{"avg_util", r.avg_util},
                        {"ls_p99_ns", ls_p99},
                        {"bi_bw_mbps", bi_bw}});
    }
    t.print(std::cout);
    std::cout << "\nPaper defaults: beta 0.6, 3 stacked windows, 50 ms "
                 "admission batches.\n";
    return report.finish(argc, argv);
}
