/**
 * @file
 * Figure 17 reproduction: robustness to a collocated-workload switch.
 * FleetIO-Transfer trains with one collocated workload and is then
 * measured after that workload morphs into a different one;
 * FleetIO-Pretrained trains directly on the final combination.
 * Paper: Transfer performs within 5 % of Pretrained — the agents do
 * not overfit to the specific collocated tenant.
 */
#include "bench/bench_common.h"

using namespace fleetio;
using namespace fleetio::bench;

namespace {

/**
 * Run FleetIO with tenants {focus, trained_with}; after training,
 * morph the collocated tenant into @p evaluated_with and measure.
 * Pass trained_with == evaluated_with for the Pretrained arm.
 */
ExperimentResult
run(WorkloadKind focus, WorkloadKind trained_with,
    WorkloadKind evaluated_with)
{
    ExperimentSpec spec =
        makeSpec({focus, trained_with}, PolicyKind::kFleetIo);
    // Calibrate the SLOs against the *evaluated* combination.
    spec.slos = {calibratedSlo(focus, 2, spec.opts),
                 calibratedSlo(evaluated_with, 2, spec.opts)};
    // The Transfer arm pre-trains with the original neighbour, which
    // turns into the evaluated one before the measure.
    if (trained_with != evaluated_with) {
        spec.on_step = [evaluated_with](ExperimentStep step, Testbed &tb,
                                        Policy &) {
            if (step == ExperimentStep::kPrepared)
                tb.workload(1).morphTo(profileFor(evaluated_with));
        };
    }
    return runExperiment(spec);
}

}  // namespace

int
main(int argc, char **argv)
{
    banner("Figure 17: robustness to collocated-workload changes");
    BenchReport report("fig17_robustness");
    report.setJobs(benchJobs());

    using K = WorkloadKind;
    struct Case
    {
        K focus, trained, evaluated;
        bool focus_is_bi;
    };
    // T + (V -> Y) etc., as labelled in Fig. 17.
    const std::vector<Case> cases = {
        {K::kTeraSort, K::kVdiWeb, K::kYcsbB, true},
        {K::kMlPrep, K::kVdiWeb, K::kYcsbB, true},
        {K::kPageRank, K::kVdiWeb, K::kYcsbB, true},
        {K::kVdiWeb, K::kTeraSort, K::kMlPrep, false},
        {K::kVdiWeb, K::kMlPrep, K::kPageRank, false},
        {K::kYcsbB, K::kPageRank, K::kTeraSort, false},
    };

    // Both arms of every case are independent simulations: fan all 12
    // out through the pool, pretrained at 2i, transfer at 2i+1.
    struct Task
    {
        K focus, trained, evaluated;
    };
    std::vector<Task> tasks;
    for (const auto &c : cases) {
        tasks.push_back({c.focus, c.evaluated, c.evaluated});
        tasks.push_back({c.focus, c.trained, c.evaluated});
    }
    const auto outcomes = parallelMap(tasks, [](const Task &t) {
        return run(t.focus, t.trained, t.evaluated);
    });

    Table t({"case", "metric", "Pretrained", "Transfer",
             "Transfer/Pretrained"});
    for (std::size_t i = 0; i < cases.size(); ++i) {
        const auto &c = cases[i];
        const ExperimentResult &pre = outcomes[2 * i];
        const ExperimentResult &xfer = outcomes[2 * i + 1];
        // The focus tenant is tenant 0.
        const TenantResult &pre_f = pre.tenants[0];
        const TenantResult &xfer_f = xfer.tenants[0];
        const std::string label =
            workloadName(c.focus) + " + (" + workloadName(c.trained) +
            " -> " + workloadName(c.evaluated) + ")";
        t.addRow({label, "util", fmtPercent(pre.avg_util),
                  fmtPercent(xfer.avg_util),
                  fmtDouble(normalizeTo(xfer.avg_util, pre.avg_util))});
        if (c.focus_is_bi) {
            t.addRow({label, "BW (MB/s)", fmtDouble(pre_f.avg_bw_mbps, 1),
                      fmtDouble(xfer_f.avg_bw_mbps, 1),
                      fmtDouble(normalizeTo(xfer_f.avg_bw_mbps,
                                            pre_f.avg_bw_mbps))});
        } else {
            t.addRow({label, "P99", fmtLatencyMs(pre_f.p99),
                      fmtLatencyMs(xfer_f.p99),
                      fmtDouble(normalizeTo(double(xfer_f.p99),
                                            double(pre_f.p99)))});
        }
        report.addCell(label + " [pretrained]",
                       {{"util", pre.avg_util},
                        {"focus_bw_mbps", pre_f.avg_bw_mbps},
                        {"focus_p99_ns", double(pre_f.p99)}});
        report.addCell(label + " [transfer]",
                       {{"util", xfer.avg_util},
                        {"focus_bw_mbps", xfer_f.avg_bw_mbps},
                        {"focus_p99_ns", double(xfer_f.p99)}});
    }
    t.print(std::cout);
    std::cout << "\nExpected shape: Transfer within a few percent of "
                 "Pretrained (paper: within 5%).\n";
    return report.finish(argc, argv);
}
