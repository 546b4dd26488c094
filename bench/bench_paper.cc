/**
 * @file
 * The paper's evaluation grid, run once: Figs. 2, 3 and 10-16.
 *
 * Figs. 10-13 are four views of one experiment (six LS + BI pairs under
 * the five main policies); Figs. 2, 3, 14, 15 and 16 reuse parts of it.
 * Every cell of these figures is makeSpec(workloads, policy), so the
 * pair (workloads, policy) names a cell: the figures ask for 202 cells,
 * of which 59 are distinct, and each distinct cell runs once. Each
 * figure then prints its title line followed by its tables, and its
 * headline metrics go to BENCH_paper.json prefixed by the figure's
 * name (e.g. "fig11_util.fleetio_vs_sw_util_avg").
 *
 * Paper results quoted per figure:
 *  - Fig. 2: software isolation improves average utilization by up to
 *    1.52x (1.39x on average) over hardware isolation.
 *  - Fig. 3: software isolation gives BI workloads up to 1.84x (1.64x
 *    avg) bandwidth but LS workloads up to 2.02x P99.
 *  - Fig. 10: FleetIO improves utilization over HW by up to 1.39x
 *    (1.30x avg) at P99 within ~1.2x of HW, well below SW / Adaptive.
 *  - Fig. 11: FleetIO reaches ~93 % of SW's utilization.
 *  - Fig. 12: FleetIO's LS P99 is 1.29-1.89x lower than SW / Adaptive.
 *  - Fig. 13: FleetIO improves BI bandwidth 1.27-1.61x over HW (1.46x
 *    avg), ~89 % of SW's.
 *  - Fig. 14 (Table-5 mixes of 2/4/8 vSSDs): FleetIO keeps the P99
 *    increase under ~10 % while improving utilization 1.18-1.33x.
 *  - Fig. 15 (reward ablation): Customized-Local (beta = 1) behaves
 *    like HW; Unified-Global is inconsistent; full FleetIO gets both.
 *  - Fig. 16 (mix3 with two HW-isolated VDI-Web and two SW-isolated
 *    TeraSort vSSDs): FleetIO improves utilization 1.27x and TeraSort
 *    bandwidth 1.42x over Mixed Isolation at ~1.19x P99.
 */
#include <algorithm>
#include <map>
#include <utility>

#include "bench/bench_common.h"

using namespace fleetio;
using namespace fleetio::bench;

namespace {

using P = PolicyKind;
using Metrics = std::map<std::string, double>;

/** Every distinct (workloads, policy) cell of the figures, run once. */
class Grid
{
  public:
    /** Register @p row under @p policy; a cell already registered is
     *  not added again. The first row to name a cell labels it. */
    void add(const Mix &row, PolicyKind policy)
    {
        if (index_.emplace(Key{row.workloads, policy}, specs_.size())
                .second) {
            specs_.push_back(makeSpec(row.workloads, policy));
            labels_.push_back(row.label);
        }
    }

    /** Run every registered cell and record each in @p report. */
    void run(BenchReport &report)
    {
        results_ = runExperiments(specs_);
        for (std::size_t i = 0; i < results_.size(); ++i)
            report.addCell(labels_[i], results_[i]);
    }

    const ExperimentResult &
    operator()(const Mix &row, PolicyKind policy) const
    {
        return results_[index_.at(Key{row.workloads, policy})];
    }

  private:
    using Key = std::pair<std::vector<WorkloadKind>, PolicyKind>;
    std::map<Key, std::size_t> index_;
    std::vector<ExperimentSpec> specs_;
    std::vector<std::string> labels_;
    std::vector<ExperimentResult> results_;
};

/** One figure: the grid rows and policies it plots, and its printer. */
struct Figure
{
    std::string title;
    /// Prefix of its headline metrics in BENCH_paper.json.
    std::string name;
    std::vector<Mix> rows;
    std::vector<PolicyKind> policies;
    /// Prints the figure's tables; returns its headline metrics.
    Metrics (*print)(const Figure &, const Grid &);
};

Metrics
fig02(const Figure &f, const Grid &g)
{
    Table t({"pair", "HW avg util", "HW p95", "SW avg util", "SW p95",
             "SW/HW"});
    double ratio_sum = 0, ratio_max = 0;
    for (const Mix &pair : f.rows) {
        const auto &hw = g(pair, P::kHardwareIsolation);
        const auto &sw = g(pair, P::kSoftwareIsolation);
        const double ratio = normalizeTo(sw.avg_util, hw.avg_util);
        ratio_sum += ratio;
        ratio_max = std::max(ratio_max, ratio);
        t.addRow({pair.label, fmtPercent(hw.avg_util),
                  fmtPercent(hw.p95_util), fmtPercent(sw.avg_util),
                  fmtPercent(sw.p95_util), fmtDouble(ratio) + "x"});
    }
    const double n = double(f.rows.size());
    t.print(std::cout);
    std::cout << "\nSoftware-isolation utilization improvement: avg "
              << fmtDouble(ratio_sum / n) << "x, max "
              << fmtDouble(ratio_max)
              << "x  (paper: 1.39x avg, up to 1.52x)\n";
    return {{"sw_util_gain_avg", ratio_sum / n},
            {"sw_util_gain_max", ratio_max}};
}

Metrics
fig03(const Figure &f, const Grid &g)
{
    Table a({"BI workload (pair)", "HW BW (MB/s)", "SW BW (MB/s)",
             "SW/HW"});
    Table b({"LS workload (pair)", "HW P99", "SW P99", "SW/HW"});
    double bw_gain_sum = 0, lat_ratio_sum = 0;
    for (const Mix &pair : f.rows) {
        const auto &hw = g(pair, P::kHardwareIsolation);
        const auto &sw = g(pair, P::kSoftwareIsolation);
        const double bw_hw = hw.meanBandwidthIntensiveBw();
        const double bw_sw = sw.meanBandwidthIntensiveBw();
        const double p99_hw = hw.meanLatencySensitiveP99();
        const double p99_sw = sw.meanLatencySensitiveP99();
        bw_gain_sum += normalizeTo(bw_sw, bw_hw);
        lat_ratio_sum += normalizeTo(p99_sw, p99_hw);
        a.addRow({pair.label, fmtDouble(bw_hw, 1), fmtDouble(bw_sw, 1),
                  fmtDouble(normalizeTo(bw_sw, bw_hw)) + "x"});
        b.addRow({pair.label, fmtLatencyMs(SimTime(p99_hw)),
                  fmtLatencyMs(SimTime(p99_sw)),
                  fmtDouble(normalizeTo(p99_sw, p99_hw)) + "x"});
    }
    const double n = double(f.rows.size());
    std::cout << "(a) Bandwidth-intensive workload I/O bandwidth\n";
    a.print(std::cout);
    std::cout << "\n(b) Latency-sensitive workload P99 latency\n";
    b.print(std::cout);
    std::cout << "\nSW-isolation BI bandwidth gain avg "
              << fmtDouble(bw_gain_sum / n)
              << "x (paper: 1.64x avg, up to 1.84x); LS P99 inflation "
                 "avg "
              << fmtDouble(lat_ratio_sum / n)
              << "x (paper: up to 2.02x)\n";
    return {{"sw_bi_bw_gain_avg", bw_gain_sum / n},
            {"sw_ls_p99_inflation_avg", lat_ratio_sum / n}};
}

Metrics
fig10(const Figure &f, const Grid &g)
{
    Table t({"pair", "policy", "util gain vs HW",
             "LS P99 (norm. to HW)"});
    std::map<std::string, std::pair<double, double>> policy_sums;
    for (const Mix &pair : f.rows) {
        const auto &hw = g(pair, P::kHardwareIsolation);
        for (PolicyKind pk : f.policies) {
            const auto &res = g(pair, pk);
            const double util_gain =
                normalizeTo(res.avg_util, hw.avg_util);
            const double p99_norm =
                normalizeTo(res.meanLatencySensitiveP99(),
                            hw.meanLatencySensitiveP99());
            t.addRow({pair.label, res.policy, fmtDouble(util_gain) + "x",
                      fmtDouble(p99_norm) + "x"});
            policy_sums[res.policy].first += util_gain;
            policy_sums[res.policy].second += p99_norm;
        }
    }
    t.print(std::cout);

    std::cout << "\nScatter centroids (cf. Fig. 10 markers):\n";
    Table c({"policy", "mean util gain", "mean norm. P99"});
    const double n = double(f.rows.size());
    for (const auto &[name, sums] : policy_sums) {
        c.addRow({name, fmtDouble(sums.first / n) + "x",
                  fmtDouble(sums.second / n) + "x"});
    }
    c.print(std::cout);
    std::cout << "\nExpected shape: FleetIO sits upper-left — more "
                 "utilization than HW/SSDKeeper at far lower P99 than "
                 "SW/Adaptive.\n";
    return {};
}

/** @p metric of @p row's cell under each of @p f's policies, in order:
 *  for the main policies, [0] is HW, [3] SW and [4] FleetIO. */
template <typename Fn>
std::vector<double>
perPolicy(const Figure &f, const Grid &g, const Mix &row, Fn metric)
{
    std::vector<double> out;
    for (PolicyKind pk : f.policies)
        out.push_back(metric(g(row, pk)));
    return out;
}

Metrics
fig11(const Figure &f, const Grid &g)
{
    Table t({"pair", "HW", "SSDKeeper", "Adaptive", "SW", "FleetIO",
             "FleetIO/SW"});
    double frac_sum = 0;
    for (const Mix &pair : f.rows) {
        const auto u = perPolicy(f, g, pair, [](const auto &r) {
            return r.avg_util;
        });
        const double fleet_vs_sw = normalizeTo(u[4], u[3]);
        frac_sum += fleet_vs_sw;
        t.addRow({pair.label, fmtPercent(u[0]), fmtPercent(u[1]),
                  fmtPercent(u[2]), fmtPercent(u[3]), fmtPercent(u[4]),
                  fmtPercent(fleet_vs_sw)});
    }
    const double n = double(f.rows.size());
    t.print(std::cout);
    std::cout << "\nFleetIO reaches " << fmtPercent(frac_sum / n)
              << " of Software Isolation's utilization on average "
                 "(paper: ~93%).\n";
    return {{"fleetio_vs_sw_util_avg", frac_sum / n}};
}

Metrics
fig12(const Figure &f, const Grid &g)
{
    Table t({"pair", "HW P99 (abs)", "SSDKeeper", "Adaptive", "SW",
             "FleetIO", "SW/FleetIO"});
    double fleet_sum = 0, reduction_sum = 0;
    for (const Mix &pair : f.rows) {
        const auto p99 = perPolicy(f, g, pair, [](const auto &r) {
            return r.meanLatencySensitiveP99();
        });
        const double base = p99[0];
        fleet_sum += normalizeTo(p99[4], base);
        reduction_sum += normalizeTo(p99[3], p99[4]);
        t.addRow({pair.label, fmtLatencyMs(SimTime(base)),
                  fmtDouble(normalizeTo(p99[1], base)) + "x",
                  fmtDouble(normalizeTo(p99[2], base)) + "x",
                  fmtDouble(normalizeTo(p99[3], base)) + "x",
                  fmtDouble(normalizeTo(p99[4], base)) + "x",
                  fmtDouble(normalizeTo(p99[3], p99[4])) + "x"});
    }
    const double n = double(f.rows.size());
    t.print(std::cout);
    std::cout << "\nFleetIO P99 vs Hardware Isolation: "
              << fmtDouble(fleet_sum / n)
              << "x on average (paper: within ~1.2x).\n"
              << "FleetIO reduces P99 vs Software Isolation by "
              << fmtDouble(reduction_sum / n)
              << "x on average (paper headline: 1.5x).\n";
    return {{"fleetio_p99_vs_hw_avg", fleet_sum / n},
            {"fleetio_p99_reduction_vs_sw_avg", reduction_sum / n}};
}

Metrics
fig13(const Figure &f, const Grid &g)
{
    Table t({"pair", "HW BW (abs)", "SSDKeeper", "Adaptive", "SW",
             "FleetIO", "FleetIO/SW"});
    double gain_sum = 0, frac_sum = 0;
    for (const Mix &pair : f.rows) {
        const auto bw = perPolicy(f, g, pair, [](const auto &r) {
            return r.meanBandwidthIntensiveBw();
        });
        const double base = bw[0];
        gain_sum += normalizeTo(bw[4], base);
        frac_sum += normalizeTo(bw[4], bw[3]);
        t.addRow({pair.label, fmtDouble(base, 1) + " MB/s",
                  fmtDouble(normalizeTo(bw[1], base)) + "x",
                  fmtDouble(normalizeTo(bw[2], base)) + "x",
                  fmtDouble(normalizeTo(bw[3], base)) + "x",
                  fmtDouble(normalizeTo(bw[4], base)) + "x",
                  fmtPercent(normalizeTo(bw[4], bw[3]))});
    }
    const double n = double(f.rows.size());
    t.print(std::cout);
    std::cout << "\nFleetIO BI bandwidth vs Hardware Isolation: "
              << fmtDouble(gain_sum / n)
              << "x avg (paper: 1.46x avg); fraction of Software "
                 "Isolation: "
              << fmtPercent(frac_sum / n) << " (paper: ~89%).\n";
    return {{"fleetio_bi_bw_gain_avg", gain_sum / n},
            {"fleetio_vs_sw_bw_avg", frac_sum / n}};
}

Metrics
fig14(const Figure &f, const Grid &g)
{
    Table a({"mix", "policy", "avg util", "util vs HW"});
    Table b({"mix", "policy", "mean LS P99", "vs HW"});
    Table c({"mix", "policy", "mean BI BW", "vs HW"});
    for (const Mix &mix : f.rows) {
        const auto &hw = g(mix, P::kHardwareIsolation);
        for (PolicyKind pk : f.policies) {
            const auto &res = g(mix, pk);
            a.addRow({mix.label, res.policy, fmtPercent(res.avg_util),
                      fmtDouble(normalizeTo(res.avg_util,
                                            hw.avg_util)) + "x"});
            b.addRow({mix.label, res.policy,
                      fmtLatencyMs(
                          SimTime(res.meanLatencySensitiveP99())),
                      fmtDouble(normalizeTo(
                          res.meanLatencySensitiveP99(),
                          hw.meanLatencySensitiveP99())) + "x"});
            c.addRow({mix.label, res.policy,
                      fmtDouble(res.meanBandwidthIntensiveBw(), 1) +
                          " MB/s",
                      fmtDouble(normalizeTo(
                          res.meanBandwidthIntensiveBw(),
                          hw.meanBandwidthIntensiveBw())) + "x"});
        }
    }
    std::cout << "(a) average storage utilization\n";
    a.print(std::cout);
    std::cout << "\n(b) P99 of latency-sensitive workloads\n";
    b.print(std::cout);
    std::cout << "\n(c) bandwidth of bandwidth-intensive workloads\n";
    c.print(std::cout);
    return {};
}

Metrics
fig15(const Figure &f, const Grid &g)
{
    Table a({"pair", "policy", "avg util"});
    Table b({"pair", "policy", "LS P99", "norm. to HW"});
    for (const Mix &pair : f.rows) {
        const double hw_p99 =
            g(pair, P::kHardwareIsolation).meanLatencySensitiveP99();
        for (PolicyKind pk : f.policies) {
            const auto &res = g(pair, pk);
            a.addRow({pair.label, res.policy, fmtPercent(res.avg_util)});
            b.addRow({pair.label, res.policy,
                      fmtLatencyMs(
                          SimTime(res.meanLatencySensitiveP99())),
                      fmtDouble(normalizeTo(
                          res.meanLatencySensitiveP99(), hw_p99)) +
                          "x"});
        }
    }
    std::cout << "(a) average storage utilization\n";
    a.print(std::cout);
    std::cout << "\n(b) P99 of the latency-sensitive workload\n";
    b.print(std::cout);
    std::cout << "\nExpected shape: Customized-Local's utilization "
                 "tracks Hardware Isolation (beta = 1 gives no "
                 "incentive to donate); full FleetIO lifts "
                 "utilization while holding P99 near HW.\n";
    return {};
}

Metrics
fig16(const Figure &f, const Grid &g)
{
    const Mix &mix3 = f.rows.front();
    const auto &base = g(mix3, P::kMixedIsolation);
    const auto &fleet = g(mix3, P::kFleetIoMixed);
    std::cout << "FleetIO vs Mixed Isolation: util "
              << fmtDouble(normalizeTo(fleet.avg_util, base.avg_util))
              << "x (paper 1.27x), TeraSort BW "
              << fmtDouble(normalizeTo(fleet.meanBandwidthIntensiveBw(),
                                       base.meanBandwidthIntensiveBw()))
              << "x (paper 1.42x), P99 "
              << fmtDouble(normalizeTo(fleet.meanLatencySensitiveP99(),
                                       base.meanLatencySensitiveP99()))
              << "x (paper 1.19x)\n\n";
    Table t({"policy", "avg util", "VDI-Web P99 (mean)",
             "TeraSort BW (mean)"});
    for (PolicyKind pk : f.policies) {
        const auto &res = g(mix3, pk);
        t.addRow({res.policy, fmtPercent(res.avg_util),
                  fmtLatencyMs(SimTime(res.meanLatencySensitiveP99())),
                  fmtDouble(res.meanBandwidthIntensiveBw(), 1) +
                      " MB/s"});
    }
    t.print(std::cout);
    return {};
}

}  // namespace

int
main(int argc, char **argv)
{
    std::vector<Mix> pairs;
    for (const auto &pair : evaluationPairs())
        pairs.push_back({pairLabel(pair), pair});
    const auto mixes = scalabilityMixes();
    const Mix &mix3 = mixes[2];
    const auto main5 = mainPolicies();
    const std::vector<PolicyKind> hw_sw = {P::kHardwareIsolation,
                                           P::kSoftwareIsolation};
    const std::vector<Figure> figures = {
        {"Figure 2: utilization, Hardware vs Software Isolation",
         "fig02_motivation_util", pairs, hw_sw, fig02},
        {"Figure 3: collocated performance, HW vs SW isolation",
         "fig03_motivation_perf", pairs, hw_sw, fig03},
        {"Figure 10: utilization vs P99 trade-off (all policies)",
         "fig10_tradeoff", pairs, main5, fig10},
        {"Figure 11: storage utilization by policy", "fig11_util", pairs,
         main5, fig11},
        {"Figure 12: normalized P99 of the LS workload", "fig12_latency",
         pairs, main5, fig12},
        {"Figure 13: normalized bandwidth of the BI workload",
         "fig13_bandwidth", pairs, main5, fig13},
        {"Figure 14: scalability over Table-5 mixes", "fig14_scalability",
         mixes, main5, fig14},
        {"Figure 15: reward-function ablation", "fig15_reward_ablation",
         pairs,
         {P::kHardwareIsolation, P::kFleetIoCustomizedLocal,
          P::kFleetIoUnifiedGlobal, P::kFleetIo, P::kSoftwareIsolation},
         fig15},
        {"Figure 16: mixed hardware- and software-isolated vSSDs",
         "fig16_mixed_isolation", {mix3},
         {P::kMixedIsolation, P::kSoftwareIsolation, P::kFleetIoMixed},
         fig16},
    };

    banner("Paper Figs. 2, 3 and 10-16 from one grid, each cell run "
           "once");
    BenchReport report("paper");
    report.setJobs(benchJobs());
    Grid grid;
    for (const Figure &f : figures) {
        for (const Mix &row : f.rows) {
            for (PolicyKind pk : f.policies)
                grid.add(row, pk);
        }
    }
    grid.run(report);
    for (const Figure &f : figures) {
        std::cout << f.title << "\n";
        for (const auto &[key, value] : f.print(f, grid))
            report.setMetric(f.name + "." + key, value);
    }
    return report.finish(argc, argv);
}
