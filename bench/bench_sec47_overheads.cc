/**
 * @file
 * §4.7 reproduction: FleetIO's overhead sources — RL inference per
 * decision window (paper: 1.1 ms), periodic PPO fine-tuning (paper:
 * 51.2 ms per 10 windows), gSB creation (paper: < 1 us of metadata
 * work), and admission-control batch processing (paper: 0.8 ms per
 * 1,000 actions) — plus the model storage cost (paper: 2.2 MB per
 * vSSD).
 *
 * Each case is timed with steady_clock over kSamples samples and
 * reports the median, min and max time per call. Set-up a sample needs
 * (a fresh agent's rollout, a batch of queued actions) runs outside the
 * timed region.
 */
#include <algorithm>
#include <chrono>
#include <iostream>
#include <memory>

#include "src/core/admission_control.h"
#include "src/core/agent.h"
#include "src/harness/reporting.h"
#include "src/harness/testbed.h"
#include "src/virt/channel_allocator.h"

using namespace fleetio;

namespace {

constexpr int kSamples = 21;

/** Every timed call stores its result here: a volatile store the
 *  compiler must perform, so it cannot drop the work. */
volatile double g_sink = 0;

/** A testbed with VDI-Web and TeraSort on an equal channel split. */
std::unique_ptr<Testbed>
twoTenantTestbed()
{
    auto tb = std::make_unique<Testbed>(TestbedOptions{});
    const auto &geo = tb->device().geometry();
    const auto split = ChannelAllocator::equalSplit(geo, 2);
    tb->addTenant(WorkloadKind::kVdiWeb, split[0], geo.totalBlocks() / 2,
                  msec(2));
    tb->addTenant(WorkloadKind::kTeraSort, split[1],
                  geo.totalBlocks() / 2, msec(20));
    return tb;
}

/**
 * Run @p setup untimed, then time @p calls calls of @p op, kSamples
 * times. Records median / min / max microseconds per call as a cell of
 * @p report and a row of @p t.
 */
template <typename Setup, typename Op>
void
timeCase(BenchReport &report, Table &t, const std::string &name,
         const std::string &paper, int calls, Setup setup, Op op)
{
    std::vector<double> us;
    for (int s = 0; s < kSamples; ++s) {
        setup();
        const auto t0 = std::chrono::steady_clock::now();
        for (int i = 0; i < calls; ++i)
            op();
        const auto t1 = std::chrono::steady_clock::now();
        us.push_back(std::chrono::duration<double, std::micro>(t1 - t0)
                         .count() /
                     calls);
    }
    std::sort(us.begin(), us.end());
    const double median = us[us.size() / 2];
    report.addCell(name, {{"median_us", median},
                          {"min_us", us.front()},
                          {"max_us", us.back()}});
    t.addRow({name, fmtDouble(median, 2), fmtDouble(us.front(), 2),
              fmtDouble(us.back(), 2), paper});
}

}  // namespace

int
main(int argc, char **argv)
{
    std::cout << "Sec. 4.7 overheads (us per call, " << kSamples
              << " samples per case)\n\n";
    BenchReport report("sec47_overheads");
    Table t({"case", "median us", "min us", "max us", "paper"});
    FleetIoConfig cfg;
    cfg.decision_window = msec(100);

    {
        FleetIoAgent agent(0, cfg, 42);
        agent.setTraining(false);
        const rl::Vector s(cfg.stateDim(), 0.25);
        timeCase(report, t, "rl_inference", "1.1 ms / window", 1000,
                 [] {},
                 [&] { g_sink = agent.decide(s).harvest_bw_mbps; });
    }

    {
        std::unique_ptr<FleetIoAgent> agent;
        const rl::Vector boot(cfg.stateDim(), 0.0);
        timeCase(
            report, t, "ppo_fine_tune", "51.2 ms / 10 windows", 1,
            [&] {
                agent = std::make_unique<FleetIoAgent>(0, cfg, 43);
                Rng rng(7);
                for (int i = 0; i < 64; ++i) {
                    rl::Vector s(cfg.stateDim());
                    for (auto &x : s)
                        x = rng.uniform(-1, 1);
                    agent->decide(s);
                    agent->completeTransition(rng.uniform());
                }
            },
            [&] { g_sink = agent->train(boot).policy_loss; });
    }

    {
        auto tb = twoTenantTestbed();
        const double bw =
            tb->device().geometry().channelBandwidthMBps() * 2;
        timeCase(report, t, "gsb_create_destroy", "< 1 us per creation",
                 1000, [] {}, [&] {
                     tb->gsb().makeHarvestable(0, bw);  // 2-channel gSB
                     g_sink = double(tb->gsb().liveGsbs());
                     tb->gsb().makeHarvestable(0, 0.0);  // destroy it
                 });
    }

    {
        auto tb = twoTenantTestbed();
        const double ch_bw =
            tb->device().geometry().channelBandwidthMBps();
        AdmissionControl adm(tb->gsb(), tb->eq(), msec(50));
        timeCase(
            report, t, "admission_batch_1000", "0.8 ms", 1,
            [&] {
                for (int i = 0; i < 1000; ++i) {
                    const bool mh = i % 2 == 0;
                    adm.submit(PendingAction{
                        VssdId(i % 2),
                        mh ? PendingAction::Type::kMakeHarvestable
                           : PendingAction::Type::kHarvest,
                        ch_bw, 0});
                }
            },
            [&] {
                adm.flush();
                g_sink = double(adm.processed());
            });
    }

    timeCase(report, t, "agent_construct", "-", 10, [] {}, [&] {
        FleetIoAgent agent(0, cfg, 44);
        g_sink = double(agent.policy().numParams());
    });
    t.print(std::cout);

    const FleetIoAgent agent(0, cfg, 44);
    const double params = double(agent.policy().numParams());
    const double bytes = params * sizeof(double);
    std::cout << "\nmodel storage per vSSD: " << std::uint64_t(params)
              << " params, " << std::uint64_t(bytes)
              << " bytes as fp64 (paper: 2.2 MB / 9K params)\n";
    report.addCell("model_storage",
                   {{"params", params}, {"bytes_fp64", bytes}});
    return report.finish(argc, argv);
}
