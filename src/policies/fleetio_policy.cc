#include "src/policies/fleetio_policy.h"

#include <algorithm>
#include <cassert>

#include "src/harness/experiment.h"
#include "src/virt/channel_allocator.h"

namespace fleetio {

FleetIoPolicy::FleetIoPolicy(const Variant &variant) : variant_(variant)
{
}

void
buildMixedLayout(Testbed &tb,
                 const std::vector<WorkloadKind> &workloads,
                 const std::vector<SimTime> &slos)
{
    const auto &geo = tb.device().geometry();
    const std::size_t n = workloads.size();
    std::vector<std::size_t> ls_idx, bi_idx;
    for (std::size_t i = 0; i < n; ++i) {
        (isBandwidthIntensive(workloads[i]) ? bi_idx : ls_idx)
            .push_back(i);
    }
    assert(!ls_idx.empty() && !bi_idx.empty());

    // LS tenants: hardware-isolated slices of the first half.
    const std::uint32_t half = geo.num_channels / 2;
    const std::uint32_t ls_per = std::max<std::uint32_t>(
        1, half / std::uint32_t(ls_idx.size()));
    // BI tenants: shared access to the second half.
    std::vector<ChannelId> bi_channels;
    for (ChannelId ch = half; ch < geo.num_channels; ++ch)
        bi_channels.push_back(ch);

    const std::uint64_t quota = geo.totalBlocks() / n;
    const double bi_share_bw =
        geo.channel_bw * double(geo.num_channels - half) /
        double(bi_idx.size());

    std::vector<std::vector<ChannelId>> channel_sets(n);
    ChannelId next_ls = 0;
    for (std::size_t k = 0; k < ls_idx.size(); ++k) {
        for (std::uint32_t c = 0; c < ls_per && next_ls < half; ++c)
            channel_sets[ls_idx[k]].push_back(next_ls++);
    }
    for (std::size_t k : bi_idx)
        channel_sets[k] = bi_channels;

    for (std::size_t i = 0; i < n; ++i) {
        Vssd &v = tb.addTenant(workloads[i], channel_sets[i], quota,
                               slos[i]);
        if (isBandwidthIntensive(workloads[i])) {
            // Software isolation among the BI tenants.
            tb.scheduler().setRateLimit(v.id(), bi_share_bw * 2.0,
                                        bi_share_bw * 0.1);
            tb.scheduler().setTickets(v.id(), 1.0);
        }
    }
    tb.scheduler().usePriority(true);
    tb.scheduler().useStride(true);
}

void
MixedIsolationPolicy::setup(Testbed &tb,
                            const std::vector<WorkloadKind> &workloads,
                            const std::vector<SimTime> &slos)
{
    buildMixedLayout(tb, workloads, slos);
}

void
FleetIoPolicy::setup(Testbed &tb,
                     const std::vector<WorkloadKind> &workloads,
                     const std::vector<SimTime> &slos)
{
    assert(workloads.size() == slos.size());
    const auto &geo = tb.device().geometry();
    const std::size_t n = workloads.size();

    if (variant_.mixed_layout) {
        buildMixedLayout(tb, workloads, slos);
    } else {
        // Paper default: every vSSD starts hardware-isolated (§4.1).
        const auto split = ChannelAllocator::equalSplit(geo, n);
        const std::uint64_t quota = equalQuota(tb, n);
        for (std::size_t i = 0; i < n; ++i)
            tb.addTenant(workloads[i], split[i], quota, slos[i]);
        tb.scheduler().usePriority(true);
        tb.scheduler().useStride(false);
    }

    FleetIoConfig cfg = variant_.config;
    cfg.decision_window = tb.options().window;
    cfg.teacher_windows = variant_.train_windows * 2 / 3;
    // Scale the action bandwidth levels to the device: 0..4 channels.
    cfg.harvest_bw_levels.clear();
    cfg.harvestable_bw_levels.clear();
    for (int lvl = 0; lvl <= 8; lvl += 2) {
        const double bw = geo.channelBandwidthMBps() * lvl;
        cfg.harvest_bw_levels.push_back(bw);
        cfg.harvestable_bw_levels.push_back(bw);
    }

    controller_ = std::make_unique<FleetIoController>(
        cfg, tb.eq(), tb.vssds(), tb.gsb());
    for (auto *v : tb.vssds().active()) {
        const WorkloadKind kind = tb.tenantKind(v->id());
        const double alpha = variant_.customized_alpha
                                 ? alphaForKind(kind)
                                 : cfg.unified_alpha;
        controller_->addVssd(*v, alpha);
    }
    controller_->setTraining(true);
    controller_->start();

    if (tb.elastic() != nullptr) {
        // Elastic churn: removals retire agents through
        // FleetIoController::removeVssd, G-state / retirement
        // permission checks guard the action batch, and admitted
        // arrivals get an agent bootstrapped mid-run from the teacher
        // (FleetIoConfig::teacher_windows).
        tb.elastic()->attachController(controller_.get());
        const double unified = cfg.unified_alpha;
        tb.setOnTenantAdded([this, &tb, unified](Vssd &v) {
            const WorkloadKind kind = tb.tenantKind(v.id());
            const double alpha = variant_.customized_alpha
                                     ? alphaForKind(kind)
                                     : unified;
            controller_->addVssd(v, alpha);
        });
    }
}

void
FleetIoPolicy::beforeMeasure(Testbed &tb)
{
    (void)tb;
    // Deployment: the pre-trained policy runs without exploration
    // updates during measurement (§3.8 deploys the pre-trained model;
    // our online PPO phase ran during the tail of prepare()).
    if (controller_)
        controller_->setTraining(false);
}

void
FleetIoPolicy::collectStats(ExperimentResult &res)
{
    if (!controller_)
        return;
    const SupervisionStats s = controller_->supervisionStats();
    res.agent_trips = s.trips;
    res.agent_restores = s.restores;
    res.agent_reinits = s.reinits;
    res.agent_fallback_windows = s.fallback_windows;
    res.agent_lease_releases = s.lease_releases;
    res.agent_grad_skips = s.grad_skips;
    res.agent_checkpoints = s.disk_checkpoints;
}

void
FleetIoPolicy::prepare(Testbed &tb)
{
    // Pre-training: the agents explore and learn with the workloads
    // live, mirroring the paper's offline pre-training on simulated
    // traces. Online fine-tuning continues during measurement.
    const SimTime train_time =
        SimTime(variant_.train_windows) * tb.options().window;
    tb.run(train_time);
}

}  // namespace fleetio
