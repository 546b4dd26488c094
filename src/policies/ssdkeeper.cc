#include "src/policies/ssdkeeper.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "src/virt/channel_allocator.h"

namespace fleetio {

namespace {
constexpr double kBwScale = 512.0;   // MB/s feature scale
constexpr double kSizeScale = 128.0; // KB feature scale
constexpr double kChannelMBps = 64.0;
}

ChannelDemandNet::ChannelDemandNet()
    : rng_(0xC0FFEEull),
      trunk_(store_, 3, {kHidden, kHidden}, rng_),
      head_(store_, kHidden, 1, rng_, 1.0)
{
    // Synthetic supervision: demand grows with total bandwidth (with
    // 15 % headroom) and slightly with request size; exactly the signal
    // SSDKeeper's DNN extracts from its workload corpus.
    rl::Adam::Config acfg;
    acfg.lr = 3e-3;
    acfg.max_grad_norm = 0.0;
    rl::Adam opt(store_, acfg);

    const int kSteps = 4000;
    const std::size_t kBatch = 16;
    double loss = 0.0;
    rl::Vector x(kBatch * 3), acts(kBatch * trunk_.actsPerRow());
    rl::Vector y(kBatch), target(kBatch), dy(kBatch), dh(kBatch * kHidden);
    for (int step = 0; step < kSteps; ++step) {
        store_.zeroGrads();
        for (std::size_t b = 0; b < kBatch; ++b) {
            const double r = rng_.uniform(0.0, 900.0);
            const double w = rng_.uniform(0.0, 900.0);
            const double k = rng_.uniform(4.0, 256.0);
            target[b] = std::clamp(
                (r + w) / kChannelMBps * 1.15 + k / 1024.0, 0.5, 16.0);
            const auto in = normalize(r, w, k);
            std::copy(in.begin(), in.end(), x.begin() + b * 3);
        }
        const std::span<const double> h = trunk_.forward(x, acts);
        head_.forward(h, y);
        loss = 0.0;
        for (std::size_t b = 0; b < kBatch; ++b) {
            const double err = y[b] - target[b];
            loss += 0.5 * err * err;
            dy[b] = err / double(kBatch);
        }
        head_.backward(dy, h, dh);
        trunk_.backward(x, acts, dh);
        opt.step();
    }
    final_loss_ = loss / kBatch;
}

std::array<double, 3>
ChannelDemandNet::normalize(double r, double w, double k)
{
    return {r / kBwScale, w / kBwScale, k / kSizeScale};
}

double
ChannelDemandNet::predict(double read_mbps, double write_mbps,
                          double avg_io_kb) const
{
    // Every cell shares one trained net (demandNet() is a static), so a
    // prediction keeps its activations on its own stack.
    const auto x = normalize(read_mbps, write_mbps, avg_io_kb);
    std::array<double, 2 * kHidden> acts;
    const std::span<const double> h = trunk_.forward(x, acts);
    double y = 0.0;
    head_.forward(h, std::span<double>(&y, 1));
    return std::max(0.0, y);
}

const ChannelDemandNet &
SsdKeeperPolicy::demandNet()
{
    static const ChannelDemandNet net;
    return net;
}

void
SsdKeeperPolicy::setup(Testbed &tb,
                       const std::vector<WorkloadKind> &workloads,
                       const std::vector<SimTime> &slos)
{
    assert(workloads.size() == slos.size());
    const auto &geo = tb.device().geometry();
    const std::size_t n = workloads.size();
    const auto split = ChannelAllocator::equalSplit(geo, n);
    const std::uint64_t quota = equalQuota(tb, n);
    for (std::size_t i = 0; i < n; ++i)
        tb.addTenant(workloads[i], split[i], quota, slos[i]);
    tb.scheduler().usePriority(true);
    tb.scheduler().useStride(false);
    min_channels_ = std::max<std::uint32_t>(
        1, geo.num_channels / std::uint32_t(4 * n));
}

void
SsdKeeperPolicy::prepare(Testbed &tb)
{
    // Profile each tenant over a few windows under the initial equal
    // partition, then repartition once (static afterwards).
    const SimTime profile_time = 5 * tb.options().window;
    auto tenants = tb.vssds().active();
    std::vector<std::uint64_t> before_bytes, before_reqs;
    std::vector<std::uint64_t> before_read;
    for (auto *v : tenants) {
        before_bytes.push_back(v->bandwidth().totalBytes());
        before_reqs.push_back(v->bandwidth().totalRequests());
        before_read.push_back(v->bandwidth().windowReadBytes());
    }
    tb.run(profile_time);

    const ChannelDemandNet &net = demandNet();
    std::vector<double> demands;
    const double secs = toSeconds(profile_time);
    constexpr double kMB = 1024.0 * 1024.0;
    for (std::size_t i = 0; i < tenants.size(); ++i) {
        Vssd *v = tenants[i];
        const double bytes =
            double(v->bandwidth().totalBytes() - before_bytes[i]);
        const double reqs =
            double(v->bandwidth().totalRequests() - before_reqs[i]);
        const double read_ratio = v->bandwidth().windowReadRatio();
        const double total_mbps = bytes / kMB / secs;
        const double read_mbps = total_mbps * read_ratio;
        const double write_mbps = total_mbps - read_mbps;
        const double io_kb =
            reqs > 0 ? bytes / reqs / 1024.0 : 16.0;
        demands.push_back(
            std::max(0.5, net.predict(read_mbps, write_mbps, io_kb)));
    }

    const auto split = ChannelAllocator::proportionalSplit(
        tb.device().geometry(), demands, min_channels_);
    for (std::size_t i = 0; i < tenants.size(); ++i)
        tenants[i]->ftl().setChannels(split[i]);
}

}  // namespace fleetio
