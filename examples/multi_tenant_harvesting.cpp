/**
 * @file
 * Assembling the stack by hand: build the device, vSSDs, gSB manager
 * and FleetIO controller directly (no policy/harness sugar), watch the
 * gSB pool and per-window dynamics as harvesting happens, then
 * deallocate a tenant and observe its capacity become harvestable.
 */
#include <iomanip>
#include <iostream>

#include "src/core/fleetio_controller.h"
#include "src/harness/reporting.h"
#include "src/harness/testbed.h"
#include "src/virt/channel_allocator.h"

using namespace fleetio;

int
main()
{
    // 1. The substrate: a scaled-down Table-3 SSD with two tenants.
    TestbedOptions opts;
    opts.window = msec(100);
    Testbed tb(opts);
    const auto &geo = tb.device().geometry();
    const auto split = ChannelAllocator::equalSplit(geo, 2);
    const auto quota = geo.totalBlocks() / 2;

    Vssd &web = tb.addTenant(WorkloadKind::kVdiWeb, split[0], quota,
                             msec(2));
    Vssd &sort = tb.addTenant(WorkloadKind::kTeraSort, split[1], quota,
                              msec(25));

    // 2. FleetIO: one RL agent per vSSD, fine-tuned reward alphas.
    FleetIoConfig cfg;
    cfg.decision_window = opts.window;
    cfg.teacher_windows = 300;  // bootstrap phase (see DESIGN.md)
    FleetIoController ctrl(cfg, tb.eq(), tb.vssds(), tb.gsb());
    ctrl.addVssd(web, kAlphaLc1);   // latency-sensitive
    ctrl.addVssd(sort, kAlphaBi);   // bandwidth-intensive
    ctrl.start();

    tb.warmupFill();
    tb.startWorkloads();

    // 3. Watch the harvesting dynamics for a few seconds.
    std::cout << "time   sort BW     web P99   held  donated  pool  "
                 "gSBs(c/h/r)\n";
    std::uint64_t prev_bytes = 0;
    for (int i = 0; i < 12; ++i) {
        tb.run(msec(500));
        // The controller rolls the per-window stats every 100 ms, so
        // report interval bandwidth from the lifetime byte counter and
        // the tail from the lifetime latency distribution.
        const std::uint64_t bytes = sort.bandwidth().totalBytes();
        const double interval_mbps =
            double(bytes - prev_bytes) / (1024.0 * 1024.0) / 0.5;
        prev_bytes = bytes;
        std::cout << std::setw(4) << toSeconds(tb.eq().now()) << "s  "
                  << std::setw(7) << fmtDouble(interval_mbps, 1)
                  << " MB/s  "
                  << std::setw(8)
                  << fmtLatencyMs(web.latency().quantile(0.99))
                  << "  " << std::setw(4)
                  << tb.gsb().heldChannels(sort.id()) << "  "
                  << std::setw(7) << tb.gsb().donatedChannels(web.id())
                  << "  " << std::setw(4) << tb.gsb().pool().available()
                  << "  " << tb.gsb().createdCount() << "/"
                  << tb.gsb().harvestedCount() << "/"
                  << tb.gsb().reclaimedCount() << "\n";
    }

    // 4. Deallocate the web tenant (§3.7): its data is trimmed and its
    //    blocks become reclaimable for future harvesting.
    std::cout << "\nDeallocating the VDI-Web vSSD...\n";
    tb.workload(web.id()).stop();
    ctrl.stop();
    tb.vssds().deallocate(web.id());
    tb.run(sec(2));
    std::cout << "web live pages after deallocation: "
              << web.ftl().livePages() << "\n";
    std::cout << "device write amplification: "
              << fmtDouble(tb.device().writeAmplification()) << "\n";
    return 0;
}
