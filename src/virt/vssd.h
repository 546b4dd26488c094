/**
 * @file
 * The virtual SSD (vSSD): one tenant's slice of the shared device, with
 * its FTL, GC engine, priority level, SLO, and telemetry.
 */
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/harvest/harvested_block_table.h"
#include "src/sim/inline_function.h"
#include "src/sim/types.h"
#include "src/ssd/flash_device.h"
#include "src/ssd/ftl.h"
#include "src/ssd/gc.h"
#include "src/stats/bandwidth_meter.h"
#include "src/stats/latency_tracker.h"
#include "src/virt/qos_tier.h"
#include "src/virt/virtual_queue.h"

namespace fleetio {

/**
 * One virtual SSD. Owns the tenant's FTL and garbage collector and
 * aggregates everything the RL state extractor observes: latency,
 * bandwidth, queue delay, capacity, GC activity, and current priority.
 */
class Vssd
{
  public:
    struct Config
    {
        VssdId id = 0;
        std::string name;                 ///< for reporting
        std::uint64_t quota_blocks = 0;
        std::vector<ChannelId> channels;  ///< own/writable channels
        SimTime slo = kTimeNever;         ///< tail-latency SLO
    };

    Vssd(FlashDevice &dev, HarvestedBlockTable &hbt, const Config &cfg,
         GcEngine::Hooks gc_hooks);

    VssdId id() const { return cfg_.id; }
    const std::string &name() const { return cfg_.name; }
    const Config &config() const { return cfg_; }

    Ftl &ftl() { return ftl_; }
    const Ftl &ftl() const { return ftl_; }
    GcEngine &gc() { return gc_; }
    const GcEngine &gc() const { return gc_; }

    LatencyTracker &latency() { return latency_; }
    const LatencyTracker &latency() const { return latency_; }
    BandwidthMeter &bandwidth() { return bandwidth_; }
    const BandwidthMeter &bandwidth() const { return bandwidth_; }
    VirtualQueue &queue() { return queue_; }
    const VirtualQueue &queue() const { return queue_; }

    Priority priority() const { return priority_; }
    void setPriority(Priority p) { priority_ = p; }

    /**
     * G-state (DESIGN.md §11): the degradation floor the elastic
     * manager imposes under pressure, which the scheduler honours. It
     * defaults to G0, where the clamp is the identity — static runs
     * are unaffected.
     */
    QosTier tierFloor() const { return tier_floor_; }
    void setTierFloor(QosTier t) { tier_floor_ = t; }
    QosTier effectiveTier() const { return tier_floor_; }

    /** Effective priority after the G-state ceiling. */
    Priority effectivePriority() const
    {
        return clampPriority(priority_, effectiveTier());
    }

    /** Retiring tenants must not submit new I/O (drain phase). */
    bool retiring() const { return retiring_; }
    void setRetiring(bool on) { retiring_ = on; }

    SimTime slo() const { return latency_.slo(); }

    /** Roll every per-window statistic at a decision boundary. */
    void rollWindow()
    {
        latency_.rollWindow();
        bandwidth_.rollWindow();
        queue_.rollWindow();
    }

    /**
     * Guaranteed bandwidth of the allocated resources in MB/s
     * (#channels x per-channel bandwidth — Avg_BW_guar in Eq. 1).
     */
    double guaranteedBandwidthMBps(const SsdGeometry &geo) const
    {
        return double(ftl_.channels().size()) * geo.channelBandwidthMBps();
    }

  private:
    Config cfg_;
    Ftl ftl_;
    GcEngine gc_;
    LatencyTracker latency_;
    BandwidthMeter bandwidth_;
    VirtualQueue queue_;
    Priority priority_ = Priority::kMedium;
    QosTier tier_floor_ = QosTier::kG0;
    bool retiring_ = false;
};

/**
 * Registry of collocated vSSDs sharing one device. Builds each vSSD's GC
 * hooks (cross-tenant FTL resolution for harvested-data copyback) and
 * fans block-erase notifications out to a subscriber (the gSB manager).
 */
class VssdManager
{
  public:
    VssdManager(FlashDevice &dev, HarvestedBlockTable &hbt);

    /** Create a vSSD. Ids must be dense (0, 1, 2, ...). */
    Vssd &create(const Vssd::Config &cfg);

    /**
     * Deallocate a tenant: trims all its data so the next GC pass erases
     * it, per §3.7. The slot remains (ids stay dense) but is inactive.
     */
    void deallocate(VssdId id);

    Vssd *get(VssdId id);
    const Vssd *get(VssdId id) const;
    std::size_t size() const { return vssds_.size(); }

    /** Is this id created and not deallocated? */
    bool alive(VssdId id) const
    {
        return id < alive_.size() && alive_[id];
    }

    /** Active (not deallocated) vSSDs. */
    std::vector<Vssd *> active();
    std::vector<const Vssd *> active() const;

    FlashDevice &device() { return dev_; }
    HarvestedBlockTable &hbt() { return hbt_; }

    /** Block-erase subscriber callable (the gSB manager's hook). */
    using ErasedCallback = InlineFunction<void(ChannelId, ChipId, BlockId)>;

    /** Subscribe to block-erase events from every tenant's GC. */
    void setOnErased(ErasedCallback cb) { on_erased_ = std::move(cb); }

  private:
    FlashDevice &dev_;
    HarvestedBlockTable &hbt_;
    std::vector<std::unique_ptr<Vssd>> vssds_;
    std::vector<bool> alive_;
    ErasedCallback on_erased_;
};

}  // namespace fleetio
