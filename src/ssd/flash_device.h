/**
 * @file
 * The simulated open-channel SSD: chips + channel buses + the timing rules
 * for read/program/erase, plus device-wide free-block pools and the
 * physical-to-logical reverse map that GC needs.
 */
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

// fleetio-lint: allow(layering): obs instrumentation is deliberately
// cross-layer — one null-guarded hub pointer and FLEETIO_OBS
// (DESIGN.md §9).
#include "src/obs/hub.h"
#include "src/sim/event_queue.h"
#include "src/sim/types.h"
#include "src/ssd/channel.h"
#include "src/ssd/fault_injector.h"
#include "src/ssd/flash_chip.h"
#include "src/ssd/geometry.h"
#include "src/ssd/power_loss.h"

namespace fleetio {

/**
 * Reverse-map entry: which vSSD's logical page currently lives at a PPA.
 * Valid only while the page's bitmap bit is set.
 */
struct RmapEntry
{
    VssdId data_vssd = kNoVssd;
    Lpa lpa = kNoLpa;
};

/**
 * The device model.
 *
 * Timing: a read occupies the target chip for read_latency and then the
 * channel bus for one page-transfer; a program occupies the bus first and
 * then the chip for program_latency; an erase occupies only the chip.
 * Chips overlap behind a serialized bus, so sustained per-channel
 * throughput converges to the bus bandwidth (64 MB/s by default),
 * matching the paper's per-channel bandwidth assumption.
 *
 * State (block bitmaps, write pointers) is mutated eagerly by the FTL/GC;
 * this class adds the time dimension and completion callbacks.
 */
class FlashDevice
{
  public:
    /**
     * Completion callback of a GC read, program or erase. The device
     * schedules it on the event queue as it is, with no wrapper around
     * it, so it is the queue's own callback type.
     */
    using Callback = EventQueue::Callback;
    using SlotFreedFn = InlineFunction<void(ChannelId), 24>;
    /** Host-op completion hook: the op's channel and its issue tag. */
    using HostDoneFn = InlineFunction<void(ChannelId, std::uint32_t), 24>;

    FlashDevice(const SsdGeometry &geo, EventQueue &eq);

    const SsdGeometry &geometry() const { return geo_; }
    EventQueue &eventQueue() { return eq_; }

    FlashChip &chip(ChannelId ch, ChipId c);
    const FlashChip &chip(ChannelId ch, ChipId c) const;
    Channel &channel(ChannelId ch) { return channels_[ch]; }
    const Channel &channel(ChannelId ch) const { return channels_[ch]; }

    // --- Timing operations ------------------------------------------

    /**
     * Issue a host page read at @p ppa. Counts against the channel's
     * outstanding ops until completion, which calls the host-done hook
     * with @p tag. @return completion time.
     */
    SimTime issueRead(Ppa ppa, std::uint32_t tag);

    /**
     * Issue a host page program at @p ppa (placement already chosen).
     * Its dispatch slot frees at the end of the bus transfer (the
     * slot-freed hook); completion calls the host-done hook with
     * @p tag. @return completion time.
     */
    SimTime issueProgram(Ppa ppa, std::uint32_t tag);

    /**
     * Issue a block erase. Chip-only occupancy; does not change block
     * state — the caller erases metadata in @p done.
     * @return completion time.
     */
    SimTime issueErase(ChannelId ch, ChipId chip, Callback done);

    /**
     * Internal (GC) variants: same timing, but not counted against the
     * channel queue depth — copyback traffic competes for the bus and
     * chip directly, modelling GC interference with host I/O.
     */
    SimTime issueGcRead(Ppa ppa, Callback done);
    SimTime issueGcProgram(Ppa ppa, Callback done);

    /** True when the channel can accept another host op (QD limit). */
    bool canDispatch(ChannelId ch) const
    {
        return channels_[ch].outstanding() < geo_.max_queue_depth;
    }

    /**
     * Hook invoked whenever a channel dispatch slot frees up before
     * the op completes (write transfers end while the program
     * continues in-chip). The I/O scheduler uses it to pump.
     */
    void setOnSlotFreed(SlotFreedFn cb) { on_slot_freed_ = std::move(cb); }

    /**
     * Hook invoked when a host read or program completes, with the
     * op's channel and the tag it was issued with. The I/O scheduler
     * passes its request id as the tag. A program's slot-freed event
     * is scheduled before its completion event.
     */
    void setOnHostDone(HostDoneFn cb) { on_host_done_ = std::move(cb); }

    // --- Fault injection -----------------------------------------------

    /**
     * Install a fault oracle (nullptr = perfect device, the default).
     * Reads consult it for retry counts (each retry re-occupies the
     * chip with escalating latency), every chip operation may open a
     * slow-down window, and the FTL/GC consult it for program/erase
     * failures through this accessor.
     */
    void setFaultInjector(FaultInjector *fi) { injector_ = fi; }
    FaultInjector *faultInjector() { return injector_; }

    // --- Observability -------------------------------------------------

    /**
     * Install the run's obs hub (nullptr = every sink off, the
     * default). Every subsystem holding a device reference (scheduler,
     * GC, gSB manager, controller, supervisor, recovery) reaches the
     * hub through obs(), so this is the one place a component is given
     * obs. With no hub each instrumentation site is a single
     * null-pointer test (see FLEETIO_OBS).
     */
    void setObs(obs::ObsHub *hub) { obs_ = hub; }
    obs::ObsHub *obs() const { return obs_; }

    // --- Durability / power loss ---------------------------------------

    /**
     * Install the durability model (nullptr = no crash modelling, the
     * default — byte-identical to builds without the subsystem). The
     * device is the durability hub exactly as it is the obs hub's:
     * FTL, GC, and the gSB manager reach it through durability(), and
     * every chip gets a backpointer so block opens write their durable
     * summary automatically.
     */
    void setDurability(DurabilityModel *d);
    DurabilityModel *durability() const { return durability_; }

    /** Install the power-loss injector (nullptr = never crashes). */
    void setPowerLoss(PowerLossInjector *p) { power_loss_ = p; }
    PowerLossInjector *powerLoss() const { return power_loss_; }

    /** Power is currently off: refuse physical mutations. */
    bool crashedNow() const
    {
        return power_loss_ != nullptr && power_loss_->crashed();
    }

    /**
     * Durable block-lifecycle mutations (lint rule R7): the only
     * sanctioned way for src/ssd and src/harvest code outside the
     * device/chip/durability core to erase, retire, release, or close a
     * block. Each wrapper performs the chip-state mutation and records
     * the matching durable-metadata update in one step, and refuses to
     * run once power is off — the in-flight callback that observed the
     * crash cannot mutate the (now frozen) medium.
     */
    void durableErase(ChannelId ch, ChipId chip, BlockId blk);
    void durableRetire(ChannelId ch, ChipId chip, BlockId blk);
    void durableRelease(ChannelId ch, ChipId chip, BlockId blk);
    void durableClose(ChannelId ch, ChipId chip, BlockId blk);

    /**
     * Discard every volatile device structure after a crash: the
     * reverse map, all valid bitmaps/counts (rebuilt from the recovered
     * L2P map), and per-channel bus/outstanding timing state. Chip
     * block states, write pointers, erase counts, and bad-block tables
     * survive — they are the physical medium.
     */
    void crashReset();

    /** Blocks retired (bad-block tables) across the whole device. */
    std::uint64_t totalRetiredBlocks() const;

    /** Retired blocks on one channel. */
    std::uint32_t retiredBlocksInChannel(ChannelId ch) const;

    /** Retired-block fraction of a channel in [0,1]. */
    double retiredRatio(ChannelId ch) const;

    // --- Block pool ---------------------------------------------------

    /**
     * Allocate a free block on @p ch for @p owner, preferring the chip
     * with the most free blocks (wear/parallelism spreading).
     * @return encoded (chip, block) via out-params; false if the channel
     *         has no free block.
     */
    bool allocateBlock(ChannelId ch, VssdId owner, ChipId &chip_out,
                       BlockId &blk_out);

    /** Free blocks remaining on a channel. */
    std::uint32_t freeBlocksInChannel(ChannelId ch) const;

    /** Free-block fraction of a channel in [0,1]. */
    double freeRatio(ChannelId ch) const;

    /** Device-wide free blocks. */
    std::uint64_t totalFreeBlocks() const;

    // --- Page state helpers --------------------------------------------

    FlashBlock &blockOf(Ppa ppa);
    const FlashBlock &blockOf(Ppa ppa) const;

    /** Mark the page at @p ppa invalid (overwrite / trim). */
    void invalidatePage(Ppa ppa);

    /** Recovery: re-set the valid bit of a recovered mapping's page. */
    void revalidatePage(Ppa ppa);

    /** Reverse-map access. */
    RmapEntry &rmap(Ppa ppa) { return rmap_[ppa]; }
    const RmapEntry &rmap(Ppa ppa) const { return rmap_[ppa]; }

    /**
     * Record that @p lpa of @p vssd now lives at @p ppa (called by the
     * FTL right after programNextPage chose the page).
     */
    void setRmap(Ppa ppa, VssdId vssd, Lpa lpa)
    {
        rmap_[ppa] = RmapEntry{vssd, lpa};
    }

    // --- Utilization accounting ----------------------------------------

    /**
     * Bus utilization across all channels since the last resetWindow, in
     * [0,1]: total bus-busy time / (channels x elapsed).
     */
    double busUtilization(SimTime window) const;

    /** Clear per-window busy-time counters. */
    void resetBusyWindow();

    /** Lifetime op counters. */
    std::uint64_t hostReads() const { return host_reads_; }
    std::uint64_t hostWrites() const { return host_writes_; }
    std::uint64_t gcReads() const { return gc_reads_; }
    std::uint64_t gcWrites() const { return gc_writes_; }
    std::uint64_t erases() const { return erases_; }

    /** Write amplification: (host + gc writes) / host writes. */
    double writeAmplification() const;

  private:
    /** Reserve chip then bus for a read. @return completion time. */
    SimTime reserveRead(Ppa ppa, bool host);
    /** Reserve bus then chip for a program. @return {end of the bus
     *  transfer, completion time}. */
    std::pair<SimTime, SimTime> reserveProgram(Ppa ppa, bool host);

    /** Consult the injector for a slow-down window on @p chp. */
    void maybeSlowDown(FlashChip &chp);

    SsdGeometry geo_;
    EventQueue &eq_;
    FaultInjector *injector_ = nullptr;
    obs::ObsHub *obs_ = nullptr;
    DurabilityModel *durability_ = nullptr;
    PowerLossInjector *power_loss_ = nullptr;
    SlotFreedFn on_slot_freed_;
    HostDoneFn on_host_done_;
    std::vector<Channel> channels_;
    std::vector<FlashChip> chips_;  // [channel * chips_per_channel + chip]
    std::vector<RmapEntry> rmap_;

    std::uint64_t host_reads_ = 0;
    std::uint64_t host_writes_ = 0;
    std::uint64_t gc_reads_ = 0;
    std::uint64_t gc_writes_ = 0;
    std::uint64_t erases_ = 0;
};

}  // namespace fleetio
