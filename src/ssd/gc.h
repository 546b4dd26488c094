/**
 * @file
 * Per-vSSD garbage collector implementing the paper's Fig. 9 policy:
 * lazy trigger at a 20 % free-block threshold, victim selection that
 * prioritizes harvested/reclaimed blocks (per the Harvested Block Table),
 * and copyback of harvested data to the harvesting vSSD's own blocks.
 */
#pragma once

#include <cstdint>

#include "src/sim/inline_function.h"
#include "src/sim/types.h"
#include "src/ssd/flash_device.h"
#include "src/ssd/ftl.h"

namespace fleetio {

class HarvestedBlockTable;

/**
 * Garbage collection engine for one (home) vSSD.
 *
 * Runs at most one block reclamation at a time; page migrations are
 * chained event-by-event so GC traffic interleaves with (and delays)
 * host I/O on the shared chips and buses, reproducing the GC
 * interference the RL state's In_GC bit captures.
 */
class GcEngine
{
  public:
    struct Hooks
    {
        /** Resolve the FTL owning a page's data (for copyback remap). */
        InlineFunction<Ftl *(VssdId)> ftl_of;

        /** Invoked after a block is physically erased and freed. */
        InlineFunction<void(ChannelId, ChipId, BlockId)> on_erased;
    };

    GcEngine(FlashDevice &dev, Ftl &home, HarvestedBlockTable &hbt,
             Hooks hooks);

    /** Kick the engine: starts a job when a trigger condition holds. */
    void maybeStart();

    /**
     * Ask GC to run even without capacity pressure (lazy gSB reclaim:
     * harvested blocks should be drained back to the home vSSD).
     */
    void requestReclaim() { reclaim_requests_ = true; maybeStart(); }

    /** In_GC RL state: is a reclamation in flight? */
    bool active() const { return active_; }

    /** Lifetime blocks reclaimed. */
    std::uint64_t blocksReclaimed() const { return blocks_reclaimed_; }

    /** Victims whose erase failed and were retired instead of freed. */
    std::uint64_t blocksRetired() const { return blocks_retired_; }

    /** Lifetime pages migrated (GC write amplification numerator). */
    std::uint64_t pagesMigrated() const { return pages_migrated_; }

    /**
     * Power loss: the in-flight job and its chained events die with the
     * event queue. Bumping the generation makes any callback that
     * slipped through a no-op; lifetime counters survive (telemetry,
     * not correctness state).
     */
    void crashReset()
    {
        active_ = false;
        reclaim_requests_ = false;
        in_flight_ = 0;
        retry_count_ = 0;
        next_page_ = 0;
        ++job_gen_;
    }

  private:
    struct Victim
    {
        ChannelId ch = 0;
        ChipId chip = 0;
        BlockId blk = 0;
        bool found = false;
        bool marked = false;  ///< HBT-marked (harvested/reclaimed)
    };

    Victim selectVictim() const;
    void startJob(const Victim &v);
    void pumpMigrations();
    void migrateOnePage(PageId pg);
    void onPageMigrated();
    void finishBlock();

    FlashDevice *dev_;
    Ftl *home_;
    HarvestedBlockTable *hbt_;
    Hooks hooks_;

    bool active_ = false;
    bool reclaim_requests_ = false;
    Victim current_;
    PageId next_page_ = 0;
    std::uint32_t in_flight_ = 0;
    /** Concurrent page migrations per reclamation: GC copyback
     *  pipelines across chips/channels like real firmware. */
    static constexpr std::uint32_t kMigrationWidth = 2;
    std::uint32_t retry_count_ = 0;
    std::uint64_t job_gen_ = 0;  ///< invalidates stale in-flight events

    std::uint64_t blocks_reclaimed_ = 0;
    std::uint64_t blocks_retired_ = 0;
    std::uint64_t pages_migrated_ = 0;
};

}  // namespace fleetio
