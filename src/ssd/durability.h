/**
 * @file
 * The device durability model (DESIGN.md §12): which metadata survives a
 * power loss, and how the L2P map is rebuilt from it.
 *
 * Durable state mirrors what a real drive persists:
 *  - per-page OOB metadata {tenant, lpn, seq}, written atomically with
 *    the page program and cleared only by a physical erase,
 *  - per-block summary metadata {owner, donated}, written when a block
 *    is opened / donated into a gSB,
 *  - checksummed mapping-table checkpoints in two rotating slots
 *    (current + previous, mirroring rl::CheckpointStore's tmp+rename
 *    two-deep discipline), and
 *  - an append-only journal of trim/wipe tombstones, each record
 *    individually checksummed so a torn tail is detected, not replayed.
 *
 * Everything else — the FTL maps, reverse map, valid bitmaps, the
 * HarvestedBlockTable, scheduler queues, pending events — is volatile
 * and is discarded by a crash, then rebuilt by recover():
 * checkpoint -> journal replay -> OOB scan, newest-seq-wins per
 * (tenant, lpn), with tombstones suppressing older versions.
 *
 * The model is held in deterministic in-memory buffers (not files) so
 * parallel bench cells never contend; the corruption hooks fake torn
 * writes for the chaos matrix. A null DurabilityModel* everywhere means
 * the hooks cost one branch and runs stay byte-identical to builds
 * without the subsystem.
 */
#pragma once

#include <cstdint>
#include <vector>

#include "src/sim/types.h"
#include "src/ssd/geometry.h"

namespace fleetio {

/** Per-page out-of-band metadata. seq == 0 means "never programmed". */
struct OobEntry
{
    VssdId vssd = kNoVssd;
    Lpa lpa = kNoLpa;
    std::uint64_t seq = 0;
};

/** Per-block durable summary metadata. */
struct BlockSummary
{
    VssdId owner = kNoVssd;
    bool donated = false;  ///< held by a gSB (rebuilds the HBT)
};

/** One mapping-table checkpoint entry. */
struct CheckpointEntry
{
    VssdId vssd = 0;
    Lpa lpa = 0;
    Ppa ppa = 0;
};

/** A rebuilt mapping after recovery. */
struct RecoveredMapping
{
    VssdId vssd = 0;
    Lpa lpa = 0;
    Ppa ppa = 0;
    std::uint64_t seq = 0;  ///< winning version
};

/** Telemetry of one recover() pass (exported as RPO/RTO metrics). */
struct RecoveryStats
{
    std::uint64_t scanned_pages = 0;     ///< OOB entries visited
    std::uint64_t replayed_records = 0;  ///< journal records applied
    std::uint64_t torn_records = 0;      ///< discarded at a bad checksum
    bool checkpoint_fallback = false;    ///< current slot failed checksum
    bool checkpoint_lost = false;        ///< both slots failed
    SimTime last_checkpoint_time = 0;    ///< of the slot actually loaded
};

/**
 * The durable half of the device. All record* methods are no-ops once
 * freeze() is called (power is off: nothing written after the crash
 * instant reaches the medium).
 */
class DurabilityModel
{
  public:
    explicit DurabilityModel(const SsdGeometry &geo);

    // --- write path (called eagerly, with the metadata mutation) ------

    /** A page program carrying (vssd, lpa) landed on @p ppa. */
    void recordWrite(VssdId vssd, Lpa lpa, Ppa ppa);

    /** A block was claimed from the free pool for @p owner. */
    void recordBlockOpen(ChannelId ch, ChipId chip, BlockId blk,
                         VssdId owner);

    /** The block joined (true) or left (false) a gSB lease. */
    void setDonated(ChannelId ch, ChipId chip, BlockId blk, bool on);

    /** Physical erase / unwritten release: OOB + summary wiped. */
    void clearBlock(ChannelId ch, ChipId chip, BlockId blk);

    /** The block was retired (bad). Its OOB entries are dropped so a
     *  scan never resurrects mappings into an unreadable block. */
    void markRetired(ChannelId ch, ChipId chip, BlockId blk);

    /** Journal a trim tombstone for (vssd, lpa). */
    void journalTrim(VssdId vssd, Lpa lpa);

    /** Journal a whole-tenant wipe (deallocate / trimAll). */
    void journalTenantWiped(VssdId vssd);

    // --- checkpointing ------------------------------------------------

    /**
     * Write a mapping-table checkpoint: the previous slot is demoted,
     * @p entries become the current slot (serialized + checksummed),
     * and journal records already covered by the demoted slot's
     * watermark are truncated.
     */
    void writeCheckpoint(const std::vector<CheckpointEntry> &entries,
                         SimTime now);

    std::uint64_t checkpointsWritten() const { return checkpoints_; }

    // --- crash / fault hooks -------------------------------------------

    /** Power off: all subsequent record/journal/checkpoint calls no-op. */
    void freeze() { frozen_ = true; }

    /** Power restored (end of recovery). */
    void unfreeze() { frozen_ = false; }

    bool frozen() const { return frozen_; }

    /** Flip a byte of the current checkpoint slot (torn write). */
    void corruptCurrentCheckpoint();

    /** Corrupt the checksum of the newest journal record (torn tail). */
    void truncateJournalTail();

    // --- recovery -----------------------------------------------------

    /**
     * Rebuild the mapping set from durable state only: load the newest
     * checkpoint slot whose checksum verifies, replay journal records
     * past its watermark (stopping at the first bad checksum), then
     * scan every surviving OOB entry and merge newest-seq-wins.
     * Results are sorted by (vssd, lpa) for determinism.
     */
    std::vector<RecoveredMapping> recover(RecoveryStats &stats) const;

    /** Durable per-block summary (recovery rebuilds HBT/owners from it). */
    const BlockSummary &summary(ChannelId ch, ChipId chip,
                                BlockId blk) const
    {
        return summaries_[blockIndex(ch, chip, blk)];
    }

    /** OOB entry of @p ppa (tests / debugging). */
    const OobEntry &oob(Ppa ppa) const { return oob_[ppa]; }

    /** Monotonic metadata sequence counter (next version - 1). */
    std::uint64_t seq() const { return seq_; }

    const SsdGeometry &geometry() const { return geo_; }

  private:
    enum class RecordType : std::uint8_t { kTrim = 0, kTenantWipe = 1 };

    struct JournalRecord
    {
        RecordType type = RecordType::kTrim;
        VssdId vssd = 0;
        Lpa lpa = 0;
        std::uint64_t seq = 0;
        std::uint64_t checksum = 0;  ///< over (type, vssd, lpa, seq)
    };

    /** One checkpoint slot: serialized entries + checksum + watermark. */
    struct Slot
    {
        bool valid = false;
        std::vector<std::uint8_t> bytes;  ///< serialized entries
        std::uint64_t checksum = 0;
        std::uint64_t watermark = 0;  ///< seq_ at write time
        SimTime when = 0;
    };

    std::size_t blockIndex(ChannelId ch, ChipId chip, BlockId blk) const
    {
        return (std::size_t(ch) * geo_.chips_per_channel + chip) *
                   geo_.blocks_per_chip +
               blk;
    }

    static std::uint64_t recordChecksum(const JournalRecord &r);

    SsdGeometry geo_;
    std::vector<OobEntry> oob_;           ///< by flat PPA
    std::vector<BlockSummary> summaries_; ///< by flat block index
    std::vector<JournalRecord> journal_;
    Slot slots_[2];  ///< [0] = current, [1] = previous
    std::uint64_t seq_ = 0;
    std::uint64_t checkpoints_ = 0;
    bool frozen_ = false;
};

}  // namespace fleetio
