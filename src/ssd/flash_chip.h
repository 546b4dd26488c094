/**
 * @file
 * Per-chip flash state: block lifecycle (free -> open -> full -> erased),
 * valid-page bitmaps, and the chip's timing resource.
 */
#pragma once

#include <cstdint>
#include <vector>

#include "src/sim/types.h"
#include "src/ssd/geometry.h"

namespace fleetio {

class DurabilityModel;

/** Lifecycle of a flash block. */
enum class BlockState : std::uint8_t {
    kFree = 0,   ///< erased, no owner
    kOpen,       ///< owned, accepting sequential page programs
    kFull,       ///< owned, fully written
    kRetired,    ///< failed erase/program: permanently out of service
};

/**
 * Metadata for one flash block.
 *
 * Pages must be programmed sequentially (write_ptr) as NAND requires;
 * the valid bitmap tracks which pages still hold live data.
 */
struct FlashBlock
{
    BlockState state = BlockState::kFree;
    VssdId owner = kNoVssd;          ///< vSSD whose data occupies the block
    std::uint32_t write_ptr = 0;     ///< next page to program
    std::uint32_t valid_count = 0;   ///< live pages
    std::uint32_t erase_count = 0;   ///< wear counter
    std::vector<bool> valid;         ///< per-page liveness

    bool isFull(std::uint32_t pages_per_block) const
    {
        return write_ptr >= pages_per_block;
    }
};

/**
 * One flash chip: a column of blocks plus a single-operation timing
 * resource (a chip can run one read/program/erase at a time; different
 * chips on a channel overlap).
 */
class FlashChip
{
  public:
    FlashChip(const SsdGeometry &geo);

    /** Block metadata accessors. */
    FlashBlock &block(BlockId b) { return blocks_[b]; }
    const FlashBlock &block(BlockId b) const { return blocks_[b]; }
    std::uint32_t numBlocks() const
    {
        return std::uint32_t(blocks_.size());
    }

    /** Number of blocks currently in the free state. */
    std::uint32_t freeBlocks() const { return free_blocks_; }

    /**
     * Claim a free block for @p owner and open it for writing.
     * @return the block id, or UINT32_MAX when no free block exists.
     */
    BlockId allocateBlock(VssdId owner);

    /**
     * Program the next page of an open block.
     * @return the page index programmed.
     * @pre the block is open and not full.
     */
    PageId programNextPage(BlockId b);

    /** Mark a previously-programmed page invalid (overwrite / trim). */
    void invalidatePage(BlockId b, PageId p);

    /** Recovery: re-set the valid bit of a physically-programmed page
     *  after crashResetValidBits() discarded the bitmaps. */
    void markValid(BlockId b, PageId p);

    /** Erase @p b: clears data, returns it to the free pool. */
    void eraseBlock(BlockId b);

    /**
     * Return a never-programmed open block to the free pool without a
     * physical erase (no wear). Used when an unharvested gSB is
     * destroyed before anyone wrote into it.
     * @pre block is open with write_ptr == 0.
     */
    void releaseBlock(BlockId b);

    /**
     * Close a partially-written open block (NAND-style padding): it
     * stops accepting programs and becomes a GC-eligible kFull block.
     * No-op unless the block is open.
     */
    void closeBlock(BlockId b);

    /**
     * Take @p b permanently out of service after a program/erase
     * failure: it enters kRetired, joins the bad-block table, and is
     * excluded from freeBlocks() accounting forever. Valid bits are
     * cleared — callers must have migrated or invalidated live data
     * first. Idempotent: retiring an already-retired block is a no-op,
     * so a post-crash replay of a retirement whose durable record was
     * lost cannot double-retire (DESIGN.md §12).
     */
    void retireBlock(BlockId b);

    /** Blocks retired so far on this chip. */
    std::uint32_t retiredBlocks() const
    {
        return std::uint32_t(bad_blocks_.size());
    }

    /** The bad-block table: every retired block id, in retirement
     *  order. */
    const std::vector<BlockId> &badBlocks() const { return bad_blocks_; }

    /**
     * Reserve the chip for an operation of @p duration starting no
     * earlier than @p earliest. Operations starting inside a slow-down
     * window are stretched by the window's latency factor.
     * @return the operation's [start, end) interval end.
     */
    SimTime reserve(SimTime earliest, SimTime duration);

    /** Enter a slow-down window lasting until @p until; operations
     *  started before then take 4x longer. */
    void beginSlowdown(SimTime until);

    /** End of the current slow-down window (0 when never slowed). */
    SimTime slowUntil() const { return slow_until_; }

    /** Time at which the chip becomes idle. */
    SimTime busyUntil() const { return busy_until_; }

    /** Sum of erase counts across blocks (wear telemetry). */
    std::uint64_t totalErases() const { return total_erases_; }

    /**
     * Attach the durability model (nullptr = off): every block open
     * then writes its durable {owner} summary automatically. The chip
     * needs its own (channel, chip) coordinates to address the record.
     */
    void setDurability(DurabilityModel *d, ChannelId ch, ChipId chip)
    {
        durability_ = d;
        ch_ = ch;
        chip_ = chip;
    }

    /**
     * Power loss: valid bitmaps are volatile FTL metadata and vanish;
     * block states, write pointers, and wear counters are the physical
     * medium and survive. Recovery re-sets bits from the rebuilt map.
     */
    void crashResetValidBits();

  private:
    const SsdGeometry &geo_;
    std::vector<FlashBlock> blocks_;
    std::vector<BlockId> bad_blocks_;
    std::uint32_t free_blocks_;
    SimTime busy_until_ = 0;
    SimTime slow_until_ = 0;
    std::uint64_t total_erases_ = 0;
    DurabilityModel *durability_ = nullptr;
    ChannelId ch_ = 0;
    ChipId chip_ = 0;
};

}  // namespace fleetio
