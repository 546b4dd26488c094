/**
 * @file
 * Superblock: a set of flash blocks striped across one or more channels,
 * with a per-channel write cursor. This is the physical backing of the
 * ghost superblock (gSB) abstraction.
 */
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "src/sim/types.h"
#include "src/ssd/flash_device.h"

namespace fleetio {

/**
 * A collection of blocks grouped by channel. The minimum superblock is
 * geometry.superblock_blocks_per_channel blocks on one channel (64 MB in
 * the paper's device); wider superblocks stripe that amount over each of
 * n_chls channels, with blocks spread evenly over chips.
 */
class Superblock
{
  public:
    struct Stripe
    {
        ChannelId channel;
        std::vector<std::pair<ChipId, BlockId>> blocks;
        std::size_t cursor = 0;  ///< index of the block currently open
    };

    explicit Superblock(FlashDevice &dev) : dev_(&dev) {}

    /**
     * Try to build a stripe of @p blocks_per_channel free blocks on
     * @p ch, allocating them to @p owner.
     * @retval true the stripe was added.
     * @retval false the channel lacked free blocks (nothing allocated).
     */
    bool addStripe(ChannelId ch, std::uint32_t blocks_per_channel,
                   VssdId owner);

    /** Number of channels this superblock spans. */
    std::uint32_t numChannels() const
    {
        return std::uint32_t(stripes_.size());
    }

    /** Total blocks across all stripes. */
    std::uint32_t numBlocks() const;

    /** Total page capacity. */
    std::uint64_t capacityPages() const;

    /** Bytes of capacity. */
    std::uint64_t capacityBytes() const;

    /** Pages still programmable (sum of unwritten pages). */
    std::uint64_t freePages() const;

    /** True when every block is fully programmed (freePages() == 0).
     *  Stops at the first block with a free page. */
    bool exhausted() const;

    /**
     * Program the next free page, preferring the channel whose bus frees
     * up earliest (load balancing).
     * @retval true @p out holds the chosen PPA (block state updated).
     */
    bool allocatePage(Ppa &out);

    /**
     * Program the next free page on a specific channel of the stripe.
     */
    bool allocatePageOnChannel(ChannelId ch, Ppa &out);

    const std::vector<Stripe> &stripes() const { return stripes_; }
    std::vector<Stripe> &stripes() { return stripes_; }

    /** Channels covered by the stripes. */
    std::vector<ChannelId> channels() const;

  private:
    bool allocateInStripe(Stripe &s, Ppa &out);

    FlashDevice *dev_;
    std::vector<Stripe> stripes_;
    std::size_t rr_ = 0;  ///< round-robin cursor over stripes
};

}  // namespace fleetio
