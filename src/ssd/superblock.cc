#include "src/ssd/superblock.h"

#include <cassert>
#include <limits>

namespace fleetio {

bool
Superblock::addStripe(ChannelId ch, std::uint32_t blocks_per_channel,
                      VssdId owner)
{
    if (dev_->freeBlocksInChannel(ch) < blocks_per_channel)
        return false;
    Stripe s;
    s.channel = ch;
    s.blocks.reserve(blocks_per_channel);
    for (std::uint32_t i = 0; i < blocks_per_channel; ++i) {
        ChipId chip;
        BlockId blk;
        if (!dev_->allocateBlock(ch, owner, chip, blk)) {
            // The channel ran out mid-stripe (should not happen after
            // the free-count check above, but block retirement makes
            // the pool shrinkable): roll the partial stripe back so
            // the caller sees a clean all-or-nothing failure.
            for (const auto &[c, b] : s.blocks)
                dev_->durableRelease(ch, c, b);
            return false;
        }
        s.blocks.emplace_back(chip, blk);
    }
    stripes_.push_back(std::move(s));
    return true;
}

std::uint32_t
Superblock::numBlocks() const
{
    std::uint32_t n = 0;
    for (const auto &s : stripes_)
        n += std::uint32_t(s.blocks.size());
    return n;
}

std::uint64_t
Superblock::capacityPages() const
{
    return std::uint64_t(numBlocks()) *
           dev_->geometry().pages_per_block;
}

std::uint64_t
Superblock::capacityBytes() const
{
    return capacityPages() * dev_->geometry().page_size;
}

std::uint64_t
Superblock::freePages() const
{
    const auto &geo = dev_->geometry();
    std::uint64_t free = 0;
    for (const auto &s : stripes_) {
        for (std::size_t i = s.cursor; i < s.blocks.size(); ++i) {
            const auto &[chip, blk] = s.blocks[i];
            const FlashBlock &fb = dev_->chip(s.channel, chip).block(blk);
            free += geo.pages_per_block - fb.write_ptr;
        }
    }
    return free;
}

bool
Superblock::exhausted() const
{
    const std::uint32_t ppb = dev_->geometry().pages_per_block;
    for (const auto &s : stripes_) {
        for (std::size_t i = s.cursor; i < s.blocks.size(); ++i) {
            const auto &[chip, blk] = s.blocks[i];
            if (dev_->chip(s.channel, chip).block(blk).write_ptr < ppb)
                return false;
        }
    }
    return true;
}

bool
Superblock::allocateInStripe(Stripe &s, Ppa &out)
{
    const auto &geo = dev_->geometry();
    // Advance the cursor past fully-written leading blocks, then pick
    // the non-full block on the least-busy chip so gSB programs use
    // the channel's chip parallelism.
    while (s.cursor < s.blocks.size()) {
        const auto &[chip_id, blk] = s.blocks[s.cursor];
        if (!dev_->chip(s.channel, chip_id)
                 .block(blk)
                 .isFull(geo.pages_per_block)) {
            break;
        }
        ++s.cursor;
    }
    // Pick the least-filled open block: blocks sit on different chips,
    // so filling them evenly stripes programs over chip parallelism
    // (a timing-based choice would pile queued writes on one chip).
    std::size_t best = s.blocks.size();
    std::uint32_t best_fill = std::numeric_limits<std::uint32_t>::max();
    for (std::size_t i = s.cursor; i < s.blocks.size(); ++i) {
        const auto &[chip_id, blk] = s.blocks[i];
        const FlashBlock &fb = dev_->chip(s.channel, chip_id).block(blk);
        if (fb.isFull(geo.pages_per_block) ||
            fb.state != BlockState::kOpen) {
            continue;
        }
        if (fb.write_ptr < best_fill) {
            best_fill = fb.write_ptr;
            best = i;
        }
    }
    if (best == s.blocks.size())
        return false;
    const auto &[chip_id, blk] = s.blocks[best];
    FlashChip &chp = dev_->chip(s.channel, chip_id);
    const PageId pg = chp.programNextPage(blk);
    out = geo.makePpa(s.channel, chip_id, blk, pg);
    return true;
}

bool
Superblock::allocatePage(Ppa &out)
{
    // Round-robin over stripes (channels) for even striping.
    const std::size_t n = stripes_.size();
    for (std::size_t k = 0; k < n; ++k) {
        Stripe &s = stripes_[(rr_ + k) % n];
        if (allocateInStripe(s, out)) {
            rr_ = (rr_ + k + 1) % n;
            return true;
        }
    }
    return false;
}

bool
Superblock::allocatePageOnChannel(ChannelId ch, Ppa &out)
{
    for (auto &s : stripes_) {
        if (s.channel == ch && allocateInStripe(s, out))
            return true;
    }
    return false;
}

std::vector<ChannelId>
Superblock::channels() const
{
    std::vector<ChannelId> chs;
    chs.reserve(stripes_.size());
    for (const auto &s : stripes_)
        chs.push_back(s.channel);
    return chs;
}

}  // namespace fleetio
