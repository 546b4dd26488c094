/** @file Unit tests for superblock striping. */
#include <gtest/gtest.h>

#include <set>

#include "src/ssd/superblock.h"

namespace fleetio {
namespace {

class SuperblockTest : public ::testing::Test
{
  protected:
    SuperblockTest() : geo_(testGeometry()), dev_(geo_, eq_), sb_(dev_)
    {
    }
    SsdGeometry geo_;
    EventQueue eq_;
    FlashDevice dev_;
    Superblock sb_;
};

TEST_F(SuperblockTest, AddStripeAllocatesBlocks)
{
    const std::uint32_t per = geo_.superblock_blocks_per_channel;
    const std::uint32_t before = dev_.freeBlocksInChannel(3);
    ASSERT_TRUE(sb_.addStripe(3, per, 7));
    EXPECT_EQ(dev_.freeBlocksInChannel(3), before - per);
    EXPECT_EQ(sb_.numChannels(), 1u);
    EXPECT_EQ(sb_.numBlocks(), per);
    EXPECT_EQ(sb_.capacityPages(),
              std::uint64_t(per) * geo_.pages_per_block);
    // Blocks are owned by the home vSSD and open.
    for (const auto &[chip, blk] : sb_.stripes()[0].blocks) {
        EXPECT_EQ(dev_.chip(3, chip).block(blk).owner, 7u);
        EXPECT_EQ(dev_.chip(3, chip).block(blk).state,
                  BlockState::kOpen);
    }
}

TEST_F(SuperblockTest, AddStripeFailsWithoutFreeBlocks)
{
    // Exhaust channel 0.
    while (true) {
        ChipId c;
        BlockId b;
        if (!dev_.allocateBlock(0, 0, c, b))
            break;
    }
    EXPECT_FALSE(sb_.addStripe(0, 1, 7));
    EXPECT_EQ(sb_.numChannels(), 0u);
}

TEST_F(SuperblockTest, BlocksSpreadOverChips)
{
    ASSERT_TRUE(sb_.addStripe(0, geo_.superblock_blocks_per_channel, 1));
    std::set<ChipId> chips;
    for (const auto &[chip, blk] : sb_.stripes()[0].blocks)
        chips.insert(chip);
    EXPECT_EQ(chips.size(),
              std::min<std::size_t>(geo_.chips_per_channel,
                                    geo_.superblock_blocks_per_channel));
}

TEST_F(SuperblockTest, AllocatePageRoundRobinsChannels)
{
    ASSERT_TRUE(sb_.addStripe(0, 2, 1));
    ASSERT_TRUE(sb_.addStripe(1, 2, 1));
    std::set<ChannelId> seen;
    for (int i = 0; i < 4; ++i) {
        Ppa ppa;
        ASSERT_TRUE(sb_.allocatePage(ppa));
        seen.insert(geo_.channelOf(ppa));
    }
    EXPECT_EQ(seen.size(), 2u);
}

TEST_F(SuperblockTest, FreePagesAndExhaustion)
{
    ASSERT_TRUE(sb_.addStripe(0, 1, 1));
    const std::uint64_t cap = sb_.capacityPages();
    EXPECT_EQ(sb_.freePages(), cap);
    Ppa ppa;
    for (std::uint64_t i = 0; i < cap; ++i) {
        EXPECT_FALSE(sb_.exhausted());
        ASSERT_TRUE(sb_.allocatePage(ppa));
    }
    EXPECT_EQ(sb_.freePages(), 0u);
    EXPECT_TRUE(sb_.exhausted());
    EXPECT_FALSE(sb_.allocatePage(ppa));
}

TEST_F(SuperblockTest, ExhaustedStopsAtTheFirstFreePage)
{
    // Two stripes of two blocks. exhausted() stops at the first block
    // with a free page; it must agree with freePages() == 0 while the
    // first stripe fills (its later blocks and the second stripe still
    // free) and while the second stripe fills after it.
    ASSERT_TRUE(sb_.addStripe(2, 2, 1));
    ASSERT_TRUE(sb_.addStripe(5, 2, 1));
    const std::uint64_t per_stripe =
        std::uint64_t(2) * geo_.pages_per_block;
    Ppa ppa;
    for (const ChannelId ch : {ChannelId(2), ChannelId(5)}) {
        for (std::uint64_t i = 0; i < per_stripe; ++i) {
            EXPECT_FALSE(sb_.exhausted());
            ASSERT_TRUE(sb_.allocatePageOnChannel(ch, ppa));
            EXPECT_EQ(sb_.exhausted(), sb_.freePages() == 0);
        }
    }
    EXPECT_TRUE(sb_.exhausted());
    EXPECT_EQ(sb_.freePages(), 0u);
}

TEST_F(SuperblockTest, AllocatePageOnSpecificChannel)
{
    ASSERT_TRUE(sb_.addStripe(2, 1, 1));
    ASSERT_TRUE(sb_.addStripe(5, 1, 1));
    Ppa ppa;
    ASSERT_TRUE(sb_.allocatePageOnChannel(5, ppa));
    EXPECT_EQ(geo_.channelOf(ppa), 5u);
    EXPECT_FALSE(sb_.allocatePageOnChannel(9, ppa));
}

TEST_F(SuperblockTest, ChannelsListsStripes)
{
    ASSERT_TRUE(sb_.addStripe(1, 1, 1));
    ASSERT_TRUE(sb_.addStripe(4, 1, 1));
    const auto chs = sb_.channels();
    EXPECT_EQ(chs, (std::vector<ChannelId>{1, 4}));
}

TEST_F(SuperblockTest, ProgramsInterleaveAcrossChipsWithinStripe)
{
    ASSERT_TRUE(sb_.addStripe(0, 4, 1));
    std::set<ChipId> chips;
    for (int i = 0; i < 4; ++i) {
        Ppa ppa;
        ASSERT_TRUE(sb_.allocatePage(ppa));
        chips.insert(geo_.chipOf(ppa));
    }
    // Least-filled-first selection spreads the first four pages over
    // four distinct blocks (one per chip).
    EXPECT_EQ(chips.size(), 4u);
}

}  // namespace
}  // namespace fleetio
