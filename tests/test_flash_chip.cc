/** @file Unit tests for flash block lifecycle on a chip. */
#include <gtest/gtest.h>

#include "src/ssd/flash_chip.h"

namespace fleetio {
namespace {

class FlashChipTest : public ::testing::Test
{
  protected:
    FlashChipTest() : geo_(testGeometry()), chip_(geo_) {}
    SsdGeometry geo_;
    FlashChip chip_;
};

TEST_F(FlashChipTest, StartsAllFree)
{
    EXPECT_EQ(chip_.freeBlocks(), geo_.blocks_per_chip);
    for (BlockId b = 0; b < chip_.numBlocks(); ++b) {
        EXPECT_EQ(chip_.block(b).state, BlockState::kFree);
        EXPECT_EQ(chip_.block(b).owner, kNoVssd);
    }
}

TEST_F(FlashChipTest, AllocateOpensBlockForOwner)
{
    const BlockId b = chip_.allocateBlock(3);
    ASSERT_NE(b, UINT32_MAX);
    EXPECT_EQ(chip_.block(b).state, BlockState::kOpen);
    EXPECT_EQ(chip_.block(b).owner, 3u);
    EXPECT_EQ(chip_.block(b).write_ptr, 0u);
    EXPECT_EQ(chip_.freeBlocks(), geo_.blocks_per_chip - 1);
}

TEST_F(FlashChipTest, AllocateFailsWhenExhausted)
{
    for (std::uint32_t i = 0; i < geo_.blocks_per_chip; ++i)
        ASSERT_NE(chip_.allocateBlock(0), UINT32_MAX);
    EXPECT_EQ(chip_.allocateBlock(0), UINT32_MAX);
    EXPECT_EQ(chip_.freeBlocks(), 0u);
}

TEST_F(FlashChipTest, RetireRemovesBlockFromServiceForever)
{
    // Retire a free block: the free pool shrinks and the bad-block
    // table records it.
    chip_.retireBlock(0);
    EXPECT_EQ(chip_.block(0).state, BlockState::kRetired);
    EXPECT_EQ(chip_.freeBlocks(), geo_.blocks_per_chip - 1);
    EXPECT_EQ(chip_.retiredBlocks(), 1u);
    ASSERT_EQ(chip_.badBlocks().size(), 1u);
    EXPECT_EQ(chip_.badBlocks()[0], 0u);

    // Retire a full (in-service) block: free count is unaffected.
    const BlockId b = chip_.allocateBlock(1);
    ASSERT_NE(b, UINT32_MAX);
    chip_.programNextPage(b);
    chip_.closeBlock(b);
    const std::uint32_t free_before = chip_.freeBlocks();
    chip_.retireBlock(b);
    EXPECT_EQ(chip_.freeBlocks(), free_before);
    EXPECT_EQ(chip_.retiredBlocks(), 2u);
    EXPECT_EQ(chip_.block(b).valid_count, 0u);

    // Retired blocks are never handed out again.
    std::uint32_t handed = 0;
    while (chip_.allocateBlock(2) != UINT32_MAX)
        ++handed;
    EXPECT_EQ(handed, geo_.blocks_per_chip - 2);
}

TEST_F(FlashChipTest, SlowdownStretchesOperationsInsideWindow)
{
    // 4x factor until t=1000: an op of 100 starting at 0 takes 400.
    chip_.beginSlowdown(1000);
    EXPECT_EQ(chip_.slowUntil(), 1000u);
    EXPECT_EQ(chip_.reserve(0, 100), 400u);
    // An op starting after the window runs at full speed.
    EXPECT_EQ(chip_.reserve(2000, 100), 2100u);
    // Windows only ever extend, never shrink.
    chip_.beginSlowdown(500);
    EXPECT_EQ(chip_.slowUntil(), 1000u);
}

TEST_F(FlashChipTest, SequentialProgrammingFillsBlock)
{
    const BlockId b = chip_.allocateBlock(1);
    for (PageId expected = 0; expected < geo_.pages_per_block;
         ++expected) {
        EXPECT_EQ(chip_.programNextPage(b), expected);
    }
    EXPECT_EQ(chip_.block(b).state, BlockState::kFull);
    EXPECT_EQ(chip_.block(b).valid_count, geo_.pages_per_block);
}

TEST_F(FlashChipTest, InvalidatePageDropsValidCount)
{
    const BlockId b = chip_.allocateBlock(1);
    chip_.programNextPage(b);
    chip_.programNextPage(b);
    chip_.invalidatePage(b, 0);
    EXPECT_EQ(chip_.block(b).valid_count, 1u);
    EXPECT_FALSE(chip_.block(b).valid[0]);
    EXPECT_TRUE(chip_.block(b).valid[1]);
    // Idempotent.
    chip_.invalidatePage(b, 0);
    EXPECT_EQ(chip_.block(b).valid_count, 1u);
}

TEST_F(FlashChipTest, EraseReturnsBlockAndCountsWear)
{
    const BlockId b = chip_.allocateBlock(1);
    chip_.programNextPage(b);
    chip_.eraseBlock(b);
    EXPECT_EQ(chip_.block(b).state, BlockState::kFree);
    EXPECT_EQ(chip_.block(b).owner, kNoVssd);
    EXPECT_EQ(chip_.block(b).valid_count, 0u);
    EXPECT_EQ(chip_.block(b).erase_count, 1u);
    EXPECT_EQ(chip_.totalErases(), 1u);
    EXPECT_EQ(chip_.freeBlocks(), geo_.blocks_per_chip);
}

TEST_F(FlashChipTest, ReleaseBlockFreesWithoutWear)
{
    const BlockId b = chip_.allocateBlock(1);
    chip_.releaseBlock(b);
    EXPECT_EQ(chip_.block(b).state, BlockState::kFree);
    EXPECT_EQ(chip_.block(b).erase_count, 0u);
    EXPECT_EQ(chip_.freeBlocks(), geo_.blocks_per_chip);
}

TEST_F(FlashChipTest, CloseBlockPadsPartialBlock)
{
    const BlockId b = chip_.allocateBlock(1);
    chip_.programNextPage(b);
    chip_.closeBlock(b);
    EXPECT_EQ(chip_.block(b).state, BlockState::kFull);
    // Closing a non-open block is a no-op.
    chip_.closeBlock(b);
    EXPECT_EQ(chip_.block(b).state, BlockState::kFull);
}

TEST_F(FlashChipTest, ReserveSerializesOperations)
{
    const SimTime e1 = chip_.reserve(0, usec(100));
    EXPECT_EQ(e1, usec(100));
    // Requested earlier than busy-until: queues behind.
    const SimTime e2 = chip_.reserve(usec(50), usec(100));
    EXPECT_EQ(e2, usec(200));
    // Requested after idle: starts at request time.
    const SimTime e3 = chip_.reserve(usec(500), usec(10));
    EXPECT_EQ(e3, usec(510));
    EXPECT_EQ(chip_.busyUntil(), usec(510));
}

TEST_F(FlashChipTest, EraseAfterRefillCanBeReallocated)
{
    const BlockId b = chip_.allocateBlock(7);
    for (PageId p = 0; p < geo_.pages_per_block; ++p)
        chip_.programNextPage(b);
    chip_.eraseBlock(b);
    const BlockId b2 = chip_.allocateBlock(8);
    // First-fit allocator reuses the lowest free block.
    EXPECT_EQ(b2, b);
    EXPECT_EQ(chip_.block(b2).owner, 8u);
    EXPECT_EQ(chip_.programNextPage(b2), 0u);
}

}  // namespace
}  // namespace fleetio
