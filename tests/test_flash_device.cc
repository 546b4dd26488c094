/** @file Unit tests for device timing, allocation and accounting. */
#include <gtest/gtest.h>

#include "src/ssd/flash_device.h"

namespace fleetio {
namespace {

class FlashDeviceTest : public ::testing::Test
{
  protected:
    FlashDeviceTest() : dev_(testGeometry(), eq_) {}
    EventQueue eq_;
    FlashDevice dev_;
};

TEST_F(FlashDeviceTest, ReadTimingIsChipThenBus)
{
    const auto &geo = dev_.geometry();
    ChipId chip;
    BlockId blk;
    ASSERT_TRUE(dev_.allocateBlock(0, 0, chip, blk));
    const PageId pg = dev_.chip(0, chip).programNextPage(blk);
    const Ppa ppa = geo.makePpa(0, chip, blk, pg);

    bool done = false;
    dev_.setOnHostDone([&](ChannelId ch, std::uint32_t tag) {
        done = ch == 0 && tag == 7;
    });
    const SimTime complete = dev_.issueRead(ppa, 7);
    EXPECT_EQ(complete, geo.read_latency + geo.pageTransferTime());
    EXPECT_FALSE(done);
    eq_.runAll();
    EXPECT_TRUE(done);
    EXPECT_EQ(dev_.hostReads(), 1u);
}

TEST_F(FlashDeviceTest, ProgramTimingIsBusThenChip)
{
    const auto &geo = dev_.geometry();
    ChipId chip;
    BlockId blk;
    ASSERT_TRUE(dev_.allocateBlock(0, 0, chip, blk));
    const PageId pg = dev_.chip(0, chip).programNextPage(blk);
    const Ppa ppa = geo.makePpa(0, chip, blk, pg);

    const SimTime complete = dev_.issueProgram(ppa, 0);
    EXPECT_EQ(complete, geo.pageTransferTime() + geo.program_latency);
    EXPECT_EQ(dev_.hostWrites(), 1u);
}

TEST_F(FlashDeviceTest, BusSerializesSameChannelTransfers)
{
    const auto &geo = dev_.geometry();
    // Two reads from different chips on the same channel: chip reads
    // overlap, bus transfers serialize.
    ChipId c0, c1;
    BlockId b0, b1;
    ASSERT_TRUE(dev_.allocateBlock(0, 0, c0, b0));
    dev_.chip(0, c0).programNextPage(b0);
    ASSERT_TRUE(dev_.allocateBlock(0, 0, c1, b1));
    dev_.chip(0, c1).programNextPage(b1);
    const Ppa p0 = geo.makePpa(0, c0, b0, 0);
    const Ppa p1 = geo.makePpa(0, c1, b1, 0);

    const SimTime t0 = dev_.issueRead(p0, 0);
    const SimTime t1 = dev_.issueRead(p1, 1);
    EXPECT_EQ(t0, geo.read_latency + geo.pageTransferTime());
    if (c0 != c1) {
        // Second transfer queues behind the first on the bus.
        EXPECT_EQ(t1, t0 + geo.pageTransferTime());
    }
}

TEST_F(FlashDeviceTest, DifferentChannelsProceedInParallel)
{
    const auto &geo = dev_.geometry();
    ChipId c0, c1;
    BlockId b0, b1;
    ASSERT_TRUE(dev_.allocateBlock(0, 0, c0, b0));
    dev_.chip(0, c0).programNextPage(b0);
    ASSERT_TRUE(dev_.allocateBlock(1, 0, c1, b1));
    dev_.chip(1, c1).programNextPage(b1);

    const SimTime t0 = dev_.issueRead(geo.makePpa(0, c0, b0, 0), 0);
    const SimTime t1 = dev_.issueRead(geo.makePpa(1, c1, b1, 0), 1);
    EXPECT_EQ(t0, t1);
}

TEST_F(FlashDeviceTest, WriteSlotFreesAtTransferEnd)
{
    const auto &geo = dev_.geometry();
    ChipId chip;
    BlockId blk;
    ASSERT_TRUE(dev_.allocateBlock(0, 0, chip, blk));
    const PageId pg = dev_.chip(0, chip).programNextPage(blk);
    ChannelId freed_ch = 999;
    bool done = false;
    dev_.setOnSlotFreed([&](ChannelId ch) { freed_ch = ch; });
    dev_.setOnHostDone([&](ChannelId, std::uint32_t) { done = true; });
    dev_.issueProgram(geo.makePpa(0, chip, blk, pg), 0);
    EXPECT_EQ(dev_.channel(0).outstanding(), 1u);
    eq_.runUntil(geo.pageTransferTime());
    EXPECT_EQ(dev_.channel(0).outstanding(), 0u);
    EXPECT_EQ(freed_ch, 0u);
    EXPECT_FALSE(done);  // the program continues in the chip
    eq_.runAll();
    EXPECT_TRUE(done);
}

TEST_F(FlashDeviceTest, QueueDepthGatesDispatch)
{
    const auto &geo = dev_.geometry();
    ChipId chip;
    BlockId blk;
    ASSERT_TRUE(dev_.allocateBlock(0, 0, chip, blk));
    for (std::uint32_t i = 0; i < geo.max_queue_depth; ++i) {
        const PageId pg = dev_.chip(0, chip).programNextPage(blk);
        ASSERT_TRUE(dev_.canDispatch(0));
        dev_.issueRead(geo.makePpa(0, chip, blk, pg), i);
    }
    EXPECT_FALSE(dev_.canDispatch(0));
    eq_.runAll();
    EXPECT_TRUE(dev_.canDispatch(0));
}

TEST_F(FlashDeviceTest, GcOpsBypassQueueDepthButShareTime)
{
    const auto &geo = dev_.geometry();
    ChipId chip;
    BlockId blk;
    ASSERT_TRUE(dev_.allocateBlock(0, 0, chip, blk));
    const PageId pg = dev_.chip(0, chip).programNextPage(blk);
    const Ppa ppa = geo.makePpa(0, chip, blk, pg);

    const SimTime t_gc = dev_.issueGcRead(ppa, nullptr);
    EXPECT_EQ(dev_.channel(0).outstanding(), 0u);  // not counted
    EXPECT_EQ(dev_.gcReads(), 1u);
    // A host read behind it queues on the same bus.
    const SimTime t_host = dev_.issueRead(ppa, 0);
    EXPECT_GT(t_host, t_gc);
}

TEST_F(FlashDeviceTest, AllocatePrefersChipWithMostFreeBlocks)
{
    // Drain chip 0 down by several blocks.
    for (int i = 0; i < 3; ++i)
        dev_.chip(0, 0).allocateBlock(0);
    ChipId chip;
    BlockId blk;
    ASSERT_TRUE(dev_.allocateBlock(0, 1, chip, blk));
    EXPECT_NE(chip, 0u);
}

TEST_F(FlashDeviceTest, FreeCountsAndRatios)
{
    const auto &geo = dev_.geometry();
    EXPECT_EQ(dev_.totalFreeBlocks(), geo.totalBlocks());
    EXPECT_DOUBLE_EQ(dev_.freeRatio(0), 1.0);
    ChipId chip;
    BlockId blk;
    dev_.allocateBlock(0, 0, chip, blk);
    EXPECT_EQ(dev_.freeBlocksInChannel(0),
              std::uint32_t(geo.blocksPerChannel()) - 1);
}

TEST_F(FlashDeviceTest, InvalidateAndRmapRoundTrip)
{
    const auto &geo = dev_.geometry();
    ChipId chip;
    BlockId blk;
    ASSERT_TRUE(dev_.allocateBlock(2, 0, chip, blk));
    const PageId pg = dev_.chip(2, chip).programNextPage(blk);
    const Ppa ppa = geo.makePpa(2, chip, blk, pg);
    dev_.setRmap(ppa, 5, 1234);
    EXPECT_EQ(dev_.rmap(ppa).data_vssd, 5u);
    EXPECT_EQ(dev_.rmap(ppa).lpa, 1234u);
    dev_.invalidatePage(ppa);
    EXPECT_EQ(dev_.blockOf(ppa).valid_count, 0u);
}

TEST_F(FlashDeviceTest, UtilizationAccountsBusTime)
{
    const auto &geo = dev_.geometry();
    ChipId chip;
    BlockId blk;
    ASSERT_TRUE(dev_.allocateBlock(0, 0, chip, blk));
    const PageId pg = dev_.chip(0, chip).programNextPage(blk);
    dev_.issueRead(geo.makePpa(0, chip, blk, pg), 0);
    eq_.runAll();
    const SimTime elapsed = eq_.now();
    const double util = dev_.busUtilization(elapsed);
    const double expect = double(geo.pageTransferTime()) /
                          (double(elapsed) * geo.num_channels);
    EXPECT_NEAR(util, expect, 1e-9);
    dev_.resetBusyWindow();
    EXPECT_DOUBLE_EQ(dev_.busUtilization(elapsed), 0.0);
}

TEST_F(FlashDeviceTest, WriteAmplificationRatio)
{
    const auto &geo = dev_.geometry();
    EXPECT_DOUBLE_EQ(dev_.writeAmplification(), 1.0);
    ChipId chip;
    BlockId blk;
    ASSERT_TRUE(dev_.allocateBlock(0, 0, chip, blk));
    for (int i = 0; i < 4; ++i) {
        const PageId pg = dev_.chip(0, chip).programNextPage(blk);
        dev_.issueProgram(geo.makePpa(0, chip, blk, pg), std::uint32_t(i));
    }
    const PageId pg = dev_.chip(0, chip).programNextPage(blk);
    dev_.issueGcProgram(geo.makePpa(0, chip, blk, pg), nullptr);
    EXPECT_DOUBLE_EQ(dev_.writeAmplification(), 5.0 / 4.0);
}

}  // namespace
}  // namespace fleetio
