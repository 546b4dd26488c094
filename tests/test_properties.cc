/**
 * @file
 * Property-based tests: randomized operation sequences with global
 * invariant checks over the FTL, GC, and the harvesting plane —
 * parameterized over seeds and geometries — and the invariant auditor
 * itself, which must report each seeded corruption where it lies.
 */
#include <gtest/gtest.h>

#include <map>
#include <memory>

#include "src/check/audit.h"
#include "src/harvest/gsb_manager.h"
#include "src/sim/rng.h"
#include "src/virt/vssd.h"

namespace fleetio {
namespace {

class FtlFuzz : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(FtlFuzz, RandomWritesTrimsAndGcKeepInvariants)
{
    const SsdGeometry geo = testGeometry();
    EventQueue eq;
    FlashDevice dev(geo, eq);
    HarvestedBlockTable hbt(geo);
    VssdManager mgr(dev, hbt);
    Vssd::Config cfg;
    cfg.id = 0;
    cfg.quota_blocks = geo.blocksPerChannel() * 2;
    cfg.channels = {0, 1};
    Vssd &v = mgr.create(cfg);

    Rng rng(GetParam());
    const Lpa space = v.ftl().logicalPages();
    for (int step = 0; step < 6000; ++step) {
        const double dice = rng.uniform();
        if (dice < 0.75) {
            Ppa ppa;
            const Lpa lpa = rng.uniformInt(space);
            if (!v.ftl().allocateWrite(lpa, ppa)) {
                v.gc().maybeStart();
                eq.runUntil(eq.now() + msec(50));
            }
        } else if (dice < 0.9) {
            v.ftl().trim(rng.uniformInt(space));
        } else {
            v.gc().maybeStart();
            eq.runUntil(eq.now() + msec(5));
        }
        if (step % 1500 == 1499) {
            eq.runUntil(eq.now() + sec(1));  // drain GC
            ASSERT_EQ(check::auditMappings(dev, v.ftl()), "");
            ASSERT_EQ(check::auditBlocks(dev), "");
        }
    }
    eq.runUntil(eq.now() + sec(2));
    ASSERT_EQ(check::auditMappings(dev, v.ftl()), "");
    ASSERT_EQ(check::auditBlocks(dev), "");
    // Quota ledger sanity: used blocks never exceed the quota, and at
    // least ceil(live/pages_per_block) blocks are in use.
    EXPECT_LE(v.ftl().blocksUsed(), cfg.quota_blocks);
    EXPECT_GE(v.ftl().blocksUsed() * geo.pages_per_block,
              v.ftl().livePages());
}

INSTANTIATE_TEST_SUITE_P(Seeds, FtlFuzz,
                         ::testing::Values(11ull, 22ull, 33ull, 44ull));

/** One tenant on channels 0-1 that has written LPAs 0-15: every block
 *  it opened is still open. Each test seeds one corruption. */
class AuditTest : public ::testing::Test
{
  protected:
    AuditTest()
    {
        Vssd::Config cfg;
        cfg.id = 0;
        cfg.quota_blocks = geo.blocksPerChannel() * 2;
        cfg.channels = {0, 1};
        v = &mgr.create(cfg);
        for (Lpa lpa = 0; lpa < 16; ++lpa) {
            Ppa ppa;
            EXPECT_TRUE(v->ftl().allocateWrite(lpa, ppa));
        }
    }

    /** "ch C chip K" of @p ppa, the prefix auditBlocks reports. */
    std::string chipAt(Ppa ppa) const
    {
        return "ch " + std::to_string(geo.channelOf(ppa)) + " chip " +
               std::to_string(geo.chipOf(ppa));
    }

    const SsdGeometry geo = testGeometry();
    EventQueue eq;
    FlashDevice dev{geo, eq};
    HarvestedBlockTable hbt{geo};
    VssdManager mgr{dev, hbt};
    Vssd *v = nullptr;
};

TEST_F(AuditTest, FreshlyWrittenStateIsClean)
{
    EXPECT_EQ(check::auditMappings(dev, v->ftl()), "");
    EXPECT_EQ(check::auditBlocks(dev), "");
}

TEST_F(AuditTest, ReportsRmapPointedAtAnotherLpa)
{
    const Ppa ppa = v->ftl().lookup(5);
    dev.setRmap(ppa, 0, 6);
    EXPECT_EQ(check::auditMappings(dev, v->ftl()),
              "vSSD 0 lpa 5 -> ppa " + std::to_string(ppa) +
                  ": rmap names vSSD 0 lpa 6");
}

TEST_F(AuditTest, ReportsValidBitClearedWithoutItsCount)
{
    const Ppa ppa = v->ftl().lookup(5);
    FlashBlock &blk = dev.blockOf(ppa);
    blk.valid[geo.pageOf(ppa)] = false;
    const std::uint32_t count = blk.valid_count;
    EXPECT_EQ(check::auditBlocks(dev),
              chipAt(ppa) + " blk " + std::to_string(geo.blockOf(ppa)) +
                  ": valid_count " + std::to_string(count) + ", " +
                  std::to_string(count - 1) + " valid bits");
}

TEST_F(AuditTest, ReportsMappedPageInRetiredBlock)
{
    const Ppa ppa = v->ftl().lookup(5);
    dev.blockOf(ppa).state = BlockState::kRetired;
    EXPECT_EQ(check::auditMappings(dev, v->ftl()),
              "vSSD 0 lpa 5 -> ppa " + std::to_string(ppa) +
                  ": block retired");
}

TEST_F(AuditTest, ReportsFreeBlockWithAnOwner)
{
    // Channel 5 belongs to no tenant, so its first block is free.
    FlashBlock &blk = dev.chip(5, 2).block(0);
    ASSERT_EQ(blk.state, BlockState::kFree);
    blk.owner = 0;
    EXPECT_EQ(check::auditBlocks(dev),
              "ch 5 chip 2 blk 0: free block owned by vSSD 0");
}

TEST_F(AuditTest, ReportsOpenBlockFreedWithoutTheChipCounter)
{
    const Ppa ppa = v->ftl().lookup(5);
    FlashBlock &blk = dev.blockOf(ppa);
    ASSERT_EQ(blk.state, BlockState::kOpen);
    blk.state = BlockState::kFree;
    const FlashChip &chip = dev.chip(geo.channelOf(ppa), geo.chipOf(ppa));
    EXPECT_EQ(check::auditBlocks(dev),
              chipAt(ppa) + ": freeBlocks() " +
                  std::to_string(chip.freeBlocks()) + ", " +
                  std::to_string(chip.freeBlocks() + 1) + " blocks free");
}

class HarvestFuzz : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(HarvestFuzz, RandomHarvestingKeepsLedgersConsistent)
{
    const SsdGeometry geo = testGeometry();
    EventQueue eq;
    FlashDevice dev(geo, eq);
    HarvestedBlockTable hbt(geo);
    VssdManager mgr(dev, hbt);
    GsbManager gsb(dev, mgr);
    mgr.setOnErased([&](ChannelId ch, ChipId c, BlockId b) {
        gsb.onBlockErased(ch, c, b);
    });

    Vssd::Config a;
    a.id = 0;
    a.quota_blocks = geo.blocksPerChannel() * 8;
    a.channels = {0, 1, 2, 3, 4, 5, 6, 7};
    Vssd &home = mgr.create(a);
    Vssd::Config b;
    b.id = 1;
    b.quota_blocks = geo.blocksPerChannel() * 8;
    b.channels = {8, 9, 10, 11, 12, 13, 14, 15};
    Vssd &harv = mgr.create(b);

    Rng rng(GetParam());
    const double ch_bw = geo.channelBandwidthMBps();
    Lpa next_lpa = 0;
    for (int step = 0; step < 3000; ++step) {
        const double dice = rng.uniform();
        if (dice < 0.3) {
            gsb.makeHarvestable(0, ch_bw * double(rng.uniformInt(
                                           std::uint64_t(5))));
        } else if (dice < 0.5) {
            gsb.harvest(1, ch_bw * double(rng.uniformInt(
                                     std::uint64_t(5))));
        } else {
            Ppa ppa;
            const Lpa lpa = next_lpa++ % harv.ftl().logicalPages();
            if (!harv.ftl().allocateWrite(lpa, ppa)) {
                harv.gc().maybeStart();
                home.gc().maybeStart();
                eq.runUntil(eq.now() + msec(50));
            }
        }
        if (step % 500 == 499)
            eq.runUntil(eq.now() + msec(200));  // let GC progress
    }
    eq.runUntil(eq.now() + sec(5));

    // Invariants:
    // 1. Forward/reverse mapping still consistent for the harvester.
    ASSERT_EQ(check::auditMappings(dev, harv.ftl()), "");
    ASSERT_EQ(check::auditBlocks(dev), "");
    // 2. Every live gSB block is HBT-marked (the reverse need not hold
    //    transiently). Some gSB must be live, or this checks nothing.
    std::uint64_t gsb_blocks = 0;
    for (ChannelId ch = 0; ch < geo.num_channels; ++ch) {
        for (ChipId c = 0; c < geo.chips_per_channel; ++c) {
            for (BlockId blk = 0; blk < geo.blocks_per_chip; ++blk) {
                if (!gsb.tracksBlock(ch, c, blk))
                    continue;
                ++gsb_blocks;
                EXPECT_TRUE(hbt.isMarked(ch, c, blk))
                    << "ch " << ch << " chip " << c << " blk " << blk;
            }
        }
    }
    EXPECT_GT(gsb_blocks, 0u);
    EXPECT_LE(gsb.liveGsbs(), 64u);
    // 3. Quota ledgers within bounds.
    EXPECT_LE(home.ftl().blocksUsed(), a.quota_blocks);
    EXPECT_LE(harv.ftl().blocksUsed(), b.quota_blocks);
    // 4. The pool never hands out a home-owned gSB to its own home:
    //    heldChannels(0) must be zero (vSSD 0 never harvests here).
    EXPECT_EQ(gsb.heldChannels(0), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, HarvestFuzz,
                         ::testing::Values(7ull, 77ull, 777ull));

TEST(EventQueueProperty, ClockIsMonotonicUnderRandomScheduling)
{
    EventQueue eq;
    Rng rng(5);
    SimTime last = 0;
    int fired = 0;
    std::function<void()> ev = [&]() {
        EXPECT_GE(eq.now(), last);
        last = eq.now();
        ++fired;
        if (fired < 2000) {
            // Random relative delays, including zero.
            eq.scheduleAfter(rng.uniformInt(std::uint64_t(1000)), ev);
            if (rng.bernoulli(0.3))
                eq.scheduleAfter(rng.uniformInt(std::uint64_t(10)), ev);
        }
    };
    eq.scheduleAfter(1, ev);
    eq.runUntil(sec(1));
    EXPECT_GE(fired, 2000);
}

}  // namespace
}  // namespace fleetio
