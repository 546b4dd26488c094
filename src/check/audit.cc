#include "src/check/audit.h"

#include <algorithm>

namespace fleetio::check {

namespace {

std::string
pageAt(VssdId vssd, Lpa lpa, Ppa ppa)
{
    return "vSSD " + std::to_string(vssd) + " lpa " +
           std::to_string(lpa) + " -> ppa " + std::to_string(ppa);
}

std::string
chipAt(ChannelId ch, ChipId c)
{
    return "ch " + std::to_string(ch) + " chip " + std::to_string(c);
}

}  // namespace

std::string
auditMappings(const FlashDevice &dev, const Ftl &ftl)
{
    const SsdGeometry &geo = dev.geometry();
    std::uint64_t mapped = 0;
    for (Lpa lpa = 0; lpa < ftl.logicalPages(); ++lpa) {
        const Ppa ppa = ftl.lookup(lpa);
        if (ppa == kNoPpa)
            continue;
        ++mapped;
        const FlashBlock &blk = dev.blockOf(ppa);
        if (blk.state == BlockState::kRetired)
            return pageAt(ftl.vssd(), lpa, ppa) + ": block retired";
        if (!blk.valid[geo.pageOf(ppa)])
            return pageAt(ftl.vssd(), lpa, ppa) + ": page not valid";
        const RmapEntry &r = dev.rmap(ppa);
        if (r.data_vssd != ftl.vssd() || r.lpa != lpa) {
            return pageAt(ftl.vssd(), lpa, ppa) + ": rmap names vSSD " +
                   std::to_string(r.data_vssd) + " lpa " +
                   std::to_string(r.lpa);
        }
    }
    if (mapped != ftl.livePages()) {
        return "vSSD " + std::to_string(ftl.vssd()) + ": " +
               std::to_string(mapped) + " mapped LPAs, livePages() " +
               std::to_string(ftl.livePages());
    }
    return "";
}

std::string
auditBlocks(const FlashDevice &dev)
{
    const SsdGeometry &geo = dev.geometry();
    for (ChannelId ch = 0; ch < geo.num_channels; ++ch) {
        for (ChipId c = 0; c < geo.chips_per_channel; ++c) {
            const FlashChip &chip = dev.chip(ch, c);
            std::uint32_t free_blocks = 0;
            for (BlockId b = 0; b < chip.numBlocks(); ++b)
                free_blocks += chip.block(b).state == BlockState::kFree;
            if (free_blocks != chip.freeBlocks()) {
                return chipAt(ch, c) + ": freeBlocks() " +
                       std::to_string(chip.freeBlocks()) + ", " +
                       std::to_string(free_blocks) + " blocks free";
            }
            for (BlockId b = 0; b < chip.numBlocks(); ++b) {
                const FlashBlock &blk = chip.block(b);
                const auto at = [&] {
                    return chipAt(ch, c) + " blk " + std::to_string(b);
                };
                const auto valid = std::uint32_t(
                    std::count(blk.valid.begin(), blk.valid.end(), true));
                if (valid != blk.valid_count) {
                    return at() + ": valid_count " +
                           std::to_string(blk.valid_count) + ", " +
                           std::to_string(valid) + " valid bits";
                }
                if (blk.state != BlockState::kFree)
                    continue;
                if (valid != 0) {
                    return at() + ": free block holds " +
                           std::to_string(valid) + " valid pages";
                }
                if (blk.owner != kNoVssd) {
                    return at() + ": free block owned by vSSD " +
                           std::to_string(blk.owner);
                }
            }
        }
    }
    return "";
}

}  // namespace fleetio::check
