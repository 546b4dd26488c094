#include "src/ssd/gc.h"

#include <cassert>
#include <limits>

#include "src/harvest/harvested_block_table.h"

namespace fleetio {

GcEngine::GcEngine(FlashDevice &dev, Ftl &home, HarvestedBlockTable &hbt,
                   Hooks hooks)
    : dev_(&dev), home_(&home), hbt_(&hbt), hooks_(std::move(hooks))
{
    assert(hooks_.ftl_of);
}

GcEngine::Victim
GcEngine::selectVictim() const
{
    const auto &geo = dev_->geometry();
    Victim best_marked;
    Victim best_regular;
    std::uint32_t marked_valid = std::numeric_limits<std::uint32_t>::max();
    std::uint32_t regular_valid = std::numeric_limits<std::uint32_t>::max();

    // Scan every channel: donated (gSB) blocks may sit on channels the
    // home vSSD no longer lists as writable.
    for (ChannelId ch = 0; ch < geo.num_channels; ++ch) {
        for (ChipId c = 0; c < geo.chips_per_channel; ++c) {
            const FlashChip &chp = dev_->chip(ch, c);
            for (BlockId b = 0; b < chp.numBlocks(); ++b) {
                const FlashBlock &blk = chp.block(b);
                if (blk.owner != home_->vssd() ||
                    blk.state != BlockState::kFull) {
                    continue;
                }
                if (hbt_->isMarked(ch, c, b)) {
                    if (blk.valid_count < marked_valid) {
                        marked_valid = blk.valid_count;
                        best_marked = Victim{ch, c, b, true, true};
                    }
                } else if (blk.valid_count < regular_valid) {
                    regular_valid = blk.valid_count;
                    best_regular = Victim{ch, c, b, true, false};
                }
            }
        }
    }
    // Fig. 9: prioritize harvested/reclaimed blocks over regular ones.
    if (best_marked.found)
        return best_marked;
    return best_regular;
}

void
GcEngine::maybeStart()
{
    if (active_)
        return;
    if (!home_->needsGc() && !reclaim_requests_)
        return;
    const Victim v = selectVictim();
    if (!v.found) {
        // Nothing reclaimable right now; reclaim requests stay pending
        // until more blocks fill up.
        if (!v.found && reclaim_requests_ && hbt_->markedCount() == 0)
            reclaim_requests_ = false;
        return;
    }
    startJob(v);
}

void
GcEngine::startJob(const Victim &v)
{
    active_ = true;
    current_ = v;
    next_page_ = 0;
    in_flight_ = 0;
    retry_count_ = 0;
    ++job_gen_;
    FLEETIO_OBS(dev_->obs(),
                gcBatch(dev_->eventQueue().now(), home_->vssd(), v.ch,
                        dev_->chip(v.ch, v.chip).block(v.blk).valid_count));
    pumpMigrations();
}

void
GcEngine::pumpMigrations()
{
    const auto &geo = dev_->geometry();
    const FlashBlock &blk = dev_->chip(current_.ch, current_.chip)
                                .block(current_.blk);

    // Launch migrations up to the pipeline width.
    while (in_flight_ < kMigrationWidth &&
           next_page_ < geo.pages_per_block) {
        if (!blk.valid[next_page_]) {
            ++next_page_;
            continue;
        }
        migrateOnePage(next_page_++);
    }

    if (in_flight_ == 0 && next_page_ >= geo.pages_per_block)
        finishBlock();
}

void
GcEngine::migrateOnePage(PageId pg)
{
    if (PowerLossInjector *p = dev_->powerLoss()) {
        p->notifyPhase(CrashPhase::kGcMigration);
        if (p->crashed())
            return;  // power died at this migration boundary
    }
    const auto &geo = dev_->geometry();
    const Ppa old_ppa =
        geo.makePpa(current_.ch, current_.chip, current_.blk, pg);
    const RmapEntry entry = dev_->rmap(old_ppa);

    Ftl *data_ftl = hooks_.ftl_of(entry.data_vssd);
    if (data_ftl == nullptr || data_ftl->lookup(entry.lpa) != old_ppa) {
        // Stale mapping (page was overwritten or tenant deallocated);
        // nothing to copy.
        dev_->invalidatePage(old_ppa);
        return;
    }

    // Relocate: harvested data goes to the harvesting vSSD's own
    // blocks (Fig. 9 copy-back); home data relocates within the home.
    Ppa new_ppa;
    bool ok = data_ftl->allocateRelocation(new_ppa);
    if (!ok && data_ftl != home_) {
        // Harvester has no headroom; keep the data on the home side
        // rather than stalling the reclamation.
        ok = home_->allocateRelocation(new_ppa);
    }
    if (!ok) {
        // No destination anywhere right now: retry shortly, but give
        // the job up entirely if the device stays full — the next
        // trigger re-selects a victim once capacity exists (this
        // backstop prevents an event-loop livelock under extreme
        // capacity pressure).
        if (++retry_count_ > 256) {
            active_ = false;
            ++job_gen_;  // invalidate any stale in-flight events
            return;
        }
        ++in_flight_;
        const std::uint64_t gen = job_gen_;
        dev_->eventQueue().scheduleAfter(msec(1), [this, pg, gen]() {
            if (gen != job_gen_)
                return;
            --in_flight_;
            migrateOnePage(pg);
            pumpMigrations();
        });
        return;
    }

    // The map is repointed up front (eager metadata, lazy timing, as
    // in the write path); the read+program charge the device.
    data_ftl->remap(entry.lpa, new_ppa);
    ++pages_migrated_;
    ++in_flight_;
    const std::uint64_t gen = job_gen_;
    // GC copyback occupancy is blamed on the GC's home tenant: its
    // stale pages forced the migration, whichever vSSD's data moves.
    // The program fires from the read's completion callback, so it
    // re-arms there — the original scope is long gone by then.
    const obs::ObsHub::Scope arm(dev_->obs(), home_->vssd(),
                                 obs::SegKind::kGcOp);
    dev_->issueGcRead(old_ppa, [this, new_ppa, gen]() {
        const obs::ObsHub::Scope rearm(dev_->obs(), home_->vssd(),
                                       obs::SegKind::kGcOp);
        dev_->issueGcProgram(new_ppa, [this, gen]() {
            if (gen != job_gen_)
                return;
            onPageMigrated();
        });
    });
}

void
GcEngine::onPageMigrated()
{
    if (in_flight_ > 0)
        --in_flight_;
    pumpMigrations();
}

void
GcEngine::finishBlock()
{
    const Victim v = current_;
    const std::uint64_t gen = job_gen_;
    const obs::ObsHub::Scope arm(dev_->obs(), home_->vssd(),
                                 obs::SegKind::kGcOp);
    dev_->issueErase(v.ch, v.chip, [this, v, gen]() {
        if (gen != job_gen_)
            return;
        if (PowerLossInjector *p = dev_->powerLoss()) {
            p->notifyPhase(CrashPhase::kGcErase);
            if (p->crashed())
                return;  // power died before the erase took effect
        }
        FlashChip &chp = dev_->chip(v.ch, v.chip);
        FaultInjector *fi = dev_->faultInjector();
        if (fi != nullptr && fi->eraseFails(chp.block(v.blk))) {
            // Erase failure: the block goes to the bad-block table
            // instead of the free pool. All valid pages were already
            // migrated, so no mapping is lost; the quota ledger still
            // gets the block back (it left the vSSD's service).
            // durableRetire hosts the audited crash window between the
            // physical retirement and its durable record (satellite 1).
            dev_->durableRetire(v.ch, v.chip, v.blk);
            ++blocks_retired_;
        } else {
            dev_->durableErase(v.ch, v.chip, v.blk);
            ++blocks_reclaimed_;
        }
        if (dev_->crashedNow())
            return;  // the retire window crashed: stop touching state
        hbt_->clear(v.ch, v.chip, v.blk);
        home_->onBlocksReclaimed(1);
        if (hooks_.on_erased)
            hooks_.on_erased(v.ch, v.chip, v.blk);
        active_ = false;
        // Continue while pressure or reclaim requests persist. A
        // retirement shrinks the physical pool, so this re-trigger is
        // what keeps the free-block ratio above water under faults.
        if (hbt_->markedCount() == 0)
            reclaim_requests_ = false;
        maybeStart();
    });
}

}  // namespace fleetio
