#include "src/core/recovery.h"

#include <cassert>

#include "src/core/agent_supervisor.h"

namespace fleetio {

CrashShadow
RecoveryManager::captureShadow() const
{
    CrashShadow shadow;
    shadow.crash_time = r_.eq->now();

    for (Vssd *v : r_.vssds->active()) {
        CrashShadow::TenantShadow t;
        t.id = v->id();
        t.live_pages = v->ftl().livePages();
        t.map.resize(v->ftl().logicalPages());
        for (Lpa lpa = 0; lpa < t.map.size(); ++lpa)
            t.map[lpa] = v->ftl().lookup(lpa);
        shadow.tenants.push_back(std::move(t));
    }

    const SsdGeometry &geo = r_.dev->geometry();
    shadow.hbt_bits.reserve(geo.totalBlocks());
    for (ChannelId ch = 0; ch < geo.num_channels; ++ch)
        for (ChipId c = 0; c < geo.chips_per_channel; ++c)
            for (BlockId b = 0; b < geo.blocks_per_chip; ++b)
                shadow.hbt_bits.push_back(
                    r_.hbt->isMarked(ch, c, b) ? 1 : 0);
    return shadow;
}

bool
RecoveryManager::mapsMatchShadow(const CrashShadow &shadow) const
{
    for (const CrashShadow::TenantShadow &t : shadow.tenants) {
        const Vssd *v = r_.vssds->get(t.id);
        if (v == nullptr || !r_.vssds->alive(t.id))
            return false;  // a crash cannot remove tenants by itself
        if (v->ftl().livePages() != t.live_pages)
            return false;
        for (Lpa lpa = 0; lpa < t.map.size(); ++lpa) {
            if (v->ftl().lookup(lpa) != t.map[lpa])
                return false;
        }
    }
    return true;
}

bool
RecoveryManager::hbtMatchesShadow(const CrashShadow &shadow) const
{
    const SsdGeometry &geo = r_.dev->geometry();
    std::size_t i = 0;
    for (ChannelId ch = 0; ch < geo.num_channels; ++ch) {
        for (ChipId c = 0; c < geo.chips_per_channel; ++c) {
            for (BlockId b = 0; b < geo.blocks_per_chip; ++b, ++i) {
                const bool want = shadow.hbt_bits[i] != 0;
                if (r_.hbt->isMarked(ch, c, b) != want)
                    return false;
            }
        }
    }
    return true;
}

RecoveryReport
RecoveryManager::recover(const CrashShadow &shadow)
{
    assert(r_.injector->crashed() && "recover() needs a crashed device");
    RecoveryReport rep;
    rep.crash_time = shadow.crash_time;
    const SsdGeometry &geo = r_.dev->geometry();

    // (1) Power-loss semantics: every volatile structure is gone. The
    // physical medium (block states, write pointers, wear, bad-block
    // tables) and the durable metadata survive inside dev/durability.
    r_.eq->clearPending();
    r_.sched->crashReset();
    for (std::size_t i = 0; i < r_.vssds->size(); ++i) {
        Vssd *v = r_.vssds->get(VssdId(i));
        if (v == nullptr)
            continue;
        v->queue().crashReset();
        v->gc().crashReset();
        v->ftl().beginRecovery();
    }
    r_.dev->crashReset();
    r_.hbt->crashReset();

    // (2) Durable merge: checkpoint -> journal replay -> OOB scan.
    RecoveryStats stats;
    const std::vector<RecoveredMapping> mappings =
        r_.durability->recover(stats);
    rep.scanned_pages = stats.scanned_pages;
    rep.replayed_records = stats.replayed_records;
    rep.torn_records = stats.torn_records;
    rep.checkpoint_fallback = stats.checkpoint_fallback;
    rep.checkpoint_lost = stats.checkpoint_lost;

    // (3) Rebuild every alive tenant's L2P map (+ rmap + valid bits).
    // Mappings of wiped/unknown tenants are already suppressed by the
    // merge; a dead-but-unscrubbed tenant's survivors are dropped here
    // and its blocks drain through the resumed scrub instead.
    for (const RecoveredMapping &m : mappings) {
        Vssd *v = r_.vssds->get(m.vssd);
        if (v == nullptr || !r_.vssds->alive(m.vssd))
            continue;
        v->ftl().restoreMapping(m.lpa, m.ppa);
        ++rep.restored_mappings;
    }

    // (4) Rebuild the HBT from the durable donated flags. The mirror
    // writes bounce off the frozen durability model harmlessly — the
    // flags are already set.
    for (ChannelId ch = 0; ch < geo.num_channels; ++ch)
        for (ChipId c = 0; c < geo.chips_per_channel; ++c)
            for (BlockId b = 0; b < geo.blocks_per_chip; ++b)
                if (r_.durability->summary(ch, c, b).donated)
                    r_.hbt->mark(ch, c, b);

    // (5) Verdicts against the pre-crash shadow — before reconciliation
    // mutates leases and before the open-block sweep, so they compare
    // the rebuild itself, not the post-recovery policy decisions.
    rep.map_matches_shadow = mapsMatchShadow(shadow);
    rep.hbt_matches_shadow = hbtMatchesShadow(shadow);

    // (6) Power returns: durable writes resume.
    r_.injector->powerRestored();
    r_.durability->unfreeze();

    // (7) Open-block sweep. The FTL's open points died with DRAM, so a
    // partially-written open block can never be appended to again —
    // close it (NAND-style padding, GC-eligible). A never-written open
    // block goes straight back to the free pool, except when a gSB
    // tracks it: reconciliation below releases those through
    // reclaimLazily so the gSB record is detached, not leaked.
    for (ChannelId ch = 0; ch < geo.num_channels; ++ch) {
        for (ChipId c = 0; c < geo.chips_per_channel; ++c) {
            FlashChip &chp = r_.dev->chip(ch, c);
            for (BlockId b = 0; b < geo.blocks_per_chip; ++b) {
                if (chp.block(b).state != BlockState::kOpen)
                    continue;
                if (r_.gsb->tracksBlock(ch, c, b))
                    continue;
                if (chp.block(b).write_ptr > 0)
                    r_.dev->durableClose(ch, c, b);
                else
                    r_.dev->durableRelease(ch, c, b);
            }
        }
    }

    // (8) Recount the per-tenant quota ledgers from physical truth
    // (the counters were volatile). Runs before reconciliation so the
    // lazy-reclaim decrements land on a consistent ledger.
    std::vector<std::uint64_t> used(r_.vssds->size(), 0);
    for (ChannelId ch = 0; ch < geo.num_channels; ++ch) {
        for (ChipId c = 0; c < geo.chips_per_channel; ++c) {
            const FlashChip &chp = r_.dev->chip(ch, c);
            for (BlockId b = 0; b < geo.blocks_per_chip; ++b) {
                const FlashBlock &blk = chp.block(b);
                if (blk.state != BlockState::kOpen &&
                    blk.state != BlockState::kFull)
                    continue;
                if (blk.owner < used.size())
                    ++used[blk.owner];
            }
        }
    }
    for (std::size_t i = 0; i < r_.vssds->size(); ++i) {
        if (Vssd *v = r_.vssds->get(VssdId(i)))
            v->ftl().setBlocksUsed(used[i]);
    }

    // (9) Conservative gSB lease reconciliation: a lease's liveness was
    // negotiated in controller DRAM, so nothing after the crash can
    // prove a harvester still deserves its donated channels. Force-
    // release every held gSB and retire every donation; agents re-earn
    // leases through the normal Make_Harvestable/Harvest actions.
    for (Vssd *v : r_.vssds->active()) {
        rep.leases_reconciled += r_.gsb->forceReleaseHeld(v->id());
        rep.leases_reconciled += r_.gsb->retireDonor(v->id());
    }

    // (10) RL agents: reload the last on-disk CheckpointStore snapshot
    // (possibly one interval stale) and serve probation on the
    // deterministic fallback until the supervisor re-trusts them.
    if (r_.ctrl != nullptr) {
        r_.ctrl->stop();
        rep.agents_restored = r_.ctrl->loadCheckpoints();
        if (AgentSupervisor *sup = r_.ctrl->supervisor()) {
            for (Vssd *v : r_.vssds->active())
                if (sup->imposeProbation(v->id()))
                    ++rep.agents_probation;
        }
        r_.ctrl->start();
    }

    // (11) RPO/RTO. RPO: sim-time of updates that had to be rebuilt
    // from journal+scan rather than the checkpoint. RTO: analytic
    // rebuild cost — the OOB scan runs read_latency per page,
    // parallelized across every (channel, chip) pair, plus journal
    // replay (1 us/record) and the checkpoint load (1 ms).
    rep.rpo_ns = shadow.crash_time > stats.last_checkpoint_time
                     ? shadow.crash_time - stats.last_checkpoint_time
                     : 0;
    const std::uint64_t lanes =
        std::uint64_t(geo.num_channels) * geo.chips_per_channel;
    rep.rto_ns = geo.read_latency *
                     ((stats.scanned_pages + lanes - 1) / lanes) +
                 usec(1) * stats.replayed_records + msec(1);

    rep.recovered = true;
    return rep;
}

}  // namespace fleetio
