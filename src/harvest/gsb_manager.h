/**
 * @file
 * The ghost-superblock manager (paper §3.6): creates gSBs on
 * Make_Harvestable, hands them out on Harvest, and reclaims them —
 * immediately when unharvested, lazily through the home vSSD's GC when
 * in use.
 */
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "src/harvest/gsb.h"
#include "src/harvest/gsb_pool.h"
#include "src/sim/types.h"
#include "src/virt/vssd.h"

namespace fleetio {

/**
 * Owner of every gSB's lifecycle.
 *
 * Bandwidth-to-channels conversion follows §3.6: n_chls =
 * floor(gsb_bw / per-channel bandwidth); capacity = n_chls x the
 * minimum superblock size. Both Make_Harvestable and Harvest are treated
 * as *target levels* that the manager reconciles against the tenant's
 * current donations/holdings, so an agent repeating the same action each
 * decision window is idempotent.
 */
class GsbManager
{
  public:
    GsbManager(FlashDevice &dev, VssdManager &vssds);

    /**
     * Reconcile @p home's harvestable donation to @p gsb_bw_mbps worth
     * of channels. Creates a gSB when below target (skipping channels
     * with < 25 % free blocks, per §3.6) and reclaims surplus gSBs —
     * unharvested ones are destroyed immediately (blocks returned,
     * never-written blocks released without wear), harvested ones are
     * reclaimed lazily via the home GC.
     */
    void makeHarvestable(VssdId home, double gsb_bw_mbps);

    /**
     * Reconcile @p harvester's holdings toward @p gsb_bw_mbps worth of
     * channels: acquires pool gSBs (best-fit search) when below target,
     * releases the emptiest holdings for reclamation when above.
     * @return channels actually held after reconciliation.
     */
    std::uint32_t harvest(VssdId harvester, double gsb_bw_mbps);

    /** Total channels donated by @p home across its live gSBs. */
    std::uint32_t donatedChannels(VssdId home) const;

    /** Total channels currently harvested by @p v. */
    std::uint32_t heldChannels(VssdId v) const;

    /** gSBs currently registered (any state). */
    std::size_t liveGsbs() const { return gsbs_.size(); }

    GsbPool &pool() { return pool_; }
    const GsbPool &pool() const { return pool_; }

    /** The underlying device (obs hub access for the supervisor). */
    FlashDevice &device() { return dev_; }

    /**
     * Block-erase notification (wired to VssdManager::setOnErased):
     * detaches the block from its gSB and destroys gSBs whose last
     * block was reclaimed.
     */
    void onBlockErased(ChannelId ch, ChipId chip, BlockId blk);

    /**
     * Donor-pressure revoke: when @p home's free quota collapses (e.g.
     * block retirements under faults shrank its pool), forcibly take
     * donated capacity back — unharvested pool gSBs are destroyed
     * immediately (metadata-only, works even at zero free blocks),
     * then in-use gSBs are reclaimed lazily until the pressure clears.
     * Called automatically from makeHarvestable; safe to call any time.
     * @return true when a revoke happened.
     */
    bool revokeUnderPressure(VssdId home);

    /**
     * Quarantine path: forcibly release every gSB currently harvested
     * by @p harvester (including spent ones), detaching its write path
     * immediately and routing the blocks back to their donors through
     * the usual lazy reclamation. After this call heldChannels(
     * harvester) is zero — the donors' bandwidth starts recovering
     * within the same decision window.
     * @return channels released.
     */
    std::uint32_t forceReleaseHeld(VssdId harvester);

    /**
     * Tenant-retirement teardown for the donor side (DESIGN.md §11):
     * destroy every unharvested pool gSB @p home donated (instant,
     * metadata-only) and lazily reclaim every in-use one (harvester
     * write path detached immediately; blocks drain back through the
     * home GC's HBT-prioritized victims). Combined with
     * forceReleaseHeld(home) — the harvester side — this removes every
     * gSB edge touching a departing tenant.
     * @return gSBs torn down.
     */
    std::uint32_t retireDonor(VssdId home);

    /** Any gSB (in any state) still recorded with @p home as donor?
     *  The retirement scrub phase polls this toward zero. */
    bool hasGsbsForHome(VssdId home) const;

    /** Is @p blk attached to a live gSB? Crash recovery's open-block
     *  sweep skips these: reclaimLazily / onBlockErased own their
     *  release so the gSB record is detached, not leaked. */
    bool tracksBlock(ChannelId ch, ChipId chip, BlockId blk) const
    {
        return block_to_gsb_.count(blockKey(ch, chip, blk)) != 0;
    }

    /** Telemetry: gSBs created / harvested / reclaimed so far. */
    std::uint64_t createdCount() const { return created_; }
    std::uint64_t harvestedCount() const { return harvested_; }
    std::uint64_t reclaimedCount() const { return reclaimed_; }

    /** gSBs forcibly taken back by donor-pressure revokes. */
    std::uint64_t revokedCount() const { return revoked_; }

    /** gSBs force-released from quarantined harvesters. */
    std::uint64_t forceReleasedCount() const { return force_released_; }

  private:
    std::uint64_t blockKey(ChannelId ch, ChipId chip, BlockId blk) const;
    std::uint32_t bwToChannels(double gsb_bw_mbps) const;
    Gsb *createGsb(Vssd &home, std::uint32_t n_chls);
    void destroyUnharvestedAfterPoolRemove(Gsb *gsb);
    void reclaimLazily(Gsb *gsb);
    void eraseGsbRecord(GsbId id);
    /** Emit gSB lifecycle point @p type (a kGsb* trace type). */
    void noteGsb(obs::TraceEventType type, VssdId tenant, const Gsb &g);

    FlashDevice &dev_;
    VssdManager &vssds_;
    GsbPool pool_;
    /** Ordered by id, so every walk over the live gSBs is in id order. */
    std::map<GsbId, std::unique_ptr<Gsb>> gsbs_;
    std::map<std::uint64_t, GsbId> block_to_gsb_;
    GsbId next_id_ = 1;

    std::uint64_t created_ = 0;
    std::uint64_t harvested_ = 0;
    std::uint64_t reclaimed_ = 0;
    std::uint64_t revoked_ = 0;
    std::uint64_t force_released_ = 0;
};

}  // namespace fleetio
