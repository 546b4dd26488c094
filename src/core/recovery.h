/**
 * @file
 * Crash-consistent device recovery (DESIGN.md §12): orchestrates the
 * post-power-loss rebuild — discard every volatile structure, merge the
 * durable metadata (checkpoint -> journal replay -> open-superblock OOB
 * scan) back into per-tenant L2P maps, recount the quota ledgers,
 * rebuild the Harvested Block Table from durable donated flags,
 * conservatively reconcile gSB leases, and restore RL agents from their
 * on-disk checkpoints under supervisor probation.
 */
#pragma once

#include <cstdint>
#include <vector>

#include "src/core/fleetio_controller.h"
#include "src/harvest/gsb_manager.h"
#include "src/harvest/harvested_block_table.h"
#include "src/sim/event_queue.h"
#include "src/ssd/durability.h"
#include "src/ssd/flash_device.h"
#include "src/ssd/power_loss.h"
#include "src/virt/io_scheduler.h"
#include "src/virt/vssd.h"

namespace fleetio {

/**
 * What the device looked like the instant power died. Captured from the
 * power-loss injector's on-crash hook — before the interrupted callback
 * resumes — so recovery can be verified against the exact pre-crash
 * state (rebuilt-map ≡ shadow-model, per the bench verdicts).
 */
struct CrashShadow
{
    SimTime crash_time = 0;

    struct TenantShadow
    {
        VssdId id = 0;
        std::vector<Ppa> map;          ///< full L2P at the crash instant
        std::uint64_t live_pages = 0;
    };
    std::vector<TenantShadow> tenants;  ///< alive tenants at the crash

    /** Flat HBT bits, [channel][chip][block]. */
    std::vector<std::uint8_t> hbt_bits;
};

/** Everything recovery did, for verdicts and obs export. */
struct RecoveryReport
{
    bool recovered = false;
    SimTime crash_time = 0;

    /** Recovery-point objective: sim-time between the last durable
     *  checkpoint and the crash (bounded by the checkpoint cadence;
     *  zero data loss regardless — the journal + OOB scan close it). */
    SimTime rpo_ns = 0;
    /** Recovery-time objective: analytic rebuild cost — the OOB scan
     *  parallelized over every (channel, chip) at read latency, plus
     *  journal replay and checkpoint-load overhead. */
    SimTime rto_ns = 0;

    std::uint64_t scanned_pages = 0;
    std::uint64_t replayed_records = 0;
    std::uint64_t torn_records = 0;
    std::uint64_t restored_mappings = 0;
    bool checkpoint_fallback = false;  ///< current slot bad, .prev used
    bool checkpoint_lost = false;      ///< both slots bad, scan-only

    /** Channels force-released + donor gSBs torn down. */
    std::uint64_t leases_reconciled = 0;
    std::size_t agents_restored = 0;   ///< loaded from CheckpointStore
    std::size_t agents_probation = 0;  ///< placed on fallback probation

    bool map_matches_shadow = false;  ///< rebuilt L2P ≡ shadow, all tenants
    bool hbt_matches_shadow = false;  ///< rebuilt HBT ≡ shadow

    /** Acknowledged writes whose mapping did not survive recovery.
     *  Filled by the harness from its acked-write ledger (the manager
     *  has no visibility into host completions); must be zero. */
    std::uint64_t acked_lost = 0;
};

/**
 * The recovery orchestrator. Stateless between calls; the harness
 * constructs one over its subsystems when a crash plan is configured.
 */
class RecoveryManager
{
  public:
    struct Refs
    {
        EventQueue *eq = nullptr;
        FlashDevice *dev = nullptr;
        DurabilityModel *durability = nullptr;
        PowerLossInjector *injector = nullptr;
        HarvestedBlockTable *hbt = nullptr;
        VssdManager *vssds = nullptr;
        GsbManager *gsb = nullptr;
        IoScheduler *sched = nullptr;
        FleetIoController *ctrl = nullptr;  ///< optional (RL runs)
    };

    explicit RecoveryManager(const Refs &refs) : r_(refs) {}

    /** Snapshot the pre-crash truth (call from the on-crash hook). */
    CrashShadow captureShadow() const;

    /**
     * Run the full recovery sequence against a frozen, crashed device.
     * On return power is restored, every volatile structure is rebuilt,
     * leases are reconciled, and agents run under probation; the caller
     * re-arms workloads/polling and resumes the event queue.
     */
    RecoveryReport recover(const CrashShadow &shadow);

  private:
    bool mapsMatchShadow(const CrashShadow &shadow) const;
    bool hbtMatchesShadow(const CrashShadow &shadow) const;

    Refs r_;
};

}  // namespace fleetio
