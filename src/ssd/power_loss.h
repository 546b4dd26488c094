/**
 * @file
 * Deterministic power-loss injection (DESIGN.md §12). A crash can be
 * scheduled by absolute sim time, by dispatched-event count, or at the
 * Nth occurrence of an instrumented phase (mid-GC, mid-harvest,
 * mid-churn). Firing freezes the DurabilityModel (nothing after the
 * crash instant reaches the medium) and halts the EventQueue; every
 * pending event — the device's entire volatile timing state — is then
 * discarded by recovery.
 *
 * With no plan armed every hook is a null-pointer branch, so crash-free
 * runs stay byte-identical to builds without the injector.
 */
#pragma once

#include <cstdint>

#include "src/sim/event_queue.h"
#include "src/sim/types.h"
#include "src/ssd/durability.h"

namespace fleetio {

/** Instrumented crash points; the injector can fire at any of them. */
enum class CrashPhase : std::uint8_t {
    kGcMigration = 0,  ///< GC page-migration step entry
    kGcErase,          ///< GC erase-completion callback entry
    kGcRetire,         ///< between physical retire and its journal write
    kHarvest,          ///< gSB harvest entry
    kMakeHarvestable,  ///< gSB creation entry
    kChurnDrain,       ///< elastic removal: drain poll
    kChurnTeardown,    ///< elastic removal: teardown entry
    kChurnScrub,       ///< elastic removal: scrub poll
};

inline constexpr int kNumCrashPhases = 8;

/** When to pull the plug. */
struct CrashPlan
{
    enum class Trigger : std::uint8_t {
        kNone = 0,
        kSimTime,     ///< at absolute sim time `at`
        kEventCount,  ///< after `after_events` further dispatches
        kPhase,       ///< at occurrence #`phase_skip` of `phase`
    };

    Trigger trigger = Trigger::kNone;
    SimTime at = 0;
    std::uint64_t after_events = 0;
    CrashPhase phase = CrashPhase::kGcMigration;
    std::uint32_t phase_skip = 0;  ///< occurrences to let pass first

    bool enabled() const { return trigger != Trigger::kNone; }
};

/**
 * The injector. One-shot: a plan fires at most one crash; recovery
 * calls powerRestored() to re-enable durable writes, and fired() stays
 * true so the harness knows a crash was handled.
 */
class PowerLossInjector
{
  public:
    PowerLossInjector(EventQueue &eq, DurabilityModel &durability);

    /** Arm @p plan (schedules the sim-time event / dispatch hook). */
    void arm(const CrashPlan &plan);

    /** Hot-path phase hook (null-guarded at every call site). */
    void notifyPhase(CrashPhase phase)
    {
        if (armed_ && plan_.trigger == CrashPlan::Trigger::kPhase &&
            phase == plan_.phase) {
            if (phase_remaining_ == 0)
                crashNow();
            else
                --phase_remaining_;
        }
    }

    /**
     * Pull the plug now: freeze durable state, snapshot hook, halt the
     * event queue. The in-flight callback finishes, but every durable
     * write it attempts is dropped and every gated physical mutation
     * (erase/retire/release, gSB creation) is refused.
     */
    void crashNow();

    /** Recovery finished: durable writes flow again. */
    void powerRestored() { crashed_ = false; }

    /** Power currently off (crash instant .. recovery end). */
    bool crashed() const { return crashed_; }

    /** A crash has fired at some point (never reset). */
    bool fired() const { return fired_; }

    /**
     * Invoked synchronously inside crashNow(), before the in-flight
     * callback resumes — the harness snapshots its shadow model (the
     * expected post-recovery state) here.
     */
    void setOnCrash(InlineFunction<void()> cb) { on_crash_ = std::move(cb); }

  private:
    EventQueue &eq_;
    DurabilityModel &durability_;
    CrashPlan plan_;
    bool armed_ = false;
    bool crashed_ = false;
    bool fired_ = false;
    std::uint32_t phase_remaining_ = 0;
    std::uint64_t events_remaining_ = 0;
    InlineFunction<void()> on_crash_;
};

}  // namespace fleetio
