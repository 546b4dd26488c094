/**
 * @file
 * Structured simulation tracing (DESIGN.md §9): typed, sim-time-stamped
 * events recorded into per-thread ring buffers and exported as Chrome
 * trace-event JSON loadable in Perfetto / chrome://tracing.
 *
 * Design constraints, in order:
 *  - Zero behaviour change when disabled. Instrumentation sites reach
 *    the recorder only through the ObsHub (src/obs/hub.h), whose
 *    FLEETIO_OBS guard makes an obs-off run one pointer test per site
 *    and nothing else — no RNG draws, no time reads, no allocation.
 *  - Contention-free under the parallel harness. Each worker thread
 *    records into its own ring (thread_local lookup cached on the
 *    recorder's unique id); the recorder's mutex is only taken on a
 *    thread's first event and at export time.
 *  - Bounded memory. Rings overwrite their oldest events and count the
 *    drops; a run can never OOM from tracing.
 */
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

#include "src/sim/types.h"

namespace fleetio::obs {

/** Event taxonomy (DESIGN.md §9 table). */
enum class TraceEventType : std::uint8_t {
    // I/O request lifecycle (async span keyed by request id).
    kIoSubmit = 0,   ///< request enters the scheduler
    kIoDispatch,     ///< one page op leaves a channel queue
    kIoComplete,     ///< final page completed
    // GC activity (channel tracks).
    kGcBatch,        ///< victim block selected, migration batch starts
    kGcRead,         ///< copyback read issued
    kGcProgram,      ///< copyback program issued
    kGcErase,        ///< block erase issued
    // gSB lifecycle (tenant tracks, id = gSB id).
    kGsbCreate,
    kGsbHarvest,
    kGsbReclaim,
    kGsbRevoke,
    kGsbForceRelease,
    kGsbDestroy,
    // RL loop (tenant tracks / controller track).
    kAgentDecide,
    kAgentReward,
    kAgentTrip,
    kWindowBoundary,
    // Counter sample (see CounterKind).
    kCounter,
};

/** Counter tracks exported as Chrome "C" events. */
enum class CounterKind : std::uint8_t {
    kBandwidthMBps = 0,
    kQueueDepth,
    kReward,
    kUtilization,
};

/**
 * One recorded event. Fixed-size POD so rings are flat arrays; the
 * meaning of id/a/b/value depends on the type (the ObsHub's emits
 * build them; the exporter reads them).
 */
struct TraceEvent
{
    SimTime ts = 0;
    std::uint64_t id = 0;  ///< async-correlation id (request / gSB id)
    std::uint64_t a = 0;
    std::uint64_t b = 0;
    double value = 0.0;
    TraceEventType type = TraceEventType::kIoSubmit;
    CounterKind counter = CounterKind::kBandwidthMBps;
    std::uint16_t track = 0;  ///< exported Chrome tid
};

/** Track (Chrome tid) scheme: one track per tenant and per channel. */
inline constexpr std::uint16_t kTrackController = 0;
inline constexpr std::uint16_t
tenantTrack(VssdId id)
{
    return std::uint16_t(1 + id);
}
inline constexpr std::uint16_t
channelTrack(ChannelId ch)
{
    return std::uint16_t(512 + ch);
}

/**
 * Fixed-capacity overwrite ring of TraceEvents. Single-writer (one
 * simulation thread); readers snapshot after the run.
 */
class TraceRing
{
  public:
    explicit TraceRing(std::size_t capacity);

    void push(const TraceEvent &ev);

    /** Events currently retained (<= capacity). */
    std::size_t size() const;

    /** Lifetime pushes, including overwritten ones. */
    std::uint64_t pushed() const { return pushed_; }

    /** Events lost to overwrite. */
    std::uint64_t dropped() const;

    /** Retained events, oldest first. */
    std::vector<TraceEvent> snapshot() const;

  private:
    std::vector<TraceEvent> buf_;
    std::uint64_t pushed_ = 0;
};

/**
 * The per-run event sink. One recorder per Testbed; safe to record from
 * any thread (each thread gets its own ring).
 */
class TraceRecorder
{
  public:
    explicit TraceRecorder(std::size_t ring_capacity = 1u << 16);

    /** Record a fully-formed event into this thread's ring. */
    void record(const TraceEvent &ev);

    // --- Naming / export --------------------------------------------

    /** Name a track ("VDI-Web", "channel 3", ...). */
    void setTrackName(std::uint16_t track, const std::string &name);

    /** Events retained across all rings. */
    std::size_t eventCount() const;

    /** Events lost to ring overwrite across all rings. */
    std::uint64_t droppedCount() const;

    /** Rings in use (== threads that recorded). */
    std::size_t ringCount() const;

    /**
     * Export as Chrome trace-event JSON ({"traceEvents": [...]}).
     * Events are merged across rings ordered by (ts, ring, position),
     * so a single-threaded run exports in exact record order.
     */
    void writeChromeJson(std::ostream &os) const;

  private:
    TraceRing &threadRing();

    const std::uint64_t uid_;  ///< process-unique, never reused
    const std::size_t ring_capacity_;
    mutable std::mutex mu_;
    /// Ring registration and export both lock; the per-event fast
    /// path reads a thread-local pointer cached under the lock.
    std::vector<std::unique_ptr<TraceRing>> rings_;  // guarded by mu_
    std::map<std::uint16_t, std::string> track_names_;  // guarded by mu_
};

/** True when the FLEETIO_TRACE env knob asks for tracing ("0" = off). */
bool traceEnabledFromEnv();

/** FLEETIO_TRACE_DIR, or "." when unset/empty. */
std::string traceDirFromEnv();

}  // namespace fleetio::obs
