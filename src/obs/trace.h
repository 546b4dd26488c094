/**
 * @file
 * Structured simulation tracing (DESIGN.md §9): typed, sim-time-stamped
 * events recorded into per-thread ring buffers and exported as Chrome
 * trace-event JSON loadable in Perfetto / chrome://tracing.
 *
 * Design constraints, in order:
 *  - Zero behaviour change when disabled. Instrumentation sites guard on
 *    a nullable TraceRecorder pointer (FLEETIO_TRACE_EVENT below); a
 *    null recorder means one pointer test per site and nothing else —
 *    no RNG draws, no time reads, no allocation.
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
 * meaning of id/a/b/value depends on the type (see the emit helpers).
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

    // --- Emit helpers (one per taxonomy entry) ----------------------

    void ioSubmit(SimTime ts, VssdId v, std::uint64_t req_id,
                  IoType type, std::uint32_t npages)
    {
        TraceEvent ev;
        ev.ts = ts;
        ev.id = req_id;
        ev.a = std::uint64_t(type);
        ev.b = npages;
        ev.type = TraceEventType::kIoSubmit;
        ev.track = tenantTrack(v);
        record(ev);
    }

    void ioDispatch(SimTime ts, VssdId v, std::uint64_t req_id,
                    ChannelId ch, SimTime wait_ns)
    {
        TraceEvent ev;
        ev.ts = ts;
        ev.id = req_id;
        ev.a = ch;
        ev.value = toMicros(wait_ns);
        ev.type = TraceEventType::kIoDispatch;
        ev.track = tenantTrack(v);
        record(ev);
    }

    void ioComplete(SimTime ts, VssdId v, std::uint64_t req_id,
                    IoType type, SimTime latency_ns)
    {
        TraceEvent ev;
        ev.ts = ts;
        ev.id = req_id;
        ev.a = std::uint64_t(type);
        ev.value = toMicros(latency_ns);
        ev.type = TraceEventType::kIoComplete;
        ev.track = tenantTrack(v);
        record(ev);
    }

    void gcBatch(SimTime ts, VssdId v, ChannelId ch,
                 std::uint32_t npages)
    {
        TraceEvent ev;
        ev.ts = ts;
        ev.a = v;
        ev.b = npages;
        ev.type = TraceEventType::kGcBatch;
        ev.track = channelTrack(ch);
        record(ev);
    }

    void gcOp(SimTime ts, TraceEventType type, ChannelId ch)
    {
        TraceEvent ev;
        ev.ts = ts;
        ev.type = type;
        ev.track = channelTrack(ch);
        record(ev);
    }

    void gsbEvent(SimTime ts, TraceEventType type, VssdId tenant,
                  std::uint64_t gsb_id, std::uint32_t channels)
    {
        TraceEvent ev;
        ev.ts = ts;
        ev.id = gsb_id;
        ev.a = channels;
        ev.type = type;
        ev.track = tenantTrack(tenant);
        record(ev);
    }

    void agentDecide(SimTime ts, VssdId v, std::uint64_t action_code)
    {
        TraceEvent ev;
        ev.ts = ts;
        ev.a = action_code;
        ev.type = TraceEventType::kAgentDecide;
        ev.track = tenantTrack(v);
        record(ev);
    }

    void agentReward(SimTime ts, VssdId v, double reward)
    {
        TraceEvent ev;
        ev.ts = ts;
        ev.value = reward;
        ev.type = TraceEventType::kAgentReward;
        ev.track = tenantTrack(v);
        record(ev);
        counterSample(ts, tenantTrack(v), CounterKind::kReward, reward);
    }

    void agentTrip(SimTime ts, VssdId v, std::uint64_t reason)
    {
        TraceEvent ev;
        ev.ts = ts;
        ev.a = reason;
        ev.type = TraceEventType::kAgentTrip;
        ev.track = tenantTrack(v);
        record(ev);
    }

    void windowBoundary(SimTime ts, std::uint64_t window_index)
    {
        TraceEvent ev;
        ev.ts = ts;
        ev.a = window_index;
        ev.type = TraceEventType::kWindowBoundary;
        ev.track = kTrackController;
        record(ev);
    }

    void counterSample(SimTime ts, std::uint16_t track,
                       CounterKind kind, double value)
    {
        TraceEvent ev;
        ev.ts = ts;
        ev.value = value;
        ev.type = TraceEventType::kCounter;
        ev.counter = kind;
        ev.track = track;
        record(ev);
    }

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

/**
 * Instrumentation-site guard: evaluates @p tracer_expr once, records via
 * the emit-helper @p call when non-null.
 */
#define FLEETIO_TRACE_EVENT(tracer_expr, call)                        \
    do {                                                              \
        ::fleetio::obs::TraceRecorder *fio_tr__ = (tracer_expr);      \
        if (fio_tr__ != nullptr)                                      \
            fio_tr__->call;                                           \
    } while (0)
