/**
 * @file
 * Discrete-event simulation core: a time-ordered event queue with a
 * monotonically advancing clock. All device latencies in FleetIO are
 * modelled by scheduling callbacks on this queue.
 */
#pragma once

#include <cstdint>
#include <vector>

#include "src/sim/inline_function.h"
#include "src/sim/types.h"

namespace fleetio {

/**
 * A deterministic discrete-event queue.
 *
 * Events scheduled for the same timestamp fire in insertion order (FIFO),
 * which keeps runs reproducible across platforms. The queue owns the
 * simulated clock: now() only advances when events are dispatched.
 *
 * A 4-ary min-heap holds only 16-byte keys: the time, then one word
 * packing the insertion sequence number above the callback's slot.
 * Sequence numbers are unique, so the packed word orders same-time
 * events exactly as the sequence number alone does. Callbacks are
 * InlineFunctions sized so every callback the simulator schedules
 * (the FlashDevice host-op events, GC continuations, workload timers)
 * fits inline; they live in a slab whose free slots are recycled, so a
 * heap sift moves keys, never callbacks, and a dispatch costs no
 * malloc/free.
 */
class EventQueue
{
  public:
    /** Inline capture capacity of a scheduled callback, in bytes. */
    static constexpr std::size_t kInlineCallbackBytes = 96;

    using Callback = InlineFunction<void(), kInlineCallbackBytes>;

    /** Reserves room for kInitialCapacity pending events. */
    EventQueue();
    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /** Current simulated time. */
    SimTime now() const { return now_; }

    /**
     * Schedule @p cb to run at absolute time @p when.
     * Scheduling in the past is clamped to now().
     */
    void scheduleAt(SimTime when, Callback cb);

    /** Schedule @p cb to run @p delay after the current time. */
    void scheduleAfter(SimTime delay, Callback cb)
    {
        scheduleAt(now_ + delay, std::move(cb));
    }

    /** True when no events remain. */
    bool empty() const { return heap_.empty(); }

    /** Number of pending events. */
    std::size_t pending() const { return heap_.size(); }

    /** Timestamp of the next event, or kTimeNever when empty. */
    SimTime nextEventTime() const
    {
        return heap_.empty() ? kTimeNever : heap_.front().when;
    }

    /**
     * Dispatch the single next event (advancing the clock to it).
     * @retval true an event was dispatched.
     * @retval false the queue was empty.
     */
    bool step();

    /**
     * Run events until the clock passes @p until or the queue drains.
     * Events at exactly @p until are dispatched. The clock is left at
     * max(now, until) so subsequent scheduling is relative to the horizon.
     * @return number of events dispatched.
     */
    std::uint64_t runUntil(SimTime until);

    /** Run every pending event. @return number dispatched. */
    std::uint64_t runAll();

    /** Total events dispatched over the queue's lifetime. */
    std::uint64_t dispatched() const { return dispatched_; }

    /**
     * Freeze dispatch (power-loss). step()/runUntil()/runAll() return
     * without dispatching — and, crucially, runUntil() does NOT advance
     * the clock to its horizon, so recovery code still sees the crash
     * instant as now(). The callback that called halt() finishes
     * normally; everything still queued stays queued until
     * clearPending() discards it or resume() lets it run.
     */
    void halt() { halted_ = true; }

    /** Un-freeze dispatch after recovery re-seeds the queue. */
    void resume() { halted_ = false; }

    bool halted() const { return halted_; }

    /** Discard every pending event (volatile state lost at power-off). */
    void clearPending();

    /**
     * Hook invoked after every dispatched event (crash-by-event-count
     * triggers). Null (the default) costs one branch per dispatch.
     */
    void setAfterDispatch(InlineFunction<void()> hook)
    {
        after_dispatch_ = std::move(hook);
    }

  private:
    /** Pending events the constructor reserves room for; the slab grows
     *  past it (amortized) only when more are in flight at once. */
    static constexpr std::size_t kInitialCapacity = 512;

    /** Low bits of Key::order holding the slot; the sequence number
     *  takes the rest. Both limits are checked on every schedule, since
     *  a wrapped field would silently reorder events. */
    static constexpr unsigned kSlotBits = 24;
    static constexpr std::uint64_t kMaxSlots = std::uint64_t(1) << kSlotBits;
    static constexpr std::uint64_t kMaxSeq = std::uint64_t(1)
                                             << (64 - kSlotBits);

    struct Key
    {
        SimTime when;
        /** seq << kSlotBits | slot: FIFO within a timestamp, and the
         *  index of the callback in slab_. */
        std::uint64_t order;
    };

    /** Heap order: @p a dispatches before @p b. One 128-bit compare
     *  of (when, order) compiles to cmp/sbb with no branch, so a
     *  sift's child selection does not mispredict. */
    static bool
    before(const Key &a, const Key &b)
    {
        using U128 = unsigned __int128;
        return (U128(a.when) << 64 | a.order) < (U128(b.when) << 64 | b.order);
    }

    /** Remove the earliest key and restore the heap. @pre !empty(). */
    Key popEarliest();

    /** Heap ordered by before(); children of i are 4i+1 .. 4i+4. */
    std::vector<Key> heap_;
    std::vector<Callback> slab_;
    std::vector<std::uint32_t> free_slots_;
    SimTime now_ = 0;
    std::uint64_t seq_ = 0;
    std::uint64_t dispatched_ = 0;
    bool halted_ = false;
    InlineFunction<void()> after_dispatch_;
};

}  // namespace fleetio
