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
 * The binary heap holds only 24-byte {when, seq, slot} keys. Callbacks
 * are InlineFunctions sized so every callback the simulator schedules
 * (including the FlashDevice completion wrappers, which embed a nested
 * device callback) fits inline; they live in a slab whose free slots
 * are recycled, so a heap sift moves keys, never callbacks, and a
 * dispatch costs no malloc/free.
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

    struct Key
    {
        SimTime when;
        std::uint64_t seq;   // tie-break: FIFO within a timestamp
        std::uint32_t slot;  // index of the callback in slab_
    };

    /** Heap order for std::push_heap/pop_heap: the earliest key on top. */
    struct Later
    {
        bool
        operator()(const Key &a, const Key &b) const
        {
            if (a.when != b.when)
                return a.when > b.when;
            return a.seq > b.seq;
        }
    };

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
