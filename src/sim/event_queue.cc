#include "src/sim/event_queue.h"

#include <algorithm>
#include <utility>

namespace fleetio {

EventQueue::EventQueue()
{
    heap_.reserve(kInitialCapacity);
    slab_.reserve(kInitialCapacity);
    free_slots_.reserve(kInitialCapacity);
}

void
EventQueue::scheduleAt(SimTime when, Callback cb)
{
    if (when < now_)
        when = now_;
    std::uint32_t slot;
    if (free_slots_.empty()) {
        slot = std::uint32_t(slab_.size());
        slab_.push_back(std::move(cb));
    } else {
        slot = free_slots_.back();
        free_slots_.pop_back();
        slab_[slot] = std::move(cb);
    }
    heap_.push_back(Key{when, seq_++, slot});
    std::push_heap(heap_.begin(), heap_.end(), Later{});
}

bool
EventQueue::step()
{
    if (heap_.empty() || halted_)
        return false;
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    const Key key = heap_.back();
    heap_.pop_back();
    now_ = key.when;
    ++dispatched_;
    // Move the callback out and free its slot first: the callback may
    // schedule events, which can reuse the slot or grow the slab.
    Callback cb = std::move(slab_[key.slot]);
    free_slots_.push_back(key.slot);
    if (cb)
        cb();
    if (after_dispatch_)
        after_dispatch_();
    return true;
}

std::uint64_t
EventQueue::runUntil(SimTime until)
{
    std::uint64_t n = 0;
    while (!heap_.empty() && !halted_ && heap_.front().when <= until) {
        step();
        ++n;
    }
    // A halted queue must keep now() at the crash instant; recovery
    // resumes and re-enters runUntil for the remaining horizon.
    if (!halted_ && now_ < until)
        now_ = until;
    return n;
}

std::uint64_t
EventQueue::runAll()
{
    std::uint64_t n = 0;
    while (step())
        ++n;
    return n;
}

void
EventQueue::clearPending()
{
    heap_.clear();
    slab_.clear();
    free_slots_.clear();
}

}  // namespace fleetio
