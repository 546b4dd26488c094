#include "src/sim/event_queue.h"

#include <stdexcept>
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
    if (seq_ == kMaxSeq)
        throw std::length_error("EventQueue: sequence numbers exhausted");
    std::uint64_t slot;
    if (free_slots_.empty()) {
        slot = slab_.size();
        if (slot == kMaxSlots)
            throw std::length_error("EventQueue: too many pending events");
        slab_.push_back(std::move(cb));
    } else {
        slot = free_slots_.back();
        free_slots_.pop_back();
        slab_[slot] = std::move(cb);
    }
    const Key key{when, seq_++ << kSlotBits | slot};

    // Sift up: move parents down into the hole until the key fits.
    std::size_t i = heap_.size();
    heap_.push_back(key);
    while (i > 0) {
        const std::size_t parent = (i - 1) / 4;
        if (!before(key, heap_[parent]))
            break;
        heap_[i] = heap_[parent];
        i = parent;
    }
    heap_[i] = key;
}

EventQueue::Key
EventQueue::popEarliest()
{
    const Key top = heap_.front();
    const Key last = heap_.back();
    heap_.pop_back();
    const std::size_t n = heap_.size();
    if (n == 0)
        return top;

    // Sift the last key down from the root: move the earliest child up
    // into the hole until the key fits.
    Key *h = heap_.data();
    std::size_t i = 0;
    for (;;) {
        const std::size_t c = 4 * i + 1;
        std::size_t m;
        if (c + 3 < n) {
            // All four children: a two-round tournament, selecting by
            // arithmetic and cmov rather than by branches.
            const std::size_t m01 = c + before(h[c + 1], h[c]);
            const std::size_t m23 = c + 2 + before(h[c + 3], h[c + 2]);
            m = before(h[m23], h[m01]) ? m23 : m01;
        } else if (c < n) {
            m = c;
            for (std::size_t j = c + 1; j < n; ++j)
                if (before(h[j], h[m]))
                    m = j;
        } else {
            break;
        }
        if (!before(h[m], last))
            break;
        h[i] = h[m];
        i = m;
    }
    h[i] = last;
    return top;
}

bool
EventQueue::step()
{
    if (heap_.empty() || halted_)
        return false;
    const Key key = popEarliest();
    const std::size_t slot = std::size_t(key.order & (kMaxSlots - 1));
    now_ = key.when;
    ++dispatched_;
    // Move the callback out and free its slot first: the callback may
    // schedule events, which can reuse the slot or grow the slab, and
    // may clear the queue.
    Callback cb = std::move(slab_[slot]);
    free_slots_.push_back(std::uint32_t(slot));
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
