#include "src/harvest/gsb_pool.h"

#include <cassert>

namespace fleetio {

GsbPool::GsbPool(std::uint32_t num_channels)
    : num_lists_(num_channels), heads_(num_channels)
{
    for (auto &h : heads_)
        h.store(nullptr, std::memory_order_relaxed);
}

GsbPool::~GsbPool() = default;

void
GsbPool::insert(Gsb *gsb)
{
    assert(gsb != nullptr);
    const std::uint32_t n = gsb->numChannels();
    assert(n >= 1 && n <= num_lists_);

    auto node = std::make_unique<Node>();
    Node *raw = node.get();
    raw->gsb = gsb;

    {
        // Short spin lock protects only the arena vector (allocation
        // bookkeeping), never the hot list operations.
        std::size_t expected = 0;
        while (!arena_lock_.compare_exchange_weak(expected, 1,
                                                  std::memory_order_acquire)) {
            expected = 0;
        }
        arena_.push_back(std::move(node));
        arena_lock_.store(0, std::memory_order_release);
    }

    std::atomic<Node *> &head = heads_[n - 1];
    Node *old = head.load(std::memory_order_acquire);
    do {
        raw->next.store(old, std::memory_order_relaxed);
    } while (!head.compare_exchange_weak(old, raw,
                                         std::memory_order_release,
                                         std::memory_order_acquire));
}

Gsb *
GsbPool::tryAcquireFrom(std::size_t list, VssdId requester)
{
    for (Node *n = heads_[list].load(std::memory_order_acquire);
         n != nullptr; n = n->next.load(std::memory_order_acquire)) {
        if (n->claimed.load(std::memory_order_acquire))
            continue;
        if (n->gsb->homeVssd() == requester)
            continue;  // a vSSD must not harvest its own gSB
        bool expected = false;
        if (n->claimed.compare_exchange_strong(expected, true,
                                               std::memory_order_acq_rel)) {
            return n->gsb;
        }
    }
    return nullptr;
}

Gsb *
GsbPool::acquire(std::uint32_t n_chls, VssdId requester)
{
    if (num_lists_ == 0)
        return nullptr;
    if (n_chls < 1)
        n_chls = 1;
    if (n_chls > num_lists_)
        n_chls = num_lists_;

    // Exact fit first.
    if (Gsb *g = tryAcquireFrom(n_chls - 1, requester))
        return g;
    // Then smaller lists, largest-first (closest fit below).
    for (std::size_t i = n_chls - 1; i-- > 0;) {
        if (Gsb *g = tryAcquireFrom(i, requester))
            return g;
    }
    // Finally larger lists, smallest-first (closest fit above).
    for (std::size_t i = n_chls; i < num_lists_; ++i) {
        if (Gsb *g = tryAcquireFrom(i, requester))
            return g;
    }
    return nullptr;
}

bool
GsbPool::remove(Gsb *gsb)
{
    const std::uint32_t n = gsb->numChannels();
    const std::size_t list = n >= 1 && n <= num_lists_ ? n - 1 : 0;
    for (Node *node = heads_[list].load(std::memory_order_acquire);
         node != nullptr;
         node = node->next.load(std::memory_order_acquire)) {
        if (node->gsb != gsb)
            continue;
        bool expected = false;
        return node->claimed.compare_exchange_strong(
            expected, true, std::memory_order_acq_rel);
    }
    return false;
}

std::size_t
GsbPool::available() const
{
    std::size_t total = 0;
    for (std::size_t i = 0; i < num_lists_; ++i)
        total += availableFor(std::uint32_t(i + 1));
    return total;
}

std::size_t
GsbPool::availableFor(std::uint32_t n_chls) const
{
    if (n_chls < 1 || n_chls > num_lists_)
        return 0;
    std::size_t count = 0;
    for (Node *n = heads_[n_chls - 1].load(std::memory_order_acquire);
         n != nullptr; n = n->next.load(std::memory_order_acquire)) {
        if (!n->claimed.load(std::memory_order_acquire))
            ++count;
    }
    return count;
}

std::uint64_t
GsbPool::availableChannels() const
{
    std::uint64_t total = 0;
    for (std::size_t i = 0; i < num_lists_; ++i)
        total += availableFor(std::uint32_t(i + 1)) * (i + 1);
    return total;
}

}  // namespace fleetio
