#include "src/virt/stride_scheduler.h"

#include <cassert>
#include <limits>

namespace fleetio {

StrideScheduler::Entry &
StrideScheduler::entry(VssdId id)
{
    if (entries_.size() <= id)
        entries_.resize(id + 1);
    std::optional<Entry> &e = entries_[id];
    if (!e)
        e = Entry{kStrideScale, global_pass_};  // 1 ticket, joins now
    return *e;
}

const StrideScheduler::Entry *
StrideScheduler::find(VssdId id) const
{
    return id < entries_.size() && entries_[id] ? &*entries_[id] : nullptr;
}

void
StrideScheduler::setTickets(VssdId id, double tickets)
{
    assert(tickets > 0);
    Entry &e = entry(id);
    e.stride = kStrideScale / tickets;
}

void
StrideScheduler::remove(VssdId id)
{
    if (id < entries_.size())
        entries_[id].reset();
}

double
StrideScheduler::pass(VssdId id) const
{
    const Entry *e = find(id);
    return e != nullptr ? e->pass : 0.0;
}

void
StrideScheduler::charge(VssdId id, double work)
{
    Entry &e = entry(id);
    e.pass += e.stride * work;
    if (e.pass > global_pass_)
        global_pass_ = e.pass;
}

std::size_t
StrideScheduler::pickMin(const std::vector<VssdId> &candidates) const
{
    std::size_t best = SIZE_MAX;
    double best_pass = std::numeric_limits<double>::max();
    for (std::size_t i = 0; i < candidates.size(); ++i) {
        const Entry *e = find(candidates[i]);
        // Unregistered candidates joined "now": treat as global pass so
        // newcomers neither starve nor monopolize.
        const double p = e != nullptr ? e->pass : global_pass_;
        if (p < best_pass) {
            best_pass = p;
            best = i;
        }
    }
    return best;
}

}  // namespace fleetio
