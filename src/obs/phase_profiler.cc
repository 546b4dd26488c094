#include "src/obs/phase_profiler.h"

namespace fleetio::obs {

void
PhaseProfiler::begin(const std::string &name,
                     std::uint64_t sim_events_now)
{
    if (open_)
        end(sim_events_now);
    open_ = true;
    open_name_ = name;
    open_t0_ = Clock::now();
    open_ev0_ = sim_events_now;
}

void
PhaseProfiler::end(std::uint64_t sim_events_now)
{
    if (!open_)
        return;
    Phase p;
    p.name = open_name_;
    p.wall_seconds =
        std::chrono::duration<double>(Clock::now() - open_t0_).count();
    p.sim_events =
        sim_events_now >= open_ev0_ ? sim_events_now - open_ev0_ : 0;
    phases_.push_back(std::move(p));
    open_ = false;
}

double
PhaseProfiler::totalSeconds() const
{
    double s = 0.0;
    for (const Phase &p : phases_)
        s += p.wall_seconds;
    return s;
}

}  // namespace fleetio::obs
