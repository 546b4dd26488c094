#include "src/stats/latency_tracker.h"

#include <algorithm>
#include <cmath>

namespace fleetio {

LatencyTracker::LatencyTracker(SimTime slo) : slo_(slo)
{
    // record() sits on the per-request completion path: give the
    // lifetime sample vector a large first block so its growth is
    // amortized across many windows.
    all_.reserve(1u << 16);
}

void
LatencyTracker::record(SimTime latency)
{
    ++window_count_;
    window_sum_ns_ += double(latency);
    all_.push_back(latency);
    all_sorted_ = false;
    if (latency > slo_) {
        ++window_violations_;
        ++total_violations_;
    }
}

double
LatencyTracker::windowMeanNs() const
{
    if (window_count_ == 0)
        return 0.0;
    return window_sum_ns_ / double(window_count_);
}

double
LatencyTracker::windowSloViolation() const
{
    if (window_count_ == 0)
        return 0.0;
    return double(window_violations_) / double(window_count_);
}

void
LatencyTracker::rollWindow()
{
    window_count_ = 0;
    window_sum_ns_ = 0.0;
    window_violations_ = 0;
}

SimTime
LatencyTracker::quantile(double q) const
{
    if (all_.empty())
        return 0;
    q = std::clamp(q, 0.0, 1.0);
    if (!all_sorted_) {
        std::sort(all_.begin(), all_.end());
        all_sorted_ = true;
    }
    const std::size_t rank =
        q <= 0.0 ? 0
                 : std::min(all_.size() - 1,
                            std::size_t(std::ceil(q * double(all_.size()))) - 1);
    return all_[rank];
}

double
LatencyTracker::sloViolation() const
{
    if (all_.empty())
        return 0.0;
    return double(total_violations_) / double(all_.size());
}

void
LatencyTracker::reset()
{
    rollWindow();
    all_.clear();
    all_sorted_ = false;
    total_violations_ = 0;
}

}  // namespace fleetio
