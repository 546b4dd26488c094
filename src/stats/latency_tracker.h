/**
 * @file
 * Per-vSSD latency accounting: decision-window counters for the RL
 * state plus every sample of the run for exact end-of-run percentiles.
 */
#pragma once

#include <cstdint>
#include <vector>

#include "src/sim/types.h"

namespace fleetio {

/**
 * Tracks request latencies for one vSSD.
 *
 * The tracker serves two consumers: the RL state extractor, which needs
 * Avg_Lat and SLO_Vio over the current decision window, and the harness,
 * which needs exact lifetime tail percentiles (P95/P99/P99.9). The window
 * is three counters; every sample goes straight into the lifetime vector,
 * so each latency is stored once.
 */
class LatencyTracker
{
  public:
    /** @param slo latency SLO threshold; requests above it violate. */
    explicit LatencyTracker(SimTime slo = kTimeNever);

    SimTime slo() const { return slo_; }

    /** Record a completed request latency. */
    void record(SimTime latency);

    /** Number of requests in the current window. */
    std::uint64_t windowCount() const { return window_count_; }

    /** Mean latency of the current window (ns); 0 when empty. */
    double windowMeanNs() const;

    /** Fraction of window requests violating the SLO, in [0,1]. */
    double windowSloViolation() const;

    /** Close the window: zero its counters. */
    void rollWindow();

    /** Lifetime request count, the open window included. */
    std::uint64_t totalCount() const { return all_.size(); }

    /** Exact lifetime quantile over every retained sample (ns). */
    SimTime quantile(double q) const;

    /** Lifetime SLO violation fraction in [0,1]. */
    double sloViolation() const;

    /** Drop all state (lifetime + window). */
    void reset();

  private:
    SimTime slo_;
    std::uint64_t window_count_ = 0;
    // Summed in record order from 0.0, so the mean is the same double
    // a pass over the window's samples would give.
    double window_sum_ns_ = 0.0;
    std::uint64_t window_violations_ = 0;

    // Lifetime: exact samples retained for precise tails in experiments.
    mutable std::vector<SimTime> all_;
    mutable bool all_sorted_ = false;
    std::uint64_t total_violations_ = 0;
};

}  // namespace fleetio
