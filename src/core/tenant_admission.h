/**
 * @file
 * *Tenant*-level admission control (DESIGN.md §11): decides whether an
 * arriving vSSD is accepted, queued with bounded exponential backoff,
 * or rejected, based on a learned per-class demand forecast and the
 * fleet's current SLO / capacity headroom.
 *
 * Not to be confused with AdmissionControl (src/core/
 * admission_control.h), which batches individual RL *actions* per
 * paper §3.5. This class gates *tenants* at the fleet boundary; the
 * two compose.
 *
 * The controller is deliberately pure: decide() folds a demand and a
 * snapshot of current conditions into a decision with no side effects
 * beyond counters and the forecaster's EWMA state, so the policy is
 * unit-testable and deterministic. The ElasticTenancyManager owns the
 * actual arrival queue, retry timers, and provisioning.
 */
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/sim/types.h"

namespace fleetio {

/** Tunables of tenant admission (DESIGN.md §11 state machine). */
struct TenantAdmissionConfig
{
    /** Queued arrivals beyond this are rejected outright. */
    std::size_t max_queue = 8;

    /** Retry attempts granted to a queued arrival before rejection. */
    int max_retries = 6;

    /** First retry delay; doubles on every further attempt. */
    SimTime backoff_base = msec(500);

    /** Upper bound on any single retry delay. */
    SimTime backoff_cap = sec(8);

    /** Admit only while the mean per-window SLO-violation fraction
     *  across running tenants is at or below this. */
    double slo_headroom = 0.25;

    /** Admit only while the device-wide free-block ratio is at or
     *  above this (capacity headroom for the newcomer's GC). */
    double device_free_floor = 0.05;

    /** EWMA learning rate of the per-class demand forecaster. */
    double forecast_ewma = 0.3;

    /**
     * Demand-fit overcommit: the forecast bandwidth may exceed the
     * granted channels' guaranteed bandwidth by this factor before the
     * arrival is considered infeasible (harvesting absorbs moderate
     * overcommit; unbounded overcommit wrecks everyone's SLO).
     */
    double overcommit = 1.5;

    /** @return empty string when valid, else the first problem. */
    std::string validate() const;
};

/** What an arriving tenant asks for. */
struct TenantDemand
{
    /** Forecast bucket (workload kind ordinal); arrivals of the same
     *  class share one learned demand estimate. */
    int demand_class = 0;

    /** Tenant-declared bandwidth demand (MB/s); the forecaster blends
     *  this with what earlier tenants of the class actually drew. */
    double declared_mbps = 0.0;

    std::uint32_t channels = 0;      ///< requested channel count
    std::uint64_t quota_blocks = 0;  ///< requested block quota
    SimTime slo = kTimeNever;        ///< requested tail-latency SLO
};

/** Fleet conditions sampled at decision time. */
struct AdmissionSnapshot
{
    std::uint32_t free_channels = 0;   ///< unowned channels
    double per_channel_mbps = 0.0;     ///< guaranteed BW per channel
    double device_free_ratio = 1.0;    ///< device free-block ratio
    double mean_slo_violation = 0.0;   ///< mean window SLO-vio fraction
    std::size_t queued_arrivals = 0;   ///< arrivals already waiting
};

enum class AdmissionDecision { kAccept, kQueue, kReject };

/** The decision policy plus the learned demand forecaster. */
class TenantAdmissionController
{
  public:
    explicit TenantAdmissionController(const TenantAdmissionConfig &cfg);

    /**
     * Decide an arrival's fate on its @p attempt-th try (0-based).
     * Accept requires channels, capacity headroom, SLO headroom, and a
     * forecast demand that fits the grant; otherwise the arrival is
     * queued while the queue has room and retries remain, else
     * rejected.
     */
    AdmissionDecision decide(const TenantDemand &demand,
                             const AdmissionSnapshot &snap, int attempt);

    /**
     * Feed one running tenant's observed window bandwidth into its
     * class's EWMA forecast — the "learned" half of the forecaster.
     */
    void observeDemand(int demand_class, double observed_mbps);

    /**
     * Forecast an arrival's bandwidth demand: the class EWMA once the
     * class has history, the declared demand until then.
     */
    double forecastMBps(int demand_class, double declared_mbps) const;

    /** Bounded doubling backoff: min(base << attempt, cap). */
    SimTime backoffDelay(int attempt) const;

    // --- Telemetry -------------------------------------------------------
    std::uint64_t accepted() const { return accepted_; }
    std::uint64_t queuedDecisions() const { return queued_; }
    std::uint64_t rejected() const { return rejected_; }

  private:
    struct ClassForecast
    {
        double ewma_mbps = 0.0;
        std::uint64_t samples = 0;
    };

    const ClassForecast *forecast(int demand_class) const;

    TenantAdmissionConfig cfg_;
    std::vector<ClassForecast> forecasts_;  // [demand_class]
    std::uint64_t accepted_ = 0;
    std::uint64_t queued_ = 0;
    std::uint64_t rejected_ = 0;
};

}  // namespace fleetio
