/**
 * @file
 * End-to-end experiment runner: calibrates per-tenant SLOs, builds a
 * testbed under a policy, warms up, prepares (training/profiling),
 * measures, and returns the metrics every figure of the paper is
 * derived from. It is the only code that orders a policy's phases;
 * benches and tests that need to act between them pass a step hook.
 */
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "src/harness/testbed.h"
#include "src/obs/phase_profiler.h"
#include "src/policies/fleetio_policy.h"

namespace fleetio {

/** Measured outcome for one tenant. */
struct TenantResult
{
    std::string workload;
    bool bandwidth_intensive = false;
    double avg_bw_mbps = 0.0;
    double iops = 0.0;
    SimTime p50 = 0, p95 = 0, p99 = 0, p999 = 0;
    double slo_violation = 0.0;
    std::uint64_t requests = 0;
    SimTime slo = 0;
};

/** Measured outcome of one experiment run. */
struct ExperimentResult
{
    std::string policy;
    std::vector<TenantResult> tenants;
    double avg_util = 0.0;   ///< mean device bandwidth utilization [0,1]
    double p95_util = 0.0;
    double write_amp = 1.0;
    SimTime measured = 0;

    /** Fault-injection outcome (all zero on a perfect device). */
    FaultCounters faults{};
    std::uint64_t blocks_retired = 0;
    std::uint64_t program_fail_repairs = 0;
    std::uint64_t gsb_revokes = 0;

    /** Elastic-tenancy churn outcome (all zero for static runs; see
     *  DESIGN.md §11). */
    ChurnStats churn{};

    /** Agent-supervision outcome (all zero for non-RL policies and for
     *  healthy supervised runs; see DESIGN.md §8). */
    std::uint64_t agent_trips = 0;
    std::uint64_t agent_restores = 0;
    std::uint64_t agent_reinits = 0;
    std::uint64_t agent_fallback_windows = 0;
    std::uint64_t agent_lease_releases = 0;
    std::uint64_t agent_grad_skips = 0;
    std::uint64_t agent_checkpoints = 0;  ///< on-disk saves

    /** Root-cause observability outcome (DESIGN.md §13; all zero when
     *  opts.obs.attribution is off). Verdict counts index by
     *  obs::VerdictCause. */
    std::uint64_t attr_requests = 0;
    std::uint64_t attr_sum_mismatches = 0;
    std::uint64_t slo_verdicts = 0;
    std::uint64_t verdict_self_load = 0;
    std::uint64_t verdict_gc = 0;
    std::uint64_t verdict_neighbor = 0;
    std::uint64_t verdict_tier = 0;
    std::uint64_t verdict_retry = 0;

    /** Agent drift outcome (zero when opts.obs.drift is off). */
    std::uint64_t drift_windows_scored = 0;
    std::uint64_t drift_flags = 0;
    double max_drift_psi = 0.0;

    /** Simulation events dispatched over the whole run (warm-up +
     *  prepare + measure) — the denominator of events/sec perf
     *  tracking. Deterministic for a fixed spec. */
    std::uint64_t sim_events = 0;

    /** Wall-clock phase attribution (calibrate/build/warmup/prepare/
     *  measure/collect). Nondeterministic; flows only into the opt-in
     *  BenchReport JSON "phases" block, never into stdout. */
    std::vector<obs::Phase> phases;

    /** Sum of tenant bandwidths (MB/s). */
    double aggregateBwMBps() const;

    /** Mean P99 (ns) over latency-sensitive tenants. */
    double meanLatencySensitiveP99() const;

    /** Mean bandwidth (MB/s) over bandwidth-intensive tenants. */
    double meanBandwidthIntensiveBw() const;
};

/** The points at which runExperiment calls ExperimentSpec::on_step,
 *  in the order they fire. */
enum class ExperimentStep {
    kSetUp,         ///< after Policy::setup, before the warm-up fill
    kWarmedUp,      ///< after the warm-up run, before Policy::prepare
    kPrepared,      ///< after Policy::prepare, before beforeMeasure
    kMeasureStart,  ///< measurement begun and churn started
    kMeasured,      ///< after endMeasurement, before the collect
};

/** Everything needed to run one experiment. */
struct ExperimentSpec
{
    std::vector<WorkloadKind> workloads;
    PolicyKind policy = PolicyKind::kHardwareIsolation;
    TestbedOptions opts{};
    SimTime warm_run = sec(2);   ///< steady-state settle before prepare
    SimTime measure = sec(10);   ///< measurement duration

    /** Per-tenant SLOs, one per workload. Empty = calibrate each with
     *  calibratedSlo (the paper's default). */
    std::vector<SimTime> slos{};

    /** The variant makePolicy starts from for the FleetIO kinds. */
    FleetIoPolicy::Variant fleetio{};

    /**
     * Called once at each ExperimentStep, with the run's testbed and
     * policy. A kMeasureStart hook may advance the clock (tb.run()),
     * but not past the measure's end: the measured region still ends
     * spec.measure after it began.
     */
    std::function<void(ExperimentStep, Testbed &, Policy &)> on_step{};
};

/**
 * Run one experiment. Deterministic for a fixed spec (all RNG seeds
 * derive from opts.seed), as long as on_step is.
 */
ExperimentResult runExperiment(const ExperimentSpec &spec);

/**
 * The tail-latency SLO for @p kind when hardware-isolated among
 * @p num_tenants equal tenants: the P99 latency measured in a solo
 * calibration run (paper §3.3.1 default). Results are cached per
 * (kind, share, geometry, intensity).
 *
 * Thread-safe: concurrent callers with the same key block on a single
 * calibration run (per-key once semantics) instead of duplicating it,
 * so parallel sweeps see exactly the serial cache behaviour.
 */
SimTime calibratedSlo(WorkloadKind kind, std::size_t num_tenants,
                      const TestbedOptions &opts);

namespace check {

/**
 * FNV-1a-64 over every simulated outcome of @p res, field by field
 * (struct padding is indeterminate): each tenant's fields, the
 * utilization and write amplification, `measured`, the fault, repair
 * and revoke counters, churn, the agent_* counters and sim_events.
 * Left out: the policy name, the wall-clock phases, and the obs-sink
 * counters (attr_*, slo_verdicts, verdict_*, drift_*), which differ by
 * design between runs with sinks on and off. Equal digests are the
 * bit-identity check of tests and benches.
 *
 * In namespace check because simbench keeps its own
 * outcomeDigest(const ExperimentResult &) until it adopts this one; a
 * second such function in fleetio would make its calls ambiguous.
 */
std::uint64_t outcomeDigest(const ExperimentResult &res);

}  // namespace check

}  // namespace fleetio
