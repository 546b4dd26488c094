#include "src/harness/experiment.h"

#include <atomic>
#include <initializer_list>
#include <map>
#include <memory>
#include <mutex>
#include <tuple>

#include "src/sim/fnv.h"
#include "src/virt/channel_allocator.h"

namespace fleetio {

namespace {

/** One calibrated-SLO cache entry. Heap-boxed by SloCache so map
 *  rebalancing never moves the once_flag. */
struct SloEntry
{
    std::once_flag once;
    SimTime slo = 0;
};

using SloKey = std::tuple<int, std::size_t, std::uint32_t,
                          std::uint32_t, long>;

/**
 * The only cross-cell state in a parallel sweep: a per-key
 * once-calibration cache. The mutex only guards the map lookup; the
 * (multi-second) solo simulation runs under the entry's once_flag, so
 * concurrent sweep cells needing the same SLO block on one
 * calibration instead of duplicating it, while cells needing
 * *different* SLOs calibrate concurrently.
 */
class SloCache
{
  public:
    SloEntry *intern(const SloKey &key)
    {
        std::lock_guard<std::mutex> g(mu_);
        auto &slot = entries_[key];
        if (!slot)
            slot = std::make_unique<SloEntry>();
        return slot.get();
    }

  private:
    std::mutex mu_;
    std::map<SloKey, std::unique_ptr<SloEntry>> entries_;  // guarded by mu_
};

}  // namespace

double
ExperimentResult::aggregateBwMBps() const
{
    double s = 0.0;
    for (const auto &t : tenants)
        s += t.avg_bw_mbps;
    return s;
}

double
ExperimentResult::meanLatencySensitiveP99() const
{
    double s = 0.0;
    int n = 0;
    for (const auto &t : tenants) {
        if (!t.bandwidth_intensive) {
            s += double(t.p99);
            ++n;
        }
    }
    return n ? s / n : 0.0;
}

double
ExperimentResult::meanBandwidthIntensiveBw() const
{
    double s = 0.0;
    int n = 0;
    for (const auto &t : tenants) {
        if (t.bandwidth_intensive) {
            s += t.avg_bw_mbps;
            ++n;
        }
    }
    return n ? s / n : 0.0;
}

SimTime
calibratedSlo(WorkloadKind kind, std::size_t num_tenants,
              const TestbedOptions &opts)
{
    static SloCache cache;
    const SloKey key{int(kind), num_tenants,
                     opts.geo.blocks_per_chip,
                     opts.geo.pages_per_block,
                     long(opts.intensity * 1000)};
    SloEntry *entry = cache.intern(key);
    std::call_once(entry->once, [&]() {
        // Solo run on a hardware-isolated share of the device.
        TestbedOptions solo = opts;
        solo.seed = 0xCA11B7A7Eull;  // calibration uses its own seed
        // Calibration is a throwaway inner run: never trace it, and
        // keep its cache entry independent of the caller's obs knobs.
        solo.obs = {};
        // SLOs describe the *healthy* device: calibrate fault-free and
        // crash-free so an injected-fault sweep or a crash plan is
        // measured against a fixed bar (the cache key ignores both).
        solo.faults = FaultConfig{};
        solo.crash = {};
        Testbed tb(solo);
        const auto &geo = tb.device().geometry();
        const auto split =
            ChannelAllocator::equalSplit(geo, num_tenants);
        const std::uint64_t quota = geo.totalBlocks() / num_tenants;
        Vssd &v = tb.addTenant(kind, split[0], quota, kTimeNever);
        tb.warmupFill();
        tb.startWorkloads();
        tb.run(sec(1));
        tb.beginMeasurement();
        tb.run(sec(4));
        tb.endMeasurement();
        const SimTime p99 = v.latency().quantile(0.99);
        // Guard against degenerate calibration (no completed I/O).
        entry->slo = p99 > 0 ? p99 : msec(10);
    });
    return entry->slo;
}

ExperimentResult
runExperiment(const ExperimentSpec &spec)
{
    // FLEETIO_TRACE=1 turns on the full obs pipeline for any run that
    // reaches this harness (benches, examples) without recompiling;
    // explicit spec.opts.obs settings are honoured either way.
    TestbedOptions opts = spec.opts;
    const bool trace_env = obs::traceEnabledFromEnv();
    if (trace_env)
        opts.obs = {.trace = true, .metrics = true, .attribution = true,
                    .drift = true};

    obs::PhaseProfiler prof;
    prof.begin("calibrate");

    // 1. Per-tenant SLOs: the spec's, or hardware-isolated calibration.
    std::vector<SimTime> slos = spec.slos;
    if (slos.empty()) {
        for (WorkloadKind kind : spec.workloads) {
            slos.push_back(
                calibratedSlo(kind, spec.workloads.size(), spec.opts));
        }
    }

    // 2. Build the testbed under the policy.
    prof.begin("build");
    Testbed tb(opts);
    auto policy = makePolicy(spec.policy, spec.fleetio);
    policy->setup(tb, spec.workloads, slos);
    // Each step's hook runs after the profiler opens the next phase.
    const auto step = [&](ExperimentStep s) {
        if (spec.on_step)
            spec.on_step(s, tb, *policy);
    };

    // 3. Warm up: pre-fill capacity, settle into steady state.
    prof.begin("warmup", tb.eq().dispatched());
    step(ExperimentStep::kSetUp);
    tb.warmupFill();
    tb.startWorkloads();
    tb.run(spec.warm_run);

    // 4. Policy preparation (RL pre-training, DNN profiling, ...).
    prof.begin("prepare", tb.eq().dispatched());
    step(ExperimentStep::kWarmedUp);
    policy->prepare(tb);

    // 5. Measure.
    prof.begin("measure", tb.eq().dispatched());
    step(ExperimentStep::kPrepared);
    policy->beforeMeasure(tb);
    tb.beginMeasurement();
    // Elastic churn (if configured) plays out inside the measured
    // region; a no-op for static runs.
    tb.startChurn();
    // The hook may run part of the measure itself. Testbed::run ends at
    // an absolute time, so the split run is the same run.
    const SimTime measure_end = tb.eq().now() + spec.measure;
    step(ExperimentStep::kMeasureStart);
    tb.run(measure_end - tb.eq().now());
    tb.endMeasurement();

    // 6. Collect.
    prof.begin("collect", tb.eq().dispatched());
    step(ExperimentStep::kMeasured);
    ExperimentResult res;
    res.policy = policy->name();
    res.measured = spec.measure;
    res.sim_events = tb.eq().dispatched();
    res.avg_util = tb.avgUtilization();
    res.p95_util = tb.p95Utilization();
    res.write_amp = tb.device().writeAmplification();
    res.faults = tb.faultCounters();
    res.blocks_retired = tb.device().totalRetiredBlocks();
    res.gsb_revokes = tb.gsb().revokedCount();
    if (tb.elastic() != nullptr)
        res.churn = tb.elastic()->stats();
    for (auto *v : tb.vssds().active()) {
        res.program_fail_repairs += v->ftl().programFailRepairs();
    }
    for (auto *v : tb.vssds().active()) {
        TenantResult t;
        t.workload = tb.workload(v->id()).name();
        t.bandwidth_intensive =
            isBandwidthIntensive(tb.tenantKind(v->id()));
        t.avg_bw_mbps = v->bandwidth().totalMBps(spec.measure);
        t.iops = double(v->latency().totalCount()) /
                 toSeconds(spec.measure);
        t.p50 = v->latency().quantile(0.50);
        t.p95 = v->latency().quantile(0.95);
        t.p99 = v->latency().quantile(0.99);
        t.p999 = v->latency().quantile(0.999);
        t.slo_violation = v->latency().sloViolation();
        t.requests = v->latency().totalCount();
        t.slo = v->config().slo;
        res.tenants.push_back(std::move(t));
    }
    if (obs::AttributionHub *hub = tb.attribution()) {
        res.attr_requests = hub->requests();
        res.attr_sum_mismatches = hub->sumMismatches();
        res.slo_verdicts = hub->verdicts().size();
        res.verdict_self_load =
            hub->verdictCount(obs::VerdictCause::kSelfLoad);
        res.verdict_gc = hub->verdictCount(obs::VerdictCause::kGc);
        res.verdict_neighbor =
            hub->verdictCount(obs::VerdictCause::kNeighbor);
        res.verdict_tier =
            hub->verdictCount(obs::VerdictCause::kDegradationTier);
        res.verdict_retry =
            hub->verdictCount(obs::VerdictCause::kFaultRetry);
    }
    if (obs::DriftMonitor *drift = tb.drift()) {
        res.drift_windows_scored = drift->windowsScored();
        res.drift_flags = drift->flaggedWindows();
        res.max_drift_psi = drift->maxPsi();
    }
    policy->collectStats(res);

    // Env-enabled runs drop their artifacts next to the bench output;
    // the atomic sequence keeps parallel-harness filenames unique.
    if (trace_env) {
        static std::atomic<std::uint64_t> artifact_seq{0};
        const std::uint64_t n =
            artifact_seq.fetch_add(1, std::memory_order_relaxed);
        tb.obs()->writeArtifacts(obs::traceDirFromEnv() + "/fleetio_run" +
                                 std::to_string(n));
    }

    prof.end(tb.eq().dispatched());
    res.phases = prof.phases();
    return res;
}

std::uint64_t
check::outcomeDigest(const ExperimentResult &res)
{
    std::uint64_t h = kFnv1aOffset;
    const auto add = [&h](const auto &v) { h = fnv1a(&v, sizeof v, h); };
    const auto addAll = [&add](std::initializer_list<std::uint64_t> vs) {
        for (std::uint64_t v : vs)
            add(v);
    };
    add(res.tenants.size());
    for (const TenantResult &t : res.tenants) {
        add(t.workload.size());
        h = fnv1a(t.workload.data(), t.workload.size(), h);
        add(t.bandwidth_intensive);
        add(t.avg_bw_mbps);
        add(t.iops);
        addAll({t.p50, t.p95, t.p99, t.p999});
        add(t.slo_violation);
        addAll({t.requests, t.slo});
    }
    add(res.avg_util);
    add(res.p95_util);
    add(res.write_amp);
    add(res.measured);
    const FaultCounters &f = res.faults;
    addAll({f.read_retries, f.reads_retried, f.program_failures,
            f.erase_failures, f.slowdown_windows, res.blocks_retired,
            res.program_fail_repairs, res.gsb_revokes});
    const ChurnStats &c = res.churn;
    addAll({c.arrivals, c.admitted, c.retries, c.rejected,
            c.removals_requested, c.removals_completed, c.tier_stepdowns,
            c.tier_recoveries});
    add(c.max_attempts_observed);
    addAll({res.agent_trips, res.agent_restores, res.agent_reinits,
            res.agent_fallback_windows, res.agent_lease_releases,
            res.agent_grad_skips, res.agent_checkpoints, res.sim_events});
    return h;
}

}  // namespace fleetio
