/**
 * @file
 * Robustness under chaos: the FleetIO stack damaged four ways, one
 * section each.
 *
 *  - Fault tolerance: injected read retries, program/erase failures
 *    and chip slow-downs at four rates, normalized to the fault-free
 *    run. GC retirement, FTL program-repair and donor-pressure gSB
 *    revokes must absorb the damage.
 *  - Tenant churn (DESIGN.md §11): hot vSSD add/remove with admission
 *    control and G-state degradation, crossed with faults and bursty
 *    arrival storms.
 *  - Crash recovery (DESIGN.md §12): power loss by sim time or inside
 *    a GC / churn phase, crossed with faults, durable-metadata damage
 *    (torn checkpoint slot, torn journal tail) and churn, with RL
 *    agents checkpointing to disk.
 *  - Agent resilience (DESIGN.md §8): agents broken mid-run (NaN
 *    weights, divergent reward spikes) under supervision and as an
 *    unsupervised control.
 *
 * Every cell goes through run(), and after each run the invariant
 * auditor (src/check/audit.h) walks every tenant's map and the
 * device's block counters. Each section prints its title line, its
 * tables and its PASS/FAIL verdicts; any FAIL makes the exit code 1.
 *
 * --smoke shrinks training and measurement for the ctest registration.
 */
#include <algorithm>
#include <cctype>
#include <cstring>
#include <filesystem>
#include <limits>
#include <tuple>

#include "bench/bench_common.h"
#include "src/check/audit.h"
#include "src/policies/fleetio_policy.h"
#include "src/virt/channel_allocator.h"

using namespace fleetio;
using namespace fleetio::bench;

namespace {

using K = WorkloadKind;

struct Shape
{
    int train_windows = 600;
    SimTime warm = sec(2);
    SimTime measure = measureDuration();
};

enum class Inject { kNone, kNaNWeights, kRewardSpike };

/// The agent cells' LS tenant, and the BI tenant whose agent breaks.
constexpr VssdId kPeer = 0;
constexpr VssdId kVictim = 1;

/** One scenario: FleetIO on a workload pair with any mix of damage. */
struct Cell
{
    std::string label;
    std::vector<WorkloadKind> workloads = {K::kVdiWeb, K::kTeraSort};
    bool supervise = true;  ///< agent supervision layer
    FaultConfig faults{};
    TestbedOptions::ChurnOptions churn{};
    TestbedOptions::CrashOptions crash{};
    /// Directory for the agents' on-disk snapshots, which crash
    /// recovery reloads; empty = none. run() removes it once the
    /// outcome is collected.
    std::string snapshot_dir{};
    double warmup_fill = 0.0;  ///< 0 = testbed default
    double intensity = 0.0;    ///< 0 = testbed default
    Inject inject = Inject::kNone;
};

/** What any section reads from one run: its result, and what the
 *  step hook read off the testbed and the controller. */
struct Outcome
{
    ExperimentResult res;
    /// Per active tenant, in VssdManager::active() order.
    std::vector<std::uint64_t> bytes;
    int max_retries_allowed = 0;
    int end_level = 0;
    std::size_t end_queued = 0;
    RecoveryReport report{};
    SupervisionStats stats{};
    std::uint32_t held_before = 0;  ///< staged lease, pre-injection
    std::uint32_t held_after = 0;   ///< one window post-injection
    bool victim_healthy = true;
    std::string audit;  ///< first invariant violation; "" = none
    bool no_wedged_vssd = true;
    bool removed_quiesced = true;
};

/** Every field of @p o besides its result, so sameOutcome misses
 *  none. */
auto
fields(const Outcome &o)
{
    const RecoveryReport &r = o.report;
    const SupervisionStats &s = o.stats;
    return std::tie(
        o.bytes, o.max_retries_allowed, o.end_level, o.end_queued,
        r.recovered, r.crash_time, r.rpo_ns, r.rto_ns, r.scanned_pages,
        r.replayed_records, r.torn_records, r.restored_mappings,
        r.checkpoint_fallback, r.checkpoint_lost, r.leases_reconciled,
        r.agents_restored, r.agents_probation, r.map_matches_shadow,
        r.hbt_matches_shadow, r.acked_lost, s.trips, s.restores,
        s.reinits, s.fallback_windows, s.lease_releases, s.snapshots,
        s.grad_skips, s.disk_checkpoints, s.drift_flags, o.held_before,
        o.held_after, o.victim_healthy, o.audit, o.no_wedged_vssd,
        o.removed_quiesced);
}

bool
sameOutcome(const Outcome &a, const Outcome &b)
{
    return check::outcomeDigest(a.res) == check::outcomeDigest(b.res) &&
           fields(a) == fields(b);
}

/** Mean SLO violation over the tenants of @p res. */
double
meanSloViolation(const ExperimentResult &res)
{
    double s = 0.0;
    for (const TenantResult &t : res.tenants)
        s += t.slo_violation;
    return res.tenants.empty() ? 0.0 : s / double(res.tenants.size());
}

/** The injection of an agent cell, a quarter into the measured
 *  region. */
void
inject(Inject what, Testbed &tb, FleetIoController &ctl, Outcome &out)
{
    const SimTime window = tb.options().window;
    if (what == Inject::kNaNWeights) {
        // Stage a real harvest lease so the quarantine's forced
        // release is observable, then poison the weights.
        const double lease_bw =
            tb.device().geometry().channelBandwidthMBps() * 4;
        tb.gsb().makeHarvestable(kPeer, lease_bw);
        tb.gsb().harvest(kVictim, lease_bw);
        out.held_before = tb.gsb().heldChannels(kVictim);
        auto &w = ctl.agent(kVictim)->policy().params().rawValues();
        for (std::size_t k = 0; k < w.size(); k += 37)
            w[k] = std::numeric_limits<double>::quiet_NaN();
        // One decision window (plus slack for the tick itself): the
        // watchdog must trip and release the lease within it.
        tb.run(window + window / 10);
        out.held_after = tb.gsb().heldChannels(kVictim);
        return;
    }
    ctl.setRewardHook([](VssdId id, double r) {
        return id == kVictim ? 1e9 : r;
    });
    tb.run(3 * window);
    ctl.setRewardHook(nullptr);
}

/** The outcome fields a result does not carry, read once the measure
 *  has ended. */
void
collect(Testbed &tb, FleetIoController &ctl, Outcome &out)
{
    out.report = tb.recoveryReport();
    out.stats = ctl.supervisionStats();
    if (const AgentSupervisor *sup = ctl.supervisor()) {
        out.victim_healthy = sup->state(kVictim) ==
                             AgentSupervisor::AgentState::kHealthy;
    }
    for (auto *v : tb.vssds().active()) {
        out.bytes.push_back(v->bandwidth().totalBytes());
        if (out.audit.empty())
            out.audit = check::auditMappings(tb.device(), v->ftl());
        // A wedged vSSD: zero free quota with GC unable to help. The
        // degradation machinery (retire + re-trigger + revoke) must
        // keep every tenant above the floor.
        if (v->ftl().freeQuotaRatio() <= 0.0 && v->ftl().needsGc() &&
            !v->gc().active()) {
            out.no_wedged_vssd = false;
        }
    }
    if (out.audit.empty())
        out.audit = check::auditBlocks(tb.device());
    if (ElasticTenancyManager *el = tb.elastic()) {
        out.max_retries_allowed = el->config().admission.max_retries;
        out.end_level = el->pressureLevel();
        out.end_queued = el->queuedArrivals();
    }
    // Every removed tenant must be fully quiesced: no request of its
    // in flight anywhere in the scheduler.
    for (VssdId id = 0; id < VssdId(tb.vssds().size()); ++id) {
        if (!tb.vssds().alive(id) && !tb.scheduler().tenantQuiesced(id))
            out.removed_quiesced = false;
    }
}

Outcome
run(const Cell &cell, const Shape &shape)
{
    ExperimentSpec spec = makeSpec(cell.workloads, PolicyKind::kFleetIo);
    spec.warm_run = shape.warm;
    spec.measure = shape.measure;
    spec.opts.faults = cell.faults;
    spec.opts.churn = cell.churn;
    spec.opts.crash = cell.crash;
    if (cell.warmup_fill > 0.0)
        spec.opts.warmup_fill = cell.warmup_fill;
    if (cell.intensity > 0.0)
        spec.opts.intensity = cell.intensity;
    spec.fleetio.train_windows = shape.train_windows;
    spec.fleetio.config.supervisor.enabled = cell.supervise;

    Outcome out;
    spec.on_step = [&](ExperimentStep step, Testbed &tb, Policy &policy) {
        FleetIoController &ctl =
            *static_cast<FleetIoPolicy &>(policy).controller();
        if (step == ExperimentStep::kSetUp && !cell.snapshot_dir.empty()) {
            // Recovery reloads agents from their last on-disk snapshot;
            // wire the controller into the testbed and give it a store
            // per agent.
            std::error_code ec;
            std::filesystem::remove_all(cell.snapshot_dir, ec);
            std::filesystem::create_directories(cell.snapshot_dir, ec);
            tb.setController(&ctl);
            ctl.setCheckpointDir(cell.snapshot_dir,
                                 /*interval_windows=*/2);
        } else if (step == ExperimentStep::kMeasureStart &&
                   cell.inject != Inject::kNone) {
            tb.run(spec.measure / 4);
            inject(cell.inject, tb, ctl, out);
        } else if (step == ExperimentStep::kMeasured) {
            collect(tb, ctl, out);
        }
    };
    out.res = runExperiment(spec);
    if (!cell.snapshot_dir.empty()) {
        std::error_code ec;
        std::filesystem::remove_all(cell.snapshot_dir, ec);
    }
    return out;
}

/** Prints one PASS/FAIL line per check; ok turns false on any FAIL. */
struct Verdicts
{
    bool ok = true;

    /** @p why, when not empty, says where the check broke. */
    void operator()(bool pass, const std::string &what,
                    const std::string &why = "")
    {
        std::cout << (pass ? "PASS: " : "FAIL: ") << what
                  << (why.empty() ? "" : " (" + why + ")") << '\n';
        ok = ok && pass;
    }
};

/// The "medium" fault rates, shared by every section that injects
/// faults.
const FaultConfig kMediumFaults{
    .read_retry_prob = 1e-2, .program_fail_prob = 1e-3,
    .erase_fail_prob = 1e-2, .wear_error_growth = 1e-5,
    .chip_slowdown_prob = 1e-3};

/** A per-cell directory for agent snapshots (cells run concurrently,
 *  so no two may share one). */
std::string
snapshotDir(const std::string &label)
{
    std::string slug;
    for (char c : label)
        slug += (std::isalnum(static_cast<unsigned char>(c)) != 0) ? c
                                                                   : '_';
    return (std::filesystem::temp_directory_path() /
            ("fleetio_bench_chaos_" + slug))
        .string();
}

/** One section: its cells, the cells it runs a second time to check
 *  determinism, and the printer of its tables and verdicts. */
struct Section
{
    std::string title;
    Shape shape;
    std::vector<Cell> cells;
    std::vector<std::size_t> reruns;
    /// Prints the section from the outcomes of its cells followed by
    /// those of its reruns, records them in the report, and returns
    /// whether every verdict passed. (The agents section also runs its
    /// SoftwareIsolation reference here.)
    bool (*print)(const Section &, const std::vector<Outcome> &,
                  BenchReport &);
};

// ------------------------------------------------------------- faults

std::vector<Cell>
faultCells()
{
    const FaultConfig low{
        .read_retry_prob = 1e-3, .program_fail_prob = 1e-4,
        .erase_fail_prob = 1e-3, .wear_error_growth = 1e-6,
        .chip_slowdown_prob = 1e-4};
    const FaultConfig high{
        .read_retry_prob = 5e-2, .program_fail_prob = 5e-3,
        .erase_fail_prob = 5e-2, .wear_error_growth = 1e-4,
        .chip_slowdown_prob = 5e-3};
    return {{.label = "none"},
            {.label = "low", .faults = low},
            {.label = "medium", .faults = kMediumFaults},
            {.label = "high", .faults = high}};
}

/** Each fault level normalized to the fault-free run, then two
 *  integrity verdicts: no mapping lost, no vSSD wedged. */
bool
printFaults(const Section &s, const std::vector<Outcome> &outs,
            BenchReport &report)
{
    const ExperimentResult &base = outs[0].res;
    Table t({"faults", "util", "util/base", "BW (MB/s)", "BW/base",
             "LS P99", "P99/base", "SLO vio", "WA"});
    Table f({"faults", "rd-retries", "pgm-fail", "repaired",
             "erase-fail", "retired", "slowdowns", "revokes"});
    for (std::size_t i = 0; i < s.cells.size(); ++i) {
        const ExperimentResult &o = outs[i].res;
        const std::string &l = s.cells[i].label;
        const double agg_bw = o.aggregateBwMBps();
        const double ls_p99 = o.meanLatencySensitiveP99();
        t.addRow({l, fmtPercent(o.avg_util),
                  fmtDouble(normalizeTo(o.avg_util, base.avg_util)),
                  fmtDouble(agg_bw, 1),
                  fmtDouble(normalizeTo(agg_bw, base.aggregateBwMBps())),
                  fmtLatencyMs(SimTime(ls_p99)),
                  fmtDouble(normalizeTo(ls_p99,
                                        base.meanLatencySensitiveP99())),
                  fmtPercent(meanSloViolation(o)),
                  fmtDouble(o.write_amp)});
        f.addRow({l, std::to_string(o.faults.read_retries),
                  std::to_string(o.faults.program_failures),
                  std::to_string(o.program_fail_repairs),
                  std::to_string(o.faults.erase_failures),
                  std::to_string(o.blocks_retired),
                  std::to_string(o.faults.slowdown_windows),
                  std::to_string(o.gsb_revokes)});
        report.addCell("faults/" + l,
                       {{"avg_util", o.avg_util},
                        {"agg_bw_mbps", agg_bw},
                        {"ls_p99_ns", ls_p99},
                        {"slo_violation", meanSloViolation(o)},
                        {"write_amp", o.write_amp},
                        {"blocks_retired", double(o.blocks_retired)},
                        {"mappings_intact",
                         outs[i].audit.empty() ? 1.0 : 0.0}},
                       o.sim_events);
    }
    t.print(std::cout);
    std::cout << '\n';
    f.print(std::cout);

    Verdicts verdict;
    for (std::size_t i = 0; i < s.cells.size(); ++i) {
        const std::string at = "at level '" + s.cells[i].label + "'";
        if (!outs[i].audit.empty()) {
            std::cout << '\n';
            verdict(false, "lost LPA mappings " + at, outs[i].audit);
        }
        if (!outs[i].no_wedged_vssd) {
            std::cout << '\n';
            verdict(false, "vSSD wedged at zero free quota " + at);
        }
    }
    if (verdict.ok) {
        std::cout << '\n';
        verdict(true,
                "no lost mappings, no wedged vSSD at any fault level.");
    }
    std::cout << "Expected shape: graceful degradation — util/BW dip "
                 "and P99 grows with the fault rate, while every run "
                 "completes with intact metadata.\n";
    report.setMetric("fault_tolerance.integrity_ok",
                     verdict.ok ? 1.0 : 0.0);
    return verdict.ok;
}

// -------------------------------------------------------------- churn

ChurnEvent
arrival(SimTime at, WorkloadKind kind, std::uint32_t channels,
        const SsdGeometry &geo, SimTime slo)
{
    ChurnEvent ev;
    ev.at = at;
    ev.kind = ChurnEvent::Kind::kArrive;
    ev.workload = kind;
    ev.channels = channels;
    ev.quota_blocks = ChannelAllocator::quotaForChannels(geo, channels);
    ev.declared_mbps = geo.channelBandwidthMBps() * channels;
    ev.slo = slo;
    return ev;
}

/** Churn on the fully carved device (2 x 8 channels): every arrival
 *  must wait for a removal's drain-then-scrub to return channels,
 *  which is what exercises the backoff path. */
TestbedOptions::ChurnOptions
churnOptions(bool storm, bool aggressive_tiers)
{
    const ExperimentSpec spec =
        makeSpec({K::kVdiWeb, K::kTeraSort}, PolicyKind::kFleetIo);
    const SsdGeometry &geo = spec.opts.geo;
    const SimTime slo =
        calibratedSlo(K::kYcsbB, spec.workloads.size(), spec.opts);
    TestbedOptions::ChurnOptions churn;
    auto &sched = churn.schedule;
    sched.push_back({.at = msec(200),
                     .kind = ChurnEvent::Kind::kRemove,
                     .remove_id = 1});
    if (storm) {
        // Storm: one departure, then four near-simultaneous arrivals
        // racing for its 8 channels. Kinds alternate so the winners
        // include a bandwidth-intensive tenant and device utilization
        // survives the hog's departure.
        for (int i = 0; i < 4; ++i) {
            const WorkloadKind k = i % 2 == 0 ? K::kMlPrep : K::kYcsbB;
            sched.push_back(arrival(msec(300 + 10 * i), k, 4, geo, slo));
        }
    } else {
        // Spaced: a departure, then two arrivals.
        sched.push_back(arrival(msec(400), K::kMlPrep, 4, geo, slo));
        sched.push_back(arrival(sec(2), K::kYcsbB, 4, geo, slo));
    }
    auto &el = churn.elastic;
    el.pressure_interval = spec.opts.window;
    // Retries must fully resolve (admit or reject) within the measured
    // region: 8 attempts at 100 ms doubling capped at 800 ms span
    // ~4.7 s, inside even the smoke measurement.
    el.admission.backoff_base = msec(100);
    el.admission.backoff_cap = msec(800);
    el.admission.max_retries = 8;
    if (aggressive_tiers) {
        el.degrade_slo_1 = 0.01;
        el.degrade_slo_2 = 0.05;
        el.degrade_slo_3 = 0.20;
        el.recover_evals = 5;
    }
    return churn;
}

std::vector<Cell>
churnCells()
{
    const auto spaced = churnOptions(false, false);
    const auto storm = churnOptions(true, true);
    return {{.label = "static"},
            {.label = "churn", .churn = spaced},
            {.label = "churn+faults", .faults = kMediumFaults,
             .churn = spaced},
            {.label = "storm+tiers", .churn = storm},
            {.label = "storm+tiers+faults", .faults = kMediumFaults,
             .churn = storm}};
}

/**
 * Verdicts per churn cell:
 *   no-wedge    — every requested removal drains, scrubs, and returns
 *                 its channels; no vSSD sticks at zero free quota,
 *   integrity   — surviving tenants' maps audit clean even when
 *                 removals race program/erase faults,
 *   admission   — queued arrivals respect the bounded retry budget,
 *   SLO tiers   — graceful degradation engages under pressure and
 *                 never recovers more levels than it stepped down,
 *   utilization — churn keeps the device above a floor fraction of the
 *                 static baseline's utilization,
 *   determinism — an identical churn cell reruns bit-identically.
 */
bool
printChurn(const Section &s, const std::vector<Outcome> &outs,
           BenchReport &report)
{
    Table t({"cell", "util", "BW (MB/s)", "SLO vio", "admit", "retry",
             "reject", "removed", "stepdn", "recov"});
    for (std::size_t i = 0; i < s.cells.size(); ++i) {
        const ExperimentResult &o = outs[i].res;
        const ChurnStats &c = o.churn;
        t.addRow({s.cells[i].label, fmtPercent(o.avg_util),
                  fmtDouble(o.aggregateBwMBps(), 1),
                  fmtPercent(meanSloViolation(o)),
                  std::to_string(c.admitted), std::to_string(c.retries),
                  std::to_string(c.rejected),
                  std::to_string(c.removals_completed) + "/" +
                      std::to_string(c.removals_requested),
                  std::to_string(c.tier_stepdowns),
                  std::to_string(c.tier_recoveries)});
        report.addCell("churn/" + s.cells[i].label,
                       {{"avg_util", o.avg_util},
                        {"agg_bw_mbps", o.aggregateBwMBps()},
                        {"slo_violation", meanSloViolation(o)},
                        {"churn_admitted", double(c.admitted)},
                        {"churn_retries", double(c.retries)},
                        {"churn_rejected", double(c.rejected)},
                        {"churn_removals", double(c.removals_completed)},
                        {"tier_stepdowns", double(c.tier_stepdowns)},
                        {"mappings_intact",
                         outs[i].audit.empty() ? 1.0 : 0.0}},
                       o.sim_events);
    }
    t.print(std::cout);
    std::cout << '\n';

    const double base_util = outs[0].res.avg_util;
    Verdicts verdict;
    for (std::size_t i = 0; i < s.cells.size(); ++i) {
        const Outcome &o = outs[i];
        const std::string &l = s.cells[i].label;
        verdict(o.audit.empty(), l + ": LPA mappings intact", o.audit);
        verdict(o.no_wedged_vssd, l + ": no vSSD wedged");
        if (!s.cells[i].churn.enabled())
            continue;
        const ChurnStats &c = o.res.churn;
        verdict(c.removals_completed == c.removals_requested,
                l + ": all removals drained, scrubbed, reclaimed");
        verdict(o.removed_quiesced,
                l + ": removed tenants fully quiesced");
        verdict(c.admitted >= 1, l + ": at least one arrival admitted");
        verdict(c.max_attempts_observed <= o.max_retries_allowed,
                l + ": retry attempts within the bounded budget");
        verdict(o.end_queued == 0,
                l + ": no arrival left stranded in the retry queue");
        verdict(c.tier_recoveries <= c.tier_stepdowns &&
                    o.end_level >= 0 && o.end_level <= 3,
                l + ": G-state ladder consistent");
        verdict(o.res.avg_util >= 0.2 * base_util,
                l + ": utilization above the churn floor");
    }
    // Degradation engagement: the aggressive-threshold storm cells sit
    // at a 1 % mean-violation trigger; a burst of cold arrivals on top
    // of a draining departure must push past it.
    verdict(outs[3].res.churn.tier_stepdowns >= 1,
            "storm+tiers: SLO-tier degradation engaged");
    verdict(sameOutcome(outs[1], outs[s.cells.size()]),
            "identical churn cell reruns bit-identically");

    std::cout << "\nExpected shape: churn cells admit arrivals only "
                 "after departures free channels (retries > 0), "
                 "removals always complete, and storm cells engage the "
                 "G-state ladder while utilization stays above the "
                 "floor.\n";
    report.setMetric("tenant_churn.verdicts_ok", verdict.ok ? 1.0 : 0.0);
    return verdict.ok;
}

// -------------------------------------------------------------- crash

std::vector<Cell>
crashCells(const Shape &shape)
{
    using T = CrashPlan::Trigger;
    // Mid-measure power loss, absolute sim time (warmup included).
    const CrashPlan at_time{.trigger = T::kSimTime,
                            .at = shape.warm + shape.measure / 3};
    const CrashPlan in_gc{.trigger = T::kPhase,
                          .phase = CrashPhase::kGcMigration,
                          .phase_skip = 25};
    const CrashPlan in_drain{.trigger = T::kPhase,
                             .phase = CrashPhase::kChurnDrain};
    const CrashPlan in_teardown{.trigger = T::kPhase,
                                .phase = CrashPhase::kChurnTeardown};

    // A removal racing the crash.
    TestbedOptions::ChurnOptions churn;
    churn.schedule.push_back(
        {.at = msec(300), .kind = ChurnEvent::Kind::kRemove, .remove_id = 1});

    std::vector<Cell> cells = {
        {.label = "no-crash"},
        {.label = "crash", .crash = {.plan = at_time}},
        {.label = "crash+faults", .faults = kMediumFaults,
         .crash = {.plan = at_time}},
        {.label = "crash@gc", .crash = {.plan = in_gc},
         .warmup_fill = 0.92, .intensity = 6.0},
        {.label = "crash@drain+churn", .churn = churn,
         .crash = {.plan = in_drain}},
        {.label = "crash@teardown+churn+faults", .faults = kMediumFaults,
         .churn = churn, .crash = {.plan = in_teardown}},
        {.label = "crash+torn-ckpt",
         .crash = {.plan = at_time, .corrupt_checkpoint = true}},
        {.label = "crash+torn-journal",
         .crash = {.plan = at_time, .torn_journal_tail = true}},
    };
    for (Cell &c : cells) {
        c.workloads = {K::kVdiWeb, K::kYcsbB};
        c.snapshot_dir = snapshotDir(c.label);
    }
    return cells;
}

/**
 * Verdicts per crashed cell:
 *   zero loss    — no acknowledged write disappears across the crash,
 *   exact rebuild— the recovered L2P map and HarvestedBlockTable are
 *                  identical to the pre-crash shadow model,
 *   integrity    — the end state audits clean,
 *   bounded RPO  — the checkpoint cadence bounds the recovery point
 *                  (2x when the current slot is deliberately torn),
 *   bounded RTO  — the analytic scan+replay rebuild cost stays under a
 *                  fixed ceiling and I/O resumes afterwards,
 *   agents       — RL agents reload their last on-disk snapshot,
 *   churn        — removals racing the crash still run to completion,
 *   determinism  — crashed and crash-free cells rerun bit-identically.
 */
bool
printCrash(const Section &s, const std::vector<Outcome> &outs,
           BenchReport &report)
{
    Table t({"cell", "recov", "RPO (ms)", "RTO (ms)", "restored",
             "scanned", "replay", "torn", "agents", "leases"});
    for (std::size_t i = 0; i < s.cells.size(); ++i) {
        const RecoveryReport &r = outs[i].report;
        report.addCell("crash/" + s.cells[i].label,
                       {{"recovered", r.recovered ? 1.0 : 0.0},
                        {"rpo_ms", toMillis(r.rpo_ns)},
                        {"rto_ms", toMillis(r.rto_ns)},
                        {"restored_mappings", double(r.restored_mappings)},
                        {"scanned_pages", double(r.scanned_pages)},
                        {"acked_lost", double(r.acked_lost)},
                        {"agents_restored", double(r.agents_restored)},
                        {"leases_reconciled", double(r.leases_reconciled)},
                        {"mappings_intact",
                         outs[i].audit.empty() ? 1.0 : 0.0}},
                       outs[i].res.sim_events);
        t.addRow({s.cells[i].label, r.recovered ? "yes" : "-",
                  r.recovered ? fmtDouble(toMillis(r.rpo_ns), 1) : "-",
                  r.recovered ? fmtDouble(toMillis(r.rto_ns), 1) : "-",
                  std::to_string(r.restored_mappings),
                  std::to_string(r.scanned_pages),
                  std::to_string(r.replayed_records),
                  std::to_string(r.torn_records),
                  std::to_string(r.agents_restored),
                  std::to_string(r.leases_reconciled)});
    }
    t.print(std::cout);
    std::cout << '\n';

    Verdicts verdict;
    for (std::size_t i = 0; i < s.cells.size(); ++i) {
        const Cell &c = s.cells[i];
        const Outcome &o = outs[i];
        const RecoveryReport &r = o.report;
        const std::string &l = c.label;
        verdict(o.audit.empty(), l + ": end-state mappings intact",
                o.audit);
        if (!c.crash.enabled()) {
            verdict(!r.recovered && r.crash_time == 0,
                    l + ": no crash machinery engaged");
            continue;
        }
        verdict(r.recovered, l + ": power loss fired and recovered");
        if (!r.recovered)
            continue;
        verdict(r.acked_lost == 0, l + ": zero acknowledged writes lost");
        verdict(r.map_matches_shadow,
                l + ": rebuilt L2P map == pre-crash shadow");
        verdict(r.hbt_matches_shadow,
                l + ": rebuilt HBT == pre-crash shadow");
        verdict(r.restored_mappings > 0, l + ": scan restored mappings");
        // The device checkpoint cadence bounds the RPO; a torn current
        // slot falls back one cadence further.
        const std::uint64_t cadence = msec(50);
        verdict(r.rpo_ns <=
                    (c.crash.corrupt_checkpoint ? 2 * cadence : cadence),
                l + ": RPO within the checkpoint cadence");
        verdict(r.rto_ns > 0 && r.rto_ns <= sec(2), l + ": RTO bounded");
        verdict(r.agents_restored > 0,
                l + ": RL agents reloaded from disk snapshots");
        bool progressed = !o.bytes.empty();
        for (std::uint64_t bytes : o.bytes)
            progressed = progressed && bytes > 0;
        verdict(progressed, l + ": tenants resumed I/O after recovery");
        if (c.crash.corrupt_checkpoint)
            verdict(r.checkpoint_fallback,
                    l + ": torn slot fell back to the previous "
                        "checkpoint");
        if (c.churn.enabled()) {
            verdict(o.res.churn.removals_completed ==
                        o.res.churn.removals_requested,
                    l + ": removal racing the crash ran to completion");
            verdict(o.removed_quiesced,
                    l + ": removed tenants fully quiesced");
        }
    }
    verdict(sameOutcome(outs[1], outs[s.cells.size()]),
            "identical crashed cell reruns bit-identically");
    verdict(sameOutcome(outs[0], outs[s.cells.size() + 1]),
            "crash-free baseline reruns bit-identically");

    std::cout << "\nExpected shape: every crashed cell rebuilds the "
                 "exact pre-crash map from checkpoint+journal+scan "
                 "with zero acked loss, RPO under the checkpoint "
                 "cadence, analytic RTO under the ceiling, and both "
                 "arms bit-identical on rerun.\n";
    report.setMetric("crash_recovery.verdicts_ok", verdict.ok ? 1.0 : 0.0);
    return verdict.ok;
}

// ------------------------------------------------------------- agents

std::vector<Cell>
agentCells()
{
    return {{.label = "fault-free"},
            {.label = "corrupt/supervised", .inject = Inject::kNaNWeights},
            {.label = "corrupt/unsupervised", .supervise = false,
             .inject = Inject::kNaNWeights},
            {.label = "spike/supervised", .inject = Inject::kRewardSpike}};
}

/**
 * The supervised run must trip, force-release the quarantined agent's
 * harvest leases within one decision window, keep the victim tenant at
 * (or above) its SoftwareIsolation-level bandwidth, and leave the
 * collocated tenant's SLO intact; the unsupervised control must
 * demonstrably violate at least one of those — otherwise the watchdog
 * is dead weight.
 */
bool
printAgents(const Section &s, const std::vector<Outcome> &outs,
            BenchReport &report)
{
    // SoftwareIsolation baseline: the bandwidth floor a quarantined
    // tenant must never sink below.
    ExperimentSpec swiso = makeSpec({K::kVdiWeb, K::kTeraSort},
                                    PolicyKind::kSoftwareIsolation);
    swiso.warm_run = s.shape.warm;
    swiso.measure = s.shape.measure;
    const ExperimentResult sw = runExperiment(swiso);
    const double sw_victim_bw = sw.tenants[kVictim].avg_bw_mbps;
    const auto bw = [](const Outcome &o, VssdId id) {
        return o.res.tenants[id].avg_bw_mbps;
    };
    const auto vio = [](const Outcome &o, VssdId id) {
        return o.res.tenants[id].slo_violation;
    };

    Table t({"arm", "victim BW", "peer BW", "peer vio", "trips",
             "restores", "fallback", "leases", "held pre/post"});
    for (std::size_t i = 0; i < s.cells.size(); ++i) {
        const Outcome &o = outs[i];
        t.addRow({s.cells[i].label, fmtDouble(bw(o, kVictim), 1),
                  fmtDouble(bw(o, kPeer), 1), fmtPercent(vio(o, kPeer)),
                  std::to_string(o.stats.trips),
                  std::to_string(o.stats.restores),
                  std::to_string(o.stats.fallback_windows),
                  std::to_string(o.stats.lease_releases),
                  std::to_string(o.held_before) + "/" +
                      std::to_string(o.held_after)});
        report.addCell("agents/" + s.cells[i].label,
                       {{"victim_bw_mbps", bw(o, kVictim)},
                        {"peer_bw_mbps", bw(o, kPeer)},
                        {"peer_slo_vio", vio(o, kPeer)},
                        {"victim_slo_vio", vio(o, kVictim)},
                        {"agent_trips", double(o.stats.trips)},
                        {"agent_restores", double(o.stats.restores)},
                        {"agent_fallback_windows",
                         double(o.stats.fallback_windows)},
                        {"agent_lease_releases",
                         double(o.stats.lease_releases)},
                        {"held_after", double(o.held_after)}},
                       o.res.sim_events);
    }
    report.addCell("agents/sw-isolation", sw);
    t.addRow({"sw-isolation", fmtDouble(sw_victim_bw, 1),
              fmtDouble(sw.tenants[kPeer].avg_bw_mbps, 1),
              fmtPercent(sw.tenants[kPeer].slo_violation), "-", "-", "-",
              "-", "-"});
    t.print(std::cout);
    std::cout << '\n';

    const Outcome &ff = outs[0];
    const Outcome &cs = outs[1];
    const Outcome &cu = outs[2];
    const Outcome &rs = outs[3];

    Verdicts verdict;
    verdict(ff.stats.trips == 0, "healthy supervised run never trips");
    verdict(cs.stats.trips >= 1, "watchdog trips on NaN weight corruption");
    verdict(cs.held_before > 0,
            "lease staging held channels before corruption");
    verdict(cs.held_after == 0 && cs.stats.lease_releases >= 1,
            "quarantine force-releases leases within one window");
    verdict(cs.victim_healthy,
            "corrupted agent restored and back to healthy");
    // The deterministic-behaviour floor. In this scaled-down testbed
    // SoftwareIsolation lets the BI tenant burst across every channel,
    // so the binding floor is the lower of the SW-isolation level and
    // the fault-free FleetIO level (the paper's full-size device has
    // SW-isolation as the lower bar).
    const double bw_floor = 0.9 * std::min(sw_victim_bw, bw(ff, kVictim));
    verdict(bw(cs, kVictim) >= bw_floor,
            "quarantined tenant BW stays at the deterministic isolation "
            "floor");
    verdict(vio(cs, kPeer) <= vio(ff, kPeer) + 0.15,
            "collocated tenant SLO intact under supervision");
    verdict(bw(cu, kVictim) < bw_floor ||
                vio(cu, kPeer) > vio(ff, kPeer) + 0.15 || cu.held_after > 0,
            "unsupervised control demonstrably violates (BW floor, peer "
            "SLO, or stuck leases)");
    verdict(cu.stats.trips == 0,
            "control arm really ran without supervision");
    verdict(rs.stats.trips >= 1 && rs.victim_healthy,
            "reward spike trips the watchdog and recovers");
    verdict(vio(rs, kPeer) <= vio(ff, kPeer) + 0.15,
            "reward spike leaves collocated SLO intact");

    std::cout << "\nExpected shape: only the injected arms trip; the "
                 "supervised arms degrade to deterministic isolation "
                 "and recover, the control does not.\n";
    report.setMetric("agent_resilience.resilience_ok",
                     verdict.ok ? 1.0 : 0.0);
    return verdict.ok;
}

}  // namespace

int
main(int argc, char **argv)
{
    const bool smoke =
        std::any_of(argv + 1, argv + argc, [](const char *arg) {
            return std::strcmp(arg, "--smoke") == 0;
        });

    banner("Robustness: NAND faults, tenant churn, crash recovery and "
           "agent resilience");
    BenchReport report("chaos");
    report.setJobs(benchJobs());

    Shape shape;
    Shape churn_shape;
    if (smoke) {
        shape = {80, sec(1), sec(4)};
        // Churn retries need ~4.7 s to resolve (see churnOptions).
        churn_shape = {80, sec(1), sec(6)};
    }
    const std::vector<Section> sections = {
        {"Fault tolerance: FleetIO under injected NAND faults", shape,
         faultCells(), {}, printFaults},
        {"Tenant churn: hot add/remove + admission control + G-state "
         "degradation under faults",
         churn_shape, churnCells(), {1}, printChurn},
        {"Crash-consistent recovery: power loss x NAND faults x "
         "metadata damage x tenant churn",
         shape, crashCells(shape), {1, 0}, printCrash},
        {"Agent resilience: supervised vs unsupervised agents under "
         "injected divergence",
         shape, agentCells(), {}, printAgents},
    };

    // Sections run one at a time, in this order.
    bool ok = true;
    for (const Section &s : sections) {
        std::vector<Cell> cells = s.cells;
        for (std::size_t i : s.reruns) {
            // A rerun shares the pool with the cell it repeats, so it
            // gets its own snapshot directory.
            Cell again = s.cells[i];
            if (!again.snapshot_dir.empty())
                again.snapshot_dir += "_rerun";
            cells.push_back(again);
        }
        const auto outs = parallelMap(
            cells, [&s](const Cell &c) { return run(c, s.shape); });
        std::cout << s.title << '\n';
        ok = s.print(s, outs, report) && ok;
    }
    const int regress = report.finish(argc, argv);
    return ok ? regress : 1;
}
