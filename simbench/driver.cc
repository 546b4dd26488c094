/**
 * @file
 * The outside-in driver. It runs one experiment cell through the same
 * public calls, in the same order, as runExperiment(): calibratedSlo per
 * tenant, Testbed and policy setup, warmupFill, startWorkloads, run,
 * prepare, beforeMeasure, beginMeasurement, startChurn, run,
 * endMeasurement. Warm-up and measure advance in window-sized
 * Testbed::run calls, which dispatch exactly the events one long call
 * would, so the simulated outcome (and its digest) is unchanged.
 *
 *   simbench_driver <workload> <seed>
 *       untraced; prints the cell time and the outcome digest.
 *   simbench_driver <workload> <seed> --trace [--spans FILE]
 *       records a span around every call above and every window, reads
 *       the layer counters at each span boundary, times each layer's
 *       public entry point on inputs shaped by the finished run, and
 *       prints the per-layer metrics. --spans writes the spans as a
 *       Chrome trace (open in Perfetto) when the run ends.
 *   simbench_driver <workload> <seed> --hook event|request|reward --hook-ns N
 *       untraced, with a fixed N ns busy-wait installed on one of the
 *       library's unset hooks (cost-injection check).
 *
 * Output is one JSON line on stdout.
 */
#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <iostream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "simbench/alloc_count.h"
#include "simbench/json_line.h"
#include "simbench/workloads.h"
#include "src/policies/fleetio_policy.h"

using namespace simbench;

namespace {

using Clock = std::chrono::steady_clock;

std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now().time_since_epoch())
        .count();
}

double
secondsBetween(std::int64_t a, std::int64_t b)
{
    return double(b - a) * 1e-9;
}

/** Busy-wait @p ns nanoseconds of host time. */
void
spin(std::int64_t ns)
{
    const auto end = Clock::now() + std::chrono::nanoseconds(ns);
    while (Clock::now() < end) {
    }
}

/** Where side-effect-free unit-cost results go, so they are computed. */
volatile std::uint64_t g_sink = 0;

/** Layer counters, all from public getters. Reading them allocates
 *  nothing, so the allocation count is not disturbed. */
struct Counters
{
    std::uint64_t events = 0, pending = 0;
    std::uint64_t page_ops = 0, queued_ops = 0, blocked = 0;
    std::uint64_t host_reads = 0, host_writes = 0, gc_writes = 0;
    std::uint64_t erases = 0, gc_reclaimed = 0;
    bool gc_active = false;
    std::uint64_t gsb_created = 0, gsb_harvested = 0, gsb_reclaimed = 0;
    std::uint64_t gsb_revoked = 0, gsb_live = 0;
    std::uint64_t windows = 0, decisions = 0, opt_steps = 0;
    std::uint64_t grad_skips = 0, adm_processed = 0, adm_rejected = 0;
    std::uint64_t trace_events = 0, trace_dropped = 0;
    std::uint64_t lat_samples = 0, issued = 0, completed = 0;
    std::uint64_t allocs = 0;
};

Counters
readCounters(Testbed &tb, FleetIoController *ctl)
{
    Counters c;
    c.events = tb.eq().dispatched();
    c.pending = tb.eq().pending();
    c.page_ops = tb.scheduler().dispatchedOps();
    c.queued_ops = tb.scheduler().queuedOps();
    c.blocked = tb.scheduler().blockedWrites();
    const FlashDevice &dev = tb.device();
    c.host_reads = dev.hostReads();
    c.host_writes = dev.hostWrites();
    c.gc_writes = dev.gcWrites();
    c.erases = dev.erases();
    GsbManager &gsb = tb.gsb();
    c.gsb_created = gsb.createdCount();
    c.gsb_harvested = gsb.harvestedCount();
    c.gsb_reclaimed = gsb.reclaimedCount();
    c.gsb_revoked = gsb.revokedCount();
    c.gsb_live = gsb.liveGsbs();
    for (VssdId id = 0; id < tb.vssds().size(); ++id) {
        const Vssd *v = tb.vssds().get(id);
        c.gc_reclaimed += v->gc().blocksReclaimed();
        c.gc_active = c.gc_active || v->gc().active();
        c.lat_samples += v->latency().totalCount();
        c.issued += tb.workload(id).issued();
        c.completed += tb.workload(id).completed();
        if (ctl != nullptr) {
            if (const FleetIoAgent *a = ctl->agent(id)) {
                c.decisions += a->decisions();
                c.opt_steps += a->trainer().optimizerSteps();
                c.grad_skips += a->trainer().skippedUpdates();
            }
        }
    }
    if (ctl != nullptr) {
        c.windows = ctl->windows();
        c.adm_processed = ctl->admission().processed();
        c.adm_rejected = ctl->admission().rejected();
    }
    if (obs::TraceRecorder *t = tb.tracer()) {
        c.trace_events = t->eventCount() + t->droppedCount();
        c.trace_dropped = t->droppedCount();
    }
    c.allocs = heapAllocations();
    return c;
}

/** One recorded span: name, host start/end, parent span, run id, and
 *  the layer counters at both boundaries. */
struct Span
{
    const char *name;
    std::int64_t start_ns = 0, end_ns = 0;
    int parent = -1;
    Counters at_start, at_end;
};

/** In-memory span log; written out only when the run ends. */
class SpanLog
{
  public:
    explicit SpanLog(std::uint64_t run_id) : run_id_(run_id)
    {
        spans_.reserve(4096);
    }

    /** Counter source; until set, only the allocation count is read. */
    void setProbe(std::function<Counters()> probe)
    {
        probe_ = std::move(probe);
    }

    int open(const char *name)
    {
        Span s;
        s.name = name;
        s.parent = stack_.empty() ? -1 : stack_.back();
        s.at_start = probe();
        s.start_ns = nowNs();
        spans_.push_back(s);
        stack_.push_back(int(spans_.size()) - 1);
        return stack_.back();
    }

    void close(int id)
    {
        Span &s = spans_[std::size_t(id)];
        s.end_ns = nowNs();
        s.at_end = probe();
        stack_.pop_back();
    }

    const std::vector<Span> &spans() const { return spans_; }

    /** Chrome trace-event JSON ("X" events, µs), counters as args. */
    void writeChrome(std::ostream &os) const
    {
        const std::int64_t t0 = spans_.empty() ? 0 : spans_[0].start_ns;
        os << "{\"traceEvents\": [\n";
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            const Counters &a = s.at_start, &b = s.at_end;
            JsonLine args;
            args.count("run", run_id_)
                .raw("parent", std::to_string(s.parent))
                .count("events", b.events - a.events)
                .count("page_ops", b.page_ops - a.page_ops)
                .count("completed", b.completed - a.completed)
                .count("host_pages_written", b.host_writes - a.host_writes)
                .count("gc_pages_written", b.gc_writes - a.gc_writes)
                .count("decisions", b.decisions - a.decisions)
                .count("optimizer_steps", b.opt_steps - a.opt_steps)
                .count("allocs", b.allocs - a.allocs)
                .count("pending_at_end", b.pending)
                .count("queued_ops_at_end", b.queued_ops);
            os << (i ? ",\n" : "")
               << JsonLine()
                      .str("name", s.name)
                      .str("ph", "X")
                      .num("ts", double(s.start_ns - t0) / 1e3)
                      .num("dur", double(s.end_ns - s.start_ns) / 1e3)
                      .count("pid", 1)
                      .count("tid", 1)
                      .raw("args", args.text())
                      .text();
        }
        os << "\n]}\n";
    }

  private:
    Counters probe() const
    {
        if (probe_)
            return probe_();
        Counters c;
        c.allocs = heapAllocations();
        return c;
    }

    std::uint64_t run_id_;
    std::vector<Span> spans_;
    std::vector<int> stack_;
    std::function<Counters()> probe_;
};

/** Opens a span on construction, closes it on destruction; a no-op
 *  without a log (untraced runs). */
class Scope
{
  public:
    Scope(SpanLog *log, const char *name)
        : log_(log), id_(log != nullptr ? log->open(name) : -1)
    {
    }
    ~Scope()
    {
        if (log_ != nullptr)
            log_->close(id_);
    }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    SpanLog *log_;
    int id_;
};

enum class Hook { kNone, kEvent, kRequest, kReward };

/** Per-call host cost and allocations of one layer entry point. */
struct UnitCost
{
    double seconds_per_call = 0.0;
    double allocs_per_call = 0.0;
};

/** Median of @p reps timed batches of @p calls calls each. */
template <typename Setup, typename Body>
UnitCost
timeCalls(int reps, std::uint64_t calls, Setup setup, Body body)
{
    std::vector<double> per_call;
    std::vector<double> allocs;
    for (int r = 0; r < reps; ++r) {
        setup();
        const std::uint64_t a0 = heapAllocations();
        const std::int64_t t0 = nowNs();
        body();
        const std::int64_t t1 = nowNs();
        allocs.push_back(double(heapAllocations() - a0) / double(calls));
        per_call.push_back(secondsBetween(t0, t1) / double(calls));
    }
    std::sort(per_call.begin(), per_call.end());
    std::sort(allocs.begin(), allocs.end());
    return {per_call[per_call.size() / 2], allocs[allocs.size() / 2]};
}

/** A callback the size of the device completion wrappers (88 bytes of
 *  capture) that reschedules itself a pseudo-random delay ahead, so the
 *  heap keeps a constant depth. */
struct DeviceSizedTick
{
    EventQueue *q;
    std::uint64_t *sink;
    std::uint64_t state[9];

    void operator()() const
    {
        DeviceSizedTick next = *this;
        next.state[0] = state[0] * 6364136223846793005ull +
                        1442695040888963407ull;
        *sink += next.state[8];
        q->scheduleAt(q->now() + 1 + (next.state[0] >> 50), next);
    }
};
static_assert(sizeof(DeviceSizedTick) <= EventQueue::kInlineCallbackBytes);

/** EventQueue::scheduleAt + step at a heap depth of @p depth. */
UnitCost
eventUnitCost(std::uint64_t depth)
{
    constexpr std::uint64_t kSteps = 200000;
    std::unique_ptr<EventQueue> q;
    std::uint64_t sink = 0;
    const UnitCost c = timeCalls(
        5, kSteps,
        [&]() {
            q = std::make_unique<EventQueue>();
            for (std::uint64_t i = 0; i < std::max<std::uint64_t>(depth, 1);
                 ++i) {
                DeviceSizedTick t{q.get(), &sink, {i + 1}};
                q->scheduleAt(SimTime(i), t);
            }
        },
        [&]() {
            for (std::uint64_t i = 0; i < kSteps; ++i)
                q->step();
        });
    g_sink = sink;
    return c;
}

/** xorshift64 for the unit-cost inputs (fixed, independent of the run). */
std::uint64_t
nextRandom(std::uint64_t &s)
{
    s ^= s << 13;
    s ^= s >> 7;
    s ^= s << 17;
    return s;
}

/** Ftl::lookup over each tenant's logical space, as the run left it. */
UnitCost
ftlLookupCost(Testbed &tb)
{
    constexpr std::uint64_t kPerTenant = 50000;
    const std::size_t n = tb.vssds().size();
    std::uint64_t rng = 0x9E3779B97F4A7C15ull, hits = 0;
    const UnitCost c = timeCalls(5, kPerTenant * n, []() {}, [&]() {
        for (VssdId id = 0; id < n; ++id) {
            const Ftl &ftl = tb.vssds().get(id)->ftl();
            for (std::uint64_t i = 0; i < kPerTenant; ++i)
                hits += ftl.lookup(nextRandom(rng) % ftl.logicalPages()) !=
                        kNoPpa;
        }
    });
    g_sink = hits;  // the lookups have no other effect to keep
    return c;
}

/** A fresh testbed with the run's tenant layout (channels and quotas).
 *  At the end of a run GC holds every tenant near its free-block
 *  threshold, too close to the quota for the write and gSB cells. */
std::unique_ptr<Testbed>
freshTestbed(Testbed &run, const TestbedOptions &opts)
{
    auto tb = std::make_unique<Testbed>(opts);
    for (VssdId id = 0; id < run.vssds().size(); ++id) {
        const Vssd::Config &cfg = run.vssds().get(id)->config();
        tb->addTenant(run.tenantKind(id), cfg.channels, cfg.quota_blocks,
                      cfg.slo);
    }
    return tb;
}

/** Ftl::allocateWrite overwrites into each tenant's filled range, on a
 *  fresh testbed warmed up to the workload's fill. A failed call (quota
 *  exhausted) returns at once and would understate the cost, so
 *  @p short_reps counts the reps in which any call failed. */
UnitCost
ftlWriteCost(Testbed &run, const TestbedOptions &opts, int &short_reps)
{
    constexpr std::uint64_t kPerTenant = 2000;
    std::unique_ptr<Testbed> tb = freshTestbed(run, opts);
    tb->warmupFill();
    const std::size_t n = tb->vssds().size();
    std::uint64_t rng = 0xD1B54A32D192ED03ull;
    short_reps = 0;
    return timeCalls(3, kPerTenant * n, []() {}, [&]() {
        std::uint64_t written = 0;
        for (VssdId id = 0; id < n; ++id) {
            Ftl &ftl = tb->vssds().get(id)->ftl();
            const std::uint64_t range = std::max<std::uint64_t>(
                1, std::uint64_t(double(ftl.logicalPages()) *
                                 opts.warmup_fill));
            for (std::uint64_t i = 0; i < kPerTenant; ++i) {
                Ppa ppa = kNoPpa;
                written += ftl.allocateWrite(nextRandom(rng) % range, ppa);
            }
        }
        short_reps += written < kPerTenant * n;
    });
}

/** GsbManager::makeHarvestable create + destroy pairs on tenant 0 of a
 *  fresh testbed (a gSB channel needs 25 % free blocks). */
UnitCost
makeHarvestableCost(Testbed &run, const TestbedOptions &opts)
{
    constexpr std::uint64_t kPairs = 2000;
    std::unique_ptr<Testbed> tbp = freshTestbed(run, opts);
    Testbed &tb = *tbp;
    GsbManager &gsb = tb.gsb();
    const double bw = tb.device().geometry().channelBandwidthMBps() * 2;
    const std::uint64_t created0 = gsb.createdCount();
    UnitCost c = timeCalls(
        5, kPairs, [&]() { gsb.makeHarvestable(0, 0.0); },
        [&]() {
            for (std::uint64_t i = 0; i < kPairs; ++i) {
                gsb.makeHarvestable(0, bw);
                gsb.makeHarvestable(0, 0.0);
            }
        });
    if (gsb.createdCount() == created0)
        std::cerr << "simbench_driver: makeHarvestable created no gSB\n";
    return c;
}

/** The final stacked state of @p id's agent, jittered per step so a
 *  rollout is not 64 copies of one state. */
rl::Vector
jitteredState(FleetIoController &ctl, VssdId id, std::uint64_t &rng)
{
    rl::Vector s = ctl.states().stacked(id);
    for (double &x : s)
        x += double(nextRandom(rng) % 1000) * 1e-5;
    return s;
}

struct AgentCosts
{
    UnitCost decide, imitate, ppo, admission;
    double steps_per_update = 0.0;
};

/** FleetIoAgent::decide / imitate / train and AdmissionControl::flush,
 *  on the run's own agents and states. */
AgentCosts
agentCosts(Testbed &tb, FleetIoController &ctl)
{
    AgentCosts out;
    const std::size_t n = tb.vssds().size();
    std::uint64_t rng = 0x2545F4914F6CDD1Dull;
    std::vector<rl::Vector> states;
    for (VssdId id = 0; id < n; ++id)
        states.push_back(ctl.states().stacked(id));

    constexpr std::uint64_t kDecides = 500;
    out.decide = timeCalls(5, kDecides * n, []() {}, [&]() {
        for (VssdId id = 0; id < n; ++id)
            for (std::uint64_t i = 0; i < kDecides; ++i)
                ctl.agent(id)->decide(states[id]);
    });

    // The teacher phase left each agent's cloning batch full, so every
    // call pushes a sample and runs two minibatch updates.
    constexpr std::uint64_t kImitate = 64;
    const std::vector<std::size_t> expert =
        ctl.agent(0)->mapper().encode(AgentAction{});
    out.imitate = timeCalls(3, kImitate * n, []() {}, [&]() {
        for (VssdId id = 0; id < n; ++id)
            for (std::uint64_t i = 0; i < kImitate; ++i)
                ctl.agent(id)->imitate(states[id], expert, 1.0);
    });

    FleetIoAgent &agent = *ctl.agent(0);
    agent.setTraining(true);
    std::uint64_t steps0 = 0;
    out.ppo = timeCalls(
        5, 1,
        [&]() {
            agent.resetEpisode();
            for (int i = 0; i < 64; ++i) {
                agent.decide(jitteredState(ctl, 0, rng));
                agent.completeTransition(
                    double(nextRandom(rng) % 1000) * 1e-3);
            }
            steps0 = agent.trainer().optimizerSteps();
        },
        [&]() { agent.train(states[0]); });
    out.steps_per_update =
        double(agent.trainer().optimizerSteps() - steps0);

    AdmissionControl &adm = ctl.admission();
    const double bw = tb.device().geometry().channelBandwidthMBps() * 2;
    out.admission = timeCalls(
        5, 1,
        [&]() {
            for (int i = 0; i < 1000; ++i) {
                adm.submit(PendingAction{
                    VssdId(std::size_t(i) % n),
                    i % 2 == 0 ? PendingAction::Type::kMakeHarvestable
                               : PendingAction::Type::kHarvest,
                    bw, 0});
            }
        },
        [&]() { adm.flush(); });
    return out;
}

/** Simulated outcome collected exactly as runExperiment collects it. */
ExperimentResult
collectOutcome(Testbed &tb, const ExperimentSpec &spec)
{
    ExperimentResult res;
    res.measured = spec.measure;
    res.sim_events = tb.eq().dispatched();
    res.avg_util = tb.avgUtilization();
    res.write_amp = tb.device().writeAmplification();
    if (obs::AttributionHub *hub = tb.attribution()) {
        res.attr_requests = hub->requests();
        res.attr_sum_mismatches = hub->sumMismatches();
    }
    for (auto *v : tb.vssds().active()) {
        TenantResult t;
        t.workload = tb.workload(v->id()).name();
        t.bandwidth_intensive = isBandwidthIntensive(tb.tenantKind(v->id()));
        t.avg_bw_mbps = v->bandwidth().totalMBps(spec.measure);
        t.p50 = v->latency().quantile(0.50);
        t.p99 = v->latency().quantile(0.99);
        t.slo_violation = v->latency().sloViolation();
        t.requests = v->latency().totalCount();
        t.slo = v->config().slo;
        res.tenants.push_back(std::move(t));
    }
    return res;
}

/** Simulated wait per LS request (µs) summed over @p stages. */
double
lsWaitUs(Testbed &tb, std::initializer_list<obs::Stage> stages)
{
    obs::AttributionHub *hub = tb.attribution();
    if (hub == nullptr)
        return 0.0;
    double wait_ns = 0.0, requests = 0.0;
    for (VssdId id = 0; id < tb.vssds().size(); ++id) {
        if (isBandwidthIntensive(tb.tenantKind(id)))
            continue;
        for (obs::Stage s : stages)
            wait_ns += double(hub->stageTotal(id, s));
        requests += double(tb.vssds().get(id)->latency().totalCount());
    }
    return requests > 0 ? wait_ns / requests / 1e3 : 0.0;
}

double
quantileOf(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    return v[std::min(v.size() - 1, std::size_t(q * double(v.size())))];
}

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0.0;
}

int
usage()
{
    std::cerr << "usage: simbench_driver <workload> <seed> [--trace "
                 "[--spans FILE]] [--hook event|request|reward "
                 "--hook-ns N]\n";
    return 2;
}

}  // namespace

int
main(int argc, char **argv)
{
    if (argc < 3)
        return usage();
    const Workload *w = findWorkload(argv[1]);
    if (w == nullptr) {
        std::cerr << "simbench_driver: unknown workload " << argv[1] << "\n";
        return 2;
    }
    const std::uint64_t seed = std::strtoull(argv[2], nullptr, 10);
    bool traced = false;
    std::string spans_path;
    Hook hook = Hook::kNone;
    std::int64_t hook_ns = 0;
    for (int i = 3; i < argc; ++i) {
        const std::string a = argv[i];
        if (a == "--trace") {
            traced = true;
        } else if (a == "--spans" && i + 1 < argc) {
            spans_path = argv[++i];
        } else if (a == "--hook" && i + 1 < argc) {
            const std::string h = argv[++i];
            hook = h == "event"     ? Hook::kEvent
                   : h == "request" ? Hook::kRequest
                   : h == "reward"  ? Hook::kReward
                                    : Hook::kNone;
            if (hook == Hook::kNone)
                return usage();
        } else if (a == "--hook-ns" && i + 1 < argc) {
            hook_ns = std::strtoll(argv[++i], nullptr, 10);
        } else {
            return usage();
        }
    }
    if (traced && hook != Hook::kNone)
        return usage();

    // The injected cost as the hook will really pay it: the busy-wait
    // plus its clock reads, timed before the cell starts.
    double hook_cost_ns = 0.0;
    if (hook != Hook::kNone) {
        constexpr int kCalls = 20000;
        const std::int64_t t0 = nowNs();
        for (int i = 0; i < kCalls; ++i)
            spin(hook_ns);
        hook_cost_ns = double(nowNs() - t0) / kCalls;
    }

    const ExperimentSpec spec = makeSpec(*w, seed);
    const SimTime window = spec.opts.window;
    std::unique_ptr<SpanLog> log =
        traced ? std::make_unique<SpanLog>(seed) : nullptr;
    SpanLog *L = log.get();
    std::uint64_t hook_calls = 0;
    std::vector<double> window_ms;
    window_ms.reserve(std::size_t(spec.measure / window) + 1);
    std::uint64_t min_window_completions = UINT64_MAX;
    std::uint64_t gc_windows = 0, measure_windows = 0;
    std::uint64_t pending_max = 0, queued_max = 0, blocked_max = 0;
    std::uint64_t live_max = 0;
    Counters c_warm0, c_prep0, c_meas0, c_meas1, c_end;
    std::vector<std::uint64_t> last_completed;
    double phase_s[6] = {};  // calibrate, build, warmup, prepare,
                             // measure, collect

    const std::int64_t t_cell0 = nowNs();
    std::int64_t t_phase = t_cell0;
    auto phaseDone = [&](int k) {
        const std::int64_t t = nowNs();
        phase_s[k] = secondsBetween(t_phase, t);
        t_phase = t;
    };
    const int root = L != nullptr ? L->open("cell") : -1;

    // 1. Per-tenant SLOs from hardware-isolated calibration.
    std::vector<SimTime> slos;
    {
        Scope s(L, "calibrate");
        for (WorkloadKind kind : spec.workloads) {
            Scope k(L, "calibratedSlo");
            slos.push_back(
                calibratedSlo(kind, spec.workloads.size(), spec.opts));
        }
    }
    phaseDone(0);

    // 2. Build the testbed under the policy.
    std::unique_ptr<Testbed> tbp;
    std::unique_ptr<Policy> policy;
    FleetIoController *ctl = nullptr;
    {
        Scope s(L, "build");
        {
            Scope k(L, "Testbed");
            tbp = std::make_unique<Testbed>(spec.opts);
        }
        Scope k(L, "Policy::setup");
        policy = makePolicy(spec.policy);
        policy->setup(*tbp, spec.workloads, slos);
        if (auto *fp = dynamic_cast<FleetIoPolicy *>(policy.get()))
            ctl = fp->controller();
    }
    Testbed &tb = *tbp;
    last_completed.assign(tb.vssds().size(), 0);
    auto observe = [&]() {
        const Counters c = readCounters(tb, ctl);
        pending_max = std::max(pending_max, c.pending);
        queued_max = std::max(queued_max, c.queued_ops);
        blocked_max = std::max(blocked_max, c.blocked);
        live_max = std::max(live_max, c.gsb_live);
        return c;
    };
    if (L != nullptr)
        L->setProbe(observe);

    switch (hook) {
      case Hook::kEvent:
        tb.eq().setAfterDispatch([&hook_calls, hook_ns]() {
            ++hook_calls;
            spin(hook_ns);
        });
        break;
      case Hook::kRequest:
        tb.scheduler().setCompletionTap(
            [&hook_calls, hook_ns](const IoRequest &) {
                ++hook_calls;
                spin(hook_ns);
            });
        break;
      case Hook::kReward:
        if (ctl != nullptr) {
            ctl->setRewardHook([&hook_calls, hook_ns](VssdId, double r) {
                ++hook_calls;
                spin(hook_ns);
                return r;
            });
        }
        break;
      case Hook::kNone:
        break;
    }
    phaseDone(1);

    // 3. Warm up: pre-fill capacity, settle into steady state.
    {
        Scope s(L, "warmup");
        if (L != nullptr)
            c_warm0 = observe();
        {
            Scope k(L, "warmupFill");
            tb.warmupFill();
        }
        {
            Scope k(L, "startWorkloads");
            tb.startWorkloads();
        }
        for (SimTime t = 0; t < spec.warm_run; t += window) {
            Scope k(L, "window");
            tb.run(std::min(window, spec.warm_run - t));
        }
    }
    phaseDone(2);

    // 4. Policy preparation (RL pre-training for FleetIO).
    {
        Scope s(L, "prepare");
        if (L != nullptr)
            c_prep0 = observe();
        policy->prepare(tb);
    }
    phaseDone(3);

    // 5. Measure, one window per Testbed::run call.
    const std::uint64_t hook_calls_before_measure = hook_calls;
    {
        Scope s(L, "measure");
        if (L != nullptr)
            c_meas0 = observe();
        {
            Scope k(L, "beforeMeasure");
            policy->beforeMeasure(tb);
        }
        {
            Scope k(L, "beginMeasurement");
            tb.beginMeasurement();
            tb.startChurn();
        }
        if (L != nullptr) {
            for (VssdId id = 0; id < tb.vssds().size(); ++id)
                last_completed[id] = tb.workload(id).completed();
        }
        std::uint64_t gc_seen = c_meas0.gc_reclaimed;
        for (SimTime t = 0; t < spec.measure; t += window) {
            {
                Scope k(L, "window");
                tb.run(std::min(window, spec.measure - t));
            }
            if (L == nullptr)
                continue;
            const Span &ws = L->spans().back();
            window_ms.push_back(secondsBetween(ws.start_ns, ws.end_ns) * 1e3);
            const Counters c = observe();
            ++measure_windows;
            if (c.gc_reclaimed > gc_seen || c.gc_active)
                ++gc_windows;
            gc_seen = c.gc_reclaimed;
            for (VssdId id = 0; id < tb.vssds().size(); ++id) {
                const std::uint64_t done = tb.workload(id).completed();
                min_window_completions = std::min(
                    min_window_completions, done - last_completed[id]);
                last_completed[id] = done;
            }
        }
        {
            Scope k(L, "endMeasurement");
            tb.endMeasurement();
        }
        if (L != nullptr)
            c_meas1 = observe();
    }
    phaseDone(4);

    // 6. Collect.
    ExperimentResult res;
    {
        Scope s(L, "collect");
        res = collectOutcome(tb, spec);
    }
    phaseDone(5);
    if (L != nullptr) {
        c_end = observe();
        L->close(root);
    }
    const double cell_s = secondsBetween(t_cell0, nowNs());

    std::uint64_t measure_requests = 0, min_tenant_requests = UINT64_MAX;
    for (const TenantResult &t : res.tenants) {
        measure_requests += t.requests;
        min_tenant_requests = std::min(min_tenant_requests, t.requests);
    }
    // measure_s and measure_requests are what measure_kreq_per_s is made
    // of, so the cost-injection check can price a hook's share of it.
    JsonLine out;
    out.str("workload", w->name)
        .count("seed", seed)
        .num("cell_s", cell_s)
        .num("measure_s", phase_s[4])
        .count("measure_requests", measure_requests)
        .count("min_tenant_requests", min_tenant_requests)
        .count("attr_sum_mismatches", res.attr_sum_mismatches)
        .str("digest", outcomeDigest(res));
    if (hook != Hook::kNone) {
        out.count("hook_calls", hook_calls)
            .count("measure_hook_calls",
                   hook_calls - hook_calls_before_measure)
            .num("hook_cost_ns", hook_cost_ns);
    }
    if (!traced) {
        std::cout << out.text() << std::endl;
        return 0;
    }

    // Unit-cost cells: each layer's public entry point, timed directly
    // on inputs shaped by the run that just finished. Outside cell_s.
    const bool rl_layers = ctl != nullptr;
    UnitCost ev, lookup, write, harvest;
    AgentCosts ac;
    {
        Scope s(L, "unit:EventQueue");
        ev = eventUnitCost(pending_max);
    }
    {
        Scope s(L, "unit:Ftl::lookup");
        lookup = ftlLookupCost(tb);
    }
    {
        Scope s(L, "unit:Ftl::allocateWrite");
        int short_reps = 0;
        write = ftlWriteCost(tb, spec.opts, short_reps);
        if (short_reps > 0) {
            std::cerr << "simbench_driver: Ftl::allocateWrite failed in "
                      << short_reps << " of 3 unit-cost reps\n";
            return 1;
        }
    }
    if (rl_layers) {
        {
            Scope s(L, "unit:GsbManager::makeHarvestable");
            harvest = makeHarvestableCost(tb, spec.opts);
        }
        Scope s(L, "unit:agent");
        ac = agentCosts(tb, *ctl);
    }

    // Per-layer metrics.
    const double prep_meas_s = phase_s[3] + phase_s[4];
    const Counters &pm0 = c_prep0, &pm1 = c_meas1;
    const double prepare_windows =
        rl_layers ? double(c_meas0.windows - c_prep0.windows) : 0.0;
    const double imitate_calls =
        rl_layers ? double(std::min<std::uint64_t>(
                        c_end.windows,
                        std::uint64_t(std::max(
                            ctl->config().teacher_windows, 0)))) *
                        double(ctl->numAgents())
                  : 0.0;
    const double rl_step_s =
        ratio(ac.ppo.seconds_per_call, ac.steps_per_update);
    const double covered_s =
        double(pm1.events - pm0.events) * ev.seconds_per_call +
        double(pm1.host_writes - pm0.host_writes) * write.seconds_per_call +
        double(pm1.host_reads - pm0.host_reads) * lookup.seconds_per_call +
        double(pm1.gsb_created - pm0.gsb_created) *
            harvest.seconds_per_call +
        double(pm1.decisions - pm0.decisions) *
            ac.decide.seconds_per_call +
        double(pm1.adm_processed - pm0.adm_processed) / 1000.0 *
            ac.admission.seconds_per_call +
        imitate_calls * ac.imitate.seconds_per_call +
        double(pm1.opt_steps - pm0.opt_steps) * rl_step_s;
    const double measure_sim_s = toSeconds(spec.measure);
    const double m_req = double(measure_requests);

    JsonLine layers;
    layers.num("harness.calibrate_s", phase_s[0])
        .num("harness.build_s", phase_s[1])
        .num("harness.warmup_s", phase_s[2])
        .num("harness.prepare_s", phase_s[3])
        .num("harness.measure_s", phase_s[4])
        .num("harness.collect_s", phase_s[5])
        .num("harness.window_ms_p50", quantileOf(window_ms, 0.50))
        .num("harness.window_ms_p90", quantileOf(window_ms, 0.90))
        .num("harness.unattributed_pct",
             100.0 * (1.0 - ratio(covered_s, prep_meas_s)))
        .num("harness.measure_allocs_per_req",
             ratio(double(c_meas1.allocs - c_meas0.allocs), m_req))
        .num("harness.prepare_allocs_per_window",
             ratio(double(c_meas0.allocs - c_prep0.allocs), prepare_windows))
        .count("sim.events_warmup", c_prep0.events - c_warm0.events)
        .count("sim.events_prepare", c_meas0.events - c_prep0.events)
        .count("sim.events_measure", c_meas1.events - c_meas0.events)
        .num("sim.events_per_req",
             ratio(double(c_meas1.events - c_meas0.events), m_req))
        .count("sim.pending_max", pending_max)
        .num("sim.event_ns", ev.seconds_per_call * 1e9)
        .num("sim.allocs_per_event", ev.allocs_per_call)
        .num("virt.page_ops_per_req",
             ratio(double(c_meas1.page_ops - c_meas0.page_ops), m_req))
        .count("virt.queued_ops_max", queued_max)
        .count("virt.blocked_writes_max", blocked_max)
        .num("virt.sim_queue_wait_us",
             lsWaitUs(tb, {obs::Stage::kQueueWait}))
        .count("ssd.host_pages_written",
               c_meas1.host_writes - c_meas0.host_writes)
        .count("ssd.gc_pages_written", c_meas1.gc_writes - c_meas0.gc_writes)
        .count("ssd.erases", c_meas1.erases - c_meas0.erases)
        .count("ssd.gc_blocks_reclaimed",
               c_meas1.gc_reclaimed - c_meas0.gc_reclaimed)
        .num("ssd.gc_reclaimed_per_vssd_s",
             double(c_meas1.gc_reclaimed - c_meas0.gc_reclaimed) /
                 measure_sim_s / double(tb.vssds().size()))
        .num("ssd.gc_active_windows_pct",
             100.0 * ratio(double(gc_windows), double(measure_windows)))
        .num("ssd.ftl_write_ns", write.seconds_per_call * 1e9)
        .num("ssd.ftl_lookup_ns", lookup.seconds_per_call * 1e9)
        .num("ssd.allocs_per_ftl_write", write.allocs_per_call)
        .num("ssd.sim_chip_wait_us", lsWaitUs(tb, {obs::Stage::kChipWait}))
        .num("ssd.sim_bus_wait_us", lsWaitUs(tb, {obs::Stage::kBusWait}))
        .num("ssd.sim_gc_wait_us",
             lsWaitUs(tb, {obs::Stage::kGcStall,
                           obs::Stage::kGcInterference}))
        .count("harvest.gsb_created", c_end.gsb_created)
        .count("harvest.gsb_harvested", c_end.gsb_harvested)
        .count("harvest.gsb_reclaimed", c_end.gsb_reclaimed)
        .count("harvest.gsb_revoked", c_end.gsb_revoked)
        .count("harvest.gsb_live_max", live_max)
        .num("harvest.make_harvestable_ns", harvest.seconds_per_call * 1e9)
        .num("harvest.allocs_per_make_harvestable", harvest.allocs_per_call)
        .count("core.windows", c_end.windows)
        .count("core.decisions", c_end.decisions)
        .count("core.admission_processed", c_end.adm_processed)
        .count("core.admission_rejected", c_end.adm_rejected)
        .num("core.decide_us", ac.decide.seconds_per_call * 1e6)
        .num("core.admission_1k_us", ac.admission.seconds_per_call * 1e6)
        .num("core.allocs_per_decide", ac.decide.allocs_per_call)
        .num("core.allocs_per_admission_1k", ac.admission.allocs_per_call)
        .count("rl.optimizer_steps", c_end.opt_steps)
        .count("rl.grad_skips", c_end.grad_skips)
        .num("rl.ppo_update_ms", ac.ppo.seconds_per_call * 1e3)
        .num("rl.imitate_us", ac.imitate.seconds_per_call * 1e6)
        .num("rl.allocs_per_ppo_update", ac.ppo.allocs_per_call)
        .num("rl.allocs_per_imitate", ac.imitate.allocs_per_call)
        .count("obs.trace_events", c_end.trace_events)
        .count("obs.trace_dropped", c_end.trace_dropped)
        .num("obs.trace_calls_per_event",
             ratio(double(c_end.trace_events - c_warm0.trace_events),
                   double(c_end.events - c_warm0.events)))
        .count("obs.attr_requests", res.attr_requests)
        .count("stats.samples_retained", c_end.lat_samples)
        .count("workloads.issued", c_end.issued)
        .count("workloads.completed", c_end.completed);
    out.count("min_window_completions", min_window_completions)
        .raw("layers", layers.text());

    if (!spans_path.empty()) {
        std::ofstream os(spans_path);
        L->writeChrome(os);
        if (!os) {
            std::cerr << "simbench_driver: cannot write " << spans_path
                      << "\n";
            return 1;
        }
    }
    std::cout << out.text() << std::endl;
    return 0;
}
