/**
 * @file
 * The observability hub (DESIGN.md §9, §13). It owns the sinks a run
 * asked for (Perfetto trace, per-window metrics, latency attribution,
 * agent drift) and has one emit per semantic event, which it forwards
 * to every sink that exists, so no sink knows about another. The
 * testbed builds it only when a sink is on and installs it on the
 * FlashDevice, through which every other component reaches it. Sites
 * outside src/obs emit through FLEETIO_OBS(hub, emit(...)): an obs-off
 * run pays one pointer test per site, evaluates no argument, allocates
 * nothing, and is bit-identical to a run without this layer.
 */
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/obs/attribution.h"
#include "src/obs/drift.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/sim/types.h"

namespace fleetio::obs {

/** Which sinks a run records into. All default off. */
struct ObsSinks
{
    bool trace = false;        ///< trace events (Perfetto export)
    bool metrics = false;      ///< per-window metrics snapshots
    bool attribution = false;  ///< latency attribution, SLO verdicts
    bool drift = false;        ///< agent drift monitors (PSI/KL)

    bool any() const { return trace || metrics || attribution || drift; }
};

/** One tenant at a window boundary, as the testbed samples it; the
 *  samples are indexed by VssdId. */
struct TenantSample
{
    bool live = false;        ///< false once removed
    std::uint64_t bytes = 0;  ///< bytes moved since the last reset
    int tier = 0;             ///< effective QoS tier (> 0 = degraded)
};

/** The metric name "t<id>.<suffix>" of tenant @p id. */
std::string tenantMetric(VssdId id, const char *suffix);

class ObsHub
{
  public:
    /** Events each thread's trace ring keeps before it overwrites the
     *  oldest. The attribution and drift sinks use their Config
     *  defaults: a top-16 slow-request table, an 8-window drift
     *  baseline and a PSI threshold of 0.25. */
    static constexpr std::size_t kTraceRingEvents = std::size_t(1) << 16;

    /** Build the sinks @p sinks asks for. @p channels and @p chips
     *  size the attribution ledgers; the per-tenant bandwidth counters
     *  divide by the sampling @p window. */
    ObsHub(const ObsSinks &sinks, std::size_t channels, std::size_t chips,
           SimTime window);

    // --- sinks, for export and results (nullptr when off) -------------

    TraceRecorder *tracer() const { return trace_.get(); }
    MetricsRegistry *metrics() const { return metrics_.get(); }
    AttributionHub *attribution() const { return attr_.get(); }
    DriftMonitor *drift() const { return drift_.get(); }

    /** Write each sink's artifact: <base>.trace.json,
     *  .attribution.json (drift embedded), .metrics.csv and
     *  .metrics.json; warn on stderr when the trace ring overwrote. */
    void writeArtifacts(const std::string &base) const;

    /**
     * RAII attribution arm: device issues inside the scope are
     * attributed to @p tenant with occupancy kind @p kind. A null hub,
     * or one without attribution, makes it a no-op.
     */
    class Scope
    {
      public:
        Scope(ObsHub *hub, VssdId tenant, SegKind kind)
            : attr_(hub != nullptr ? hub->attr_.get() : nullptr)
        {
            if (attr_ != nullptr)
                attr_->pushContext(tenant, kind);
        }
        ~Scope()
        {
            if (attr_ != nullptr)
                attr_->popContext();
        }
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        AttributionHub *attr_;
    };

    // --- tenants, windows, measurement (Testbed) ----------------------

    /** A tenant named @p name with latency SLO @p slo was created. */
    void tenantAdded(VssdId id, const std::string &name, SimTime slo);

    /** The measured region starts: drop warm-up state everywhere. */
    void measurementStarted(SimTime now,
                            const std::vector<TenantSample> &tenants);

    /** A sampling window closed with device utilization @p util. */
    void windowClosed(SimTime now, double util, std::uint64_t queued_ops,
                      std::uint64_t dispatched_ops,
                      const std::vector<TenantSample> &tenants);

    /** The measured region ended inside a window: fold the partial
     *  window. */
    void measurementEnded(SimTime now,
                          const std::vector<TenantSample> &tenants);

    /** Publish a one-off value (recovery figures) as a gauge. */
    void setGauge(const std::string &name, double value)
    {
        if (metrics_ != nullptr)
            metrics_->gauge(name).set(value);
    }

    // --- requests (IoScheduler) ---------------------------------------

    /** A request entered the scheduler; clears its stage record. */
    void ioSubmit(SimTime now, VssdId v, std::uint64_t req_id, IoType type,
                  std::uint32_t npages, SimTime *stages,
                  SimTime *complete_hint)
    {
        trace(TraceEventType::kIoSubmit, now, tenantTrack(v), req_id,
              std::uint64_t(type), npages);
        if (attr_ != nullptr)
            attr_->resetRequest(stages, complete_hint);
    }

    /** A page op left channel @p ch's queue after @p queue_wait and
     *  was issued under the current arm scope. */
    void ioDispatch(SimTime now, VssdId v, std::uint64_t req_id,
                    ChannelId ch, SimTime gc_stall, SimTime queue_wait,
                    SimTime *stages, SimTime *complete_hint)
    {
        trace(TraceEventType::kIoDispatch, now, tenantTrack(v), req_id, ch,
              0, toMicros(queue_wait));
        if (attr_ != nullptr) {
            attr_->finishHostPage(gc_stall, queue_wait, stages,
                                  complete_hint);
        }
    }

    /** A read page was satisfied without a device op (unwritten LPA). */
    void zeroFillPage(VssdId v, SimTime latency, SimTime complete,
                      SimTime *stages, SimTime *complete_hint)
    {
        if (attr_ != nullptr)
            attr_->zeroFillPage(v, latency, complete, stages, complete_hint);
    }

    /** A request's final page completed. */
    void ioComplete(SimTime now, VssdId v, std::uint64_t req_id,
                    IoType type, SimTime submit, std::uint64_t bytes,
                    const SimTime *stages);

    // --- device reservations (FlashDevice) ----------------------------

    /** A page read was reserved (@p host false = GC copyback read). */
    void noteRead(bool host, ChannelId ch, std::size_t chip, SimTime now,
                  SimTime chip_free, SimTime read_done, SimTime retry_extra,
                  SimTime bus_free, SimTime complete)
    {
        if (attr_ != nullptr) {
            attr_->noteRead(ch, chip, now, chip_free, read_done,
                            retry_extra, bus_free, complete);
        }
        if (!host)
            trace(TraceEventType::kGcRead, now, channelTrack(ch));
    }

    /** A page program was reserved (@p host false = GC copyback). */
    void noteProgram(bool host, ChannelId ch, std::size_t chip,
                     SimTime now, SimTime bus_free, SimTime xfer_done,
                     SimTime chip_free, SimTime complete)
    {
        if (attr_ != nullptr) {
            attr_->noteProgram(ch, chip, now, bus_free, xfer_done,
                               chip_free, complete);
        }
        if (!host)
            trace(TraceEventType::kGcProgram, now, channelTrack(ch));
    }

    /** A block erase was reserved. */
    void noteErase(ChannelId ch, std::size_t chip, SimTime now,
                   SimTime chip_free, SimTime complete)
    {
        if (attr_ != nullptr)
            attr_->noteErase(ch, chip, now, chip_free, complete);
        trace(TraceEventType::kGcErase, now, channelTrack(ch));
    }

    /** Power loss: in-flight reservations are void, and stale
     *  occupancy segments would blame post-recovery waits on pre-crash
     *  tenants. */
    void powerLost()
    {
        if (attr_ != nullptr)
            attr_->crashReset();
    }

    // --- GC and gSBs --------------------------------------------------

    /** A GC victim was picked and its migration batch starts. */
    void gcBatch(SimTime now, VssdId v, ChannelId ch, std::uint32_t npages)
    {
        trace(TraceEventType::kGcBatch, now, channelTrack(ch), 0, v, npages);
    }

    /** A gSB lifecycle point, @p type one of the kGsb* trace types. */
    void gsbEvent(SimTime now, TraceEventType type, VssdId tenant,
                  std::uint64_t gsb_id, std::uint32_t channels);

    // --- agents (FleetIoController, AgentSupervisor) ------------------

    void controllerStarted()
    {
        if (metrics_ != nullptr)
            windows_ctr_ = &metrics_->counter("controller.windows");
    }

    /** The controller closed decision window @p window (counted from
     *  its start, not from the measurement): count it and close the
     *  drift window of every agent that decided in it. */
    void decisionWindow(std::uint64_t window);

    void agentReward(SimTime now, VssdId v, double reward)
    {
        if (trace_ != nullptr) {
            trace(TraceEventType::kAgentReward, now, tenantTrack(v), 0, 0,
                  0, reward);
            counter(now, tenantTrack(v), CounterKind::kReward, reward);
        }
        if (metrics_ != nullptr)
            metrics_->gauge(tenantMetric(v, "reward")).set(reward);
    }

    void agentDecide(SimTime now, VssdId v, std::uint64_t action_code)
    {
        trace(TraceEventType::kAgentDecide, now, tenantTrack(v), 0,
              action_code);
        if (drift_ != nullptr) {
            drift_->recordAction(v, action_code);
            decided_.push_back(v);
        }
    }

    void agentTrip(SimTime now, VssdId v, std::uint64_t reason)
    {
        trace(TraceEventType::kAgentTrip, now, tenantTrack(v), 0, reason);
    }

    void agentRemoved(VssdId v)
    {
        if (drift_ != nullptr)
            drift_->removeAgent(v);
    }

    /** Did the last decisionWindow flag @p v's action distribution?
     *  Informational only: never feeds back into a decision. `latest`
     *  sticks around after a quiet window, so only a score minted by
     *  that roll counts. */
    bool driftFlagged(VssdId v) const
    {
        if (drift_ == nullptr)
            return false;
        const DriftMonitor::Score s = drift_->latest(v);
        return s.flagged && s.window == drift_->windowsSeen();
    }

  private:
    struct TenantMetrics
    {
        Histogram *latency = nullptr;
        Counter *read_bytes = nullptr;
        Counter *write_bytes = nullptr;
        Counter *requests = nullptr;
    };

    /** Record one trace event; the fields not given stay zero. */
    void trace(TraceEventType type, SimTime ts, std::uint16_t track,
               std::uint64_t id = 0, std::uint64_t a = 0,
               std::uint64_t b = 0, double value = 0.0)
    {
        if (trace_ != nullptr) {
            trace_->record({ts, id, a, b, value, type,
                            CounterKind::kBandwidthMBps, track});
        }
    }

    /** Record one counter-track sample (trace on). */
    void counter(SimTime ts, std::uint16_t track, CounterKind kind,
                 double value)
    {
        trace_->record(
            {ts, 0, 0, 0, value, TraceEventType::kCounter, kind, track});
    }

    void rollAttribution(SimTime now,
                         const std::vector<TenantSample> &tenants);

    std::unique_ptr<TraceRecorder> trace_;
    std::unique_ptr<MetricsRegistry> metrics_;
    std::unique_ptr<AttributionHub> attr_;
    std::unique_ptr<DriftMonitor> drift_;
    SimTime window_len_;

    std::uint64_t window_ = 0;  ///< sampling windows since measurement
    std::vector<std::uint64_t> last_bytes_;  ///< [vssd] at last window
    std::vector<int> tiers_;                 ///< [vssd] verdict input
    std::vector<VssdId> decided_;  ///< agents in the open drift window
    std::vector<TenantMetrics> tenant_metrics_;  ///< [vssd], lazy
    Counter *windows_ctr_ = nullptr;
};

}  // namespace fleetio::obs

/**
 * Instrumentation-site guard: evaluates @p hub_expr once and, when it
 * is non-null, calls the emit @p call on it. A null hub evaluates none
 * of the emit's arguments.
 */
#define FLEETIO_OBS(hub_expr, call)                              \
    do {                                                         \
        ::fleetio::obs::ObsHub *fio_obs__ = (hub_expr);          \
        if (fio_obs__ != nullptr)                                \
            fio_obs__->call;                                     \
    } while (0)
