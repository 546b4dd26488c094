/**
 * @file
 * Per-window metrics pipeline (DESIGN.md §9): a registry of named
 * counters / gauges / histograms snapshotted once per decision
 * window into a per-tenant time-series, exported as CSV and JSON so
 * benches can plot util/P99/harvested-BW *over time* instead of run-end
 * means only.
 *
 * Naming convention: per-tenant metrics are prefixed "t<id>." (e.g.
 * "t0.latency_ns", "t1.bytes_written"); device-/controller-level
 * metrics use "device." / "controller." prefixes.
 */
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "src/sim/types.h"
#include "src/stats/histogram.h"

namespace fleetio::obs {

/**
 * Monotonic counter. Two feeding styles: add() for incremental
 * instrumentation, observe() to mirror an existing cumulative counter
 * (e.g. BandwidthMeter::totalBytes) without double bookkeeping. The
 * registry reports the per-window delta at each snapshot.
 */
class Counter
{
  public:
    void add(std::uint64_t n) { total_ += n; }
    void observe(std::uint64_t cumulative) { total_ = cumulative; }
    std::uint64_t total() const { return total_; }

    /** Cumulative growth since the registry baseline. */
    std::uint64_t sinceBaseline() const { return total_ - baseline_; }

  private:
    friend class MetricsRegistry;
    std::uint64_t total_ = 0;
    std::uint64_t marked_ = 0;    ///< value at the last snapshot
    std::uint64_t baseline_ = 0;  ///< value at markBaseline
};

/** Point-in-time value sampled at each window snapshot. */
class Gauge
{
  public:
    void set(double v) { value_ = v; }
    double value() const { return value_; }

  private:
    double value_ = 0.0;
};

/** One metric's value within one window snapshot. */
struct MetricSample
{
    std::string metric;
    char kind = 'g';  ///< 'c'ounter (value = delta), 'g'auge, 'h'istogram
    double value = 0.0;
    std::uint64_t count = 0;  ///< histogram observations this window
    double mean = 0.0;
    std::uint64_t p50 = 0, p95 = 0, p99 = 0, max = 0;
};

/** All metrics at one window boundary. */
struct WindowSnapshot
{
    std::uint64_t index = 0;
    SimTime start = 0;
    SimTime end = 0;
    std::vector<MetricSample> samples;
};

/**
 * The registry. Metric handles are stable for the registry's lifetime
 * (heap-boxed), so instrumentation sites can cache pointers. Not
 * thread-safe by design: one registry belongs to one testbed, driven
 * from that testbed's (single) simulation thread.
 */
class MetricsRegistry
{
  public:
    Counter &counter(const std::string &name);
    Gauge &gauge(const std::string &name);
    /** A histogram of the current window; each snapshot resets it. */
    Histogram &histogram(const std::string &name);

    /**
     * Start the measured region at sim time @p now: drop any snapshots
     * taken so far, mark every counter's baseline, and clear every
     * histogram so warm-up traffic is excluded from the time-series.
     */
    void markBaseline(SimTime now);

    /** Close the window ending at @p now and record one snapshot. */
    void snapshotWindow(SimTime now);

    const std::vector<WindowSnapshot> &windows() const
    {
        return windows_;
    }

    /** A counter's growth since baseline, 0 when never created. */
    std::uint64_t counterSinceBaseline(const std::string &name) const;

    /**
     * CSV time-series, one row per (window, metric):
     * window,t_start_ms,t_end_ms,metric,kind,value,count,mean,p50,p95,p99,max
     * (see EXPERIMENTS.md for the column semantics per kind).
     */
    void writeCsv(std::ostream &os) const;

    /** Same data as JSON (schema "fleetio-metrics-v1"). */
    void writeJson(std::ostream &os) const;

  private:
    // std::map keeps iteration (and thus CSV/JSON row order)
    // deterministic and independent of registration order.
    std::map<std::string, std::unique_ptr<Counter>> counters_;
    std::map<std::string, std::unique_ptr<Gauge>> gauges_;
    std::map<std::string, std::unique_ptr<Histogram>> hists_;
    std::vector<WindowSnapshot> windows_;
    SimTime window_start_ = 0;
};

}  // namespace fleetio::obs
