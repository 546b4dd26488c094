/**
 * @file
 * Wall-clock phase profiler for the experiment harness: attributes a
 * run's wall time (and dispatched sim events) to its phases — calibrate,
 * build, warmup, prepare, measure, collect — feeding the "phases" block
 * of the fleetio-bench-v1 BenchReport.
 *
 * Wall-clock readings are inherently nondeterministic, so phase data
 * only ever flows into the opt-in JSON perf record, never into bench
 * stdout (which must stay byte-identical across runs).
 */
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace fleetio::obs {

/** One attributed phase. */
struct Phase
{
    std::string name;
    double wall_seconds = 0.0;
    std::uint64_t sim_events = 0;  ///< events dispatched in this phase
};

/**
 * begin() opens a phase (closing any open one); end() closes the
 * current phase. Callers pass the current dispatched-event count so
 * sim work is attributed alongside wall time.
 */
class PhaseProfiler
{
  public:
    /** Room for the harness's six phases up front, so that opening and
     *  closing them allocates nothing (runExperiment's step hooks may
     *  count the heap allocations between phases). */
    PhaseProfiler() { phases_.reserve(6); }

    void begin(const std::string &name, std::uint64_t sim_events_now = 0);
    void end(std::uint64_t sim_events_now = 0);

    const std::vector<Phase> &phases() const { return phases_; }

    /** Sum of closed-phase wall seconds. */
    double totalSeconds() const;

  private:
    // fleetio-lint: allow(nondeterminism): wall-clock phase attribution
    // is the whole point of the profiler; results are reporting-only.
    using Clock = std::chrono::steady_clock;

    std::vector<Phase> phases_;
    bool open_ = false;
    std::string open_name_;
    Clock::time_point open_t0_;
    std::uint64_t open_ev0_ = 0;
};

}  // namespace fleetio::obs
