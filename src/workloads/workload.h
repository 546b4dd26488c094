/**
 * @file
 * Synthetic cloud-workload generator framework. Each of the paper's
 * applications (Table 4 plus the pre-training set) is modelled as a
 * parameter profile: arrival process, read/write mix, request sizes,
 * and address pattern — the block-level features FleetIO observes.
 */
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/sim/event_queue.h"
#include "src/sim/rng.h"
#include "src/sim/types.h"
#include "src/virt/io_request.h"
#include "src/virt/io_scheduler.h"
#include "src/workloads/address_space.h"

namespace fleetio {

/** Block-level trace record used by the clustering module. */
struct TraceRecord
{
    SimTime time;
    IoType type;
    Lpa lpa;
    std::uint32_t npages;
};

/** Tunables defining one synthetic application. */
struct WorkloadProfile
{
    std::string name = "generic";

    /** Closed loop keeps N requests in flight (bandwidth-bound apps);
     *  open loop issues Poisson arrivals (latency-bound apps). */
    enum class Mode { kOpenLoop, kClosedLoop };
    Mode mode = Mode::kOpenLoop;

    double arrival_iops = 1000.0;   ///< open-loop mean arrival rate
    std::uint32_t outstanding = 16; ///< closed-loop concurrency

    double read_fraction = 0.7;     ///< request-level read probability
    std::uint32_t read_pages_min = 1, read_pages_max = 1;
    std::uint32_t write_pages_min = 1, write_pages_max = 1;

    double sequential_fraction = 0.0;  ///< stream-continuation probability
    std::uint32_t num_streams = 1;
    double working_set = 0.8;          ///< fraction of logical space
    double zipf_skew = 0.0;            ///< random-access skew

    /**
     * Closed-loop think time: mean (exponential) delay between a
     * request's completion and the slot's next issue, modelling the
     * application's compute phase. 0 = reissue immediately (pure
     * device-bound). This is what makes bandwidth-intensive apps
     * application-limited on average yet bursty — the fluctuation
     * FleetIO harvests.
     */
    SimTime think_mean = 0;

    /**
     * Burst modulation during the first burst_duty of every
     * burst_period: open-loop arrival rate is multiplied by
     * burst_factor; closed-loop think time is divided by it.
     */
    double burst_factor = 1.0;
    SimTime burst_period = 0;
    double burst_duty = 0.0;
};

/**
 * Drives one vSSD with I/O generated from a WorkloadProfile. The
 * generator owns its RNG (seeded per instance) so collocated workloads
 * are independent and runs are reproducible.
 */
class SyntheticWorkload
{
  public:
    SyntheticWorkload(const WorkloadProfile &profile, EventQueue &eq,
                      IoScheduler &sched, VssdId vssd,
                      std::uint64_t logical_pages, std::uint64_t seed);

    const std::string &name() const { return profile_.name; }
    const WorkloadProfile &profile() const { return profile_; }
    VssdId vssd() const { return vssd_; }

    /** Begin generating I/O. */
    void start();

    /** Stop issuing new requests (in-flight ones drain normally). */
    void stop();

    /** Requests issued / completed so far. */
    std::uint64_t issued() const { return issued_; }
    std::uint64_t completed() const { return completed_; }

    /** Enable block-trace capture (for clustering), up to @p cap. */
    void enableTrace(std::size_t cap = 200000);
    const std::vector<TraceRecord> &trace() const { return trace_; }

    /**
     * Swap the generator's behaviour profile at runtime (robustness
     * experiments, §4.6). Address state is rebuilt.
     */
    void morphTo(const WorkloadProfile &profile);

  private:
    void scheduleNextArrival();
    void issueOne();
    IoRequest buildRequest();
    double currentRate() const;
    bool inBurst() const;

    WorkloadProfile profile_;
    EventQueue &eq_;
    IoScheduler &sched_;
    VssdId vssd_;
    std::uint64_t logical_pages_;
    Rng rng_;
    std::unique_ptr<AddressSpace> addr_;

    bool running_ = false;
    std::uint64_t generation_ = 0;  ///< invalidates stale arrival events
    std::uint64_t issued_ = 0;
    std::uint64_t completed_ = 0;

    bool trace_enabled_ = false;
    std::size_t trace_cap_ = 0;
    std::vector<TraceRecord> trace_;
};

}  // namespace fleetio
