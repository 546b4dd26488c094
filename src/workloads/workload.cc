#include "src/workloads/workload.h"

#include <algorithm>
#include <cassert>

namespace fleetio {

SyntheticWorkload::SyntheticWorkload(const WorkloadProfile &profile,
                                     EventQueue &eq, IoScheduler &sched,
                                     VssdId vssd,
                                     std::uint64_t logical_pages,
                                     std::uint64_t seed)
    : profile_(profile), eq_(eq), sched_(sched), vssd_(vssd),
      logical_pages_(logical_pages), rng_(seed)
{
    assert(logical_pages > 0);
    addr_ = std::make_unique<AddressSpace>(
        logical_pages, profile_.working_set, profile_.num_streams,
        profile_.zipf_skew);
}

void
SyntheticWorkload::start()
{
    if (running_)
        return;
    running_ = true;
    ++generation_;
    if (profile_.mode == WorkloadProfile::Mode::kClosedLoop) {
        for (std::uint32_t i = 0; i < profile_.outstanding; ++i)
            issueOne();
    } else {
        scheduleNextArrival();
    }
}

void
SyntheticWorkload::stop()
{
    running_ = false;
    ++generation_;
}

void
SyntheticWorkload::enableTrace(std::size_t cap)
{
    trace_enabled_ = true;
    trace_cap_ = cap;
    trace_.reserve(std::min<std::size_t>(cap, 1 << 16));
}

void
SyntheticWorkload::morphTo(const WorkloadProfile &profile)
{
    const bool was_running = running_;
    stop();
    profile_ = profile;
    addr_ = std::make_unique<AddressSpace>(
        logical_pages_, profile_.working_set, profile_.num_streams,
        profile_.zipf_skew);
    if (was_running)
        start();
}

bool
SyntheticWorkload::inBurst() const
{
    if (profile_.burst_period == 0 || profile_.burst_factor == 1.0)
        return false;
    const SimTime phase = eq_.now() % profile_.burst_period;
    return double(phase) <
           profile_.burst_duty * double(profile_.burst_period);
}

double
SyntheticWorkload::currentRate() const
{
    double rate = profile_.arrival_iops;
    if (inBurst())
        rate *= profile_.burst_factor;
    return std::max(rate, 1.0);
}

void
SyntheticWorkload::scheduleNextArrival()
{
    if (!running_)
        return;
    const double gap_sec = rng_.exponential(currentRate());
    const SimTime delay = SimTime(gap_sec * 1e9) + 1;
    const std::uint64_t gen = generation_;
    eq_.scheduleAfter(delay, [this, gen]() {
        if (gen != generation_ || !running_)
            return;
        issueOne();
        scheduleNextArrival();
    });
}

IoRequest
SyntheticWorkload::buildRequest()
{
    IoRequest req;
    req.vssd = vssd_;
    req.type = rng_.bernoulli(profile_.read_fraction) ? IoType::kRead
                                                      : IoType::kWrite;
    const std::uint32_t lo = req.type == IoType::kRead
                                 ? profile_.read_pages_min
                                 : profile_.write_pages_min;
    const std::uint32_t hi = req.type == IoType::kRead
                                 ? profile_.read_pages_max
                                 : profile_.write_pages_max;
    req.npages = std::uint32_t(
        rng_.uniformInt(std::int64_t(lo), std::int64_t(hi)));

    Lpa lpa;
    if (rng_.bernoulli(profile_.sequential_fraction)) {
        lpa = addr_->streamNext(addr_->pickStream(rng_), req.npages);
    } else {
        lpa = addr_->randomPage(rng_);
    }
    // Clamp so the span stays inside the logical space.
    const std::uint64_t ws = addr_->workingSetPages();
    if (lpa + req.npages > ws)
        lpa = ws >= req.npages ? ws - req.npages : 0;
    req.lpa = lpa;
    return req;
}

void
SyntheticWorkload::issueOne()
{
    IoRequest req = buildRequest();

    if (trace_enabled_ && trace_.size() < trace_cap_) {
        trace_.push_back(TraceRecord{eq_.now(), req.type, req.lpa,
                                     req.npages});
    }

    const std::uint64_t gen = generation_;
    req.on_complete = [this, gen](const IoRequest &, SimTime) {
        ++completed_;
        if (profile_.mode != WorkloadProfile::Mode::kClosedLoop ||
            !running_ || gen != generation_) {
            return;
        }
        if (profile_.think_mean == 0) {
            issueOne();
            return;
        }
        // Compute phase: the slot reissues after an exponential think
        // time (shrunk by burst_factor during bursts).
        double mean_sec = toSeconds(profile_.think_mean);
        if (inBurst())
            mean_sec /= std::max(profile_.burst_factor, 1.0);
        const double delay_sec = rng_.exponential(1.0 / mean_sec);
        eq_.scheduleAfter(SimTime(delay_sec * 1e9) + 1, [this, gen]() {
            if (running_ && gen == generation_)
                issueOne();
        });
    };
    ++issued_;
    sched_.submit(std::move(req));
}

}  // namespace fleetio
