/**
 * @file
 * The tenant-visible I/O request: a contiguous logical page range with a
 * direction, priority, and completion callback.
 */
#pragma once

#include <cstddef>
#include <cstdint>

#include "src/sim/inline_function.h"
#include "src/sim/types.h"

namespace fleetio {

/**
 * One tenant I/O. Multi-page requests fan out into per-page device
 * operations; the request completes (and its latency is measured) when
 * the last page completes.
 *
 * The caller builds a value and hands it to IoScheduler::submit, which
 * moves it into a pooled slot addressed by a 32-bit id. The slot stays
 * put until on_complete has returned, and its page ops and device
 * completions carry only the id, so a request costs no allocation.
 */
struct IoRequest
{
    VssdId vssd = 0;
    IoType type = IoType::kRead;
    Lpa lpa = 0;                ///< first logical page
    std::uint32_t npages = 1;   ///< pages spanned
    Priority prio = Priority::kMedium;

    SimTime submit_time = 0;    ///< set by the scheduler at submit
    std::uint32_t pages_done = 0;

    /** Deterministic per-scheduler request sequence number, stamped at
     *  submit. Correlates the request's trace-event span. */
    std::uint64_t trace_id = 0;

    /**
     * Inline latency-attribution record (obs::AttributionHub): the
     * per-stage breakdown of the request's last-completing page, whose
     * stage sum equals the end-to-end latency exactly. Written only
     * when an attribution hub is installed; otherwise dead weight. The
     * count mirrors obs::kNumStages (static_assert in attribution.cc)
     * so this hot struct does not pull in the obs layer.
     */
    static constexpr std::size_t kAttrStages = 9;
    SimTime attr_stages[kAttrStages] = {};
    SimTime attr_complete = 0;  ///< completion hint of the stored page

    /** Invoked once, at the completion time of the final page. */
    InlineFunction<void(const IoRequest &, SimTime completion)> on_complete;

    std::uint64_t bytes(std::uint32_t page_size) const
    {
        return std::uint64_t(npages) * page_size;
    }
};

}  // namespace fleetio
