#include "src/core/admission_control.h"

#include <algorithm>

namespace fleetio {

AdmissionControl::AdmissionControl(GsbManager &gsb, EventQueue &eq,
                                   SimTime batch_interval)
    : gsb_(gsb), eq_(eq), interval_(batch_interval)
{
}

void
AdmissionControl::submit(PendingAction action)
{
    action.seq = next_seq_++;
    if (permit_ && !permit_(action)) {
        ++rejected_;
        return;
    }
    batch_.push_back(action);
}

void
AdmissionControl::flush()
{
    if (batch_.empty())
        return;
    std::vector<PendingAction> batch;
    batch.swap(batch_);

    // Providers first: Make_Harvestable before Harvest maximizes the
    // supply visible to this batch's harvest requests (§3.5).
    std::stable_sort(batch.begin(), batch.end(),
                     [](const PendingAction &a, const PendingAction &b) {
        if (a.type != b.type) {
            return a.type == PendingAction::Type::kMakeHarvestable;
        }
        if (a.type == PendingAction::Type::kHarvest) {
            return a.seq < b.seq;  // FCFS among harvests
        }
        return a.seq < b.seq;
    });

    // Contention policy: when harvest demand exceeds the pool supply,
    // serve vSSDs holding the fewest harvested channels first.
    const std::uint64_t supply = gsb_.pool().availableChannels();
    std::uint64_t demand = 0;
    for (const auto &a : batch) {
        if (a.type == PendingAction::Type::kHarvest)
            demand += std::uint64_t(a.bw_mbps / 64.0);
    }
    if (demand > supply) {
        std::stable_sort(batch.begin(), batch.end(),
                         [this](const PendingAction &a,
                                const PendingAction &b) {
            if (a.type != b.type) {
                return a.type ==
                       PendingAction::Type::kMakeHarvestable;
            }
            if (a.type == PendingAction::Type::kHarvest) {
                return gsb_.heldChannels(a.vssd) <
                       gsb_.heldChannels(b.vssd);
            }
            return a.seq < b.seq;
        });
    }

    for (const auto &a : batch) {
        if (a.type == PendingAction::Type::kMakeHarvestable)
            gsb_.makeHarvestable(a.vssd, a.bw_mbps);
        else
            gsb_.harvest(a.vssd, a.bw_mbps);
        ++processed_;
    }
}

void
AdmissionControl::start()
{
    if (running_)
        return;
    running_ = true;
    scheduleFlush();
}

void
AdmissionControl::scheduleFlush()
{
    eq_.scheduleAfter(interval_, [this]() {
        if (!running_)
            return;
        flush();
        scheduleFlush();
    });
}

}  // namespace fleetio
