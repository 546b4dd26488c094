#include "src/ssd/power_loss.h"

namespace fleetio {

PowerLossInjector::PowerLossInjector(EventQueue &eq,
                                     DurabilityModel &durability)
    : eq_(eq), durability_(durability)
{
}

void
PowerLossInjector::arm(const CrashPlan &plan)
{
    plan_ = plan;
    armed_ = plan.enabled();
    phase_remaining_ = plan.phase_skip;
    events_remaining_ = plan.after_events;
    if (!armed_)
        return;
    if (plan_.trigger == CrashPlan::Trigger::kSimTime) {
        eq_.scheduleAt(plan_.at, [this] { crashNow(); });
    } else if (plan_.trigger == CrashPlan::Trigger::kEventCount) {
        eq_.setAfterDispatch([this] {
            if (!armed_)
                return;
            if (events_remaining_ == 0)
                crashNow();
            else
                --events_remaining_;
        });
    }
}

void
PowerLossInjector::crashNow()
{
    if (fired_)
        return;
    armed_ = false;
    fired_ = true;
    crashed_ = true;
    durability_.freeze();
    if (on_crash_)
        on_crash_();
    eq_.halt();
}

}  // namespace fleetio
