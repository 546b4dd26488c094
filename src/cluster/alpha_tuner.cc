#include "src/cluster/alpha_tuner.h"

namespace fleetio {

double
AlphaTuner::tune(const EvalFn &eval, const Config &cfg)
{
    double lo = cfg.lo;
    double hi = cfg.hi;

    // Early exits at the interval ends.
    if (eval(lo).slo_violation <= kViolationThreshold)
        return lo;
    if (eval(hi).slo_violation > kViolationThreshold)
        return hi;

    for (int i = 0; i < cfg.iterations; ++i) {
        const double mid = 0.5 * (lo + hi);
        const AlphaOutcome out = eval(mid);
        if (out.slo_violation <= kViolationThreshold)
            hi = mid;  // admissible: try smaller alpha (more bandwidth)
        else
            lo = mid;
    }
    return hi;
}

double
AlphaTuner::tune(const EvalFn &eval)
{
    return tune(eval, Config{});
}

}  // namespace fleetio
