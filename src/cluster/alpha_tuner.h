/**
 * @file
 * Per-workload-type reward tuning (paper §3.4): binary-search the
 * reward coefficient alpha in [0, 1] for the smallest value whose SLO
 * violation rate stays at or under 5 % while maximizing delivered
 * bandwidth.
 */
#pragma once

#include <functional>

namespace fleetio {

/** Outcome of evaluating one candidate alpha. */
struct AlphaOutcome
{
    double slo_violation = 0.0;  ///< fraction in [0, 1]
    double bandwidth_mbps = 0.0;
};

/**
 * Tuner over a caller-provided evaluation oracle (typically: run the
 * cluster's representative workload under FleetIO with the candidate
 * alpha and measure).
 */
class AlphaTuner
{
  public:
    using EvalFn = std::function<AlphaOutcome(double alpha)>;

    /** Highest admissible SLO-violation fraction (5 %, paper default). */
    static constexpr double kViolationThreshold = 0.05;

    struct Config
    {
        int iterations = 8;  ///< binary-search depth
        double lo = 0.0;
        double hi = 1.0;
    };

    /**
     * Binary search assuming SLO violations decrease (weakly) in alpha:
     * returns the smallest alpha meeting the threshold — i.e. the most
     * bandwidth-favouring admissible reward. Falls back to @p hi when
     * even alpha = hi violates the threshold.
     */
    static double tune(const EvalFn &eval, const Config &cfg);
    static double tune(const EvalFn &eval);
};

}  // namespace fleetio
