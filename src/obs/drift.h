/**
 * @file
 * Agent drift monitors (DESIGN.md §13): per-agent windowed
 * action-distribution divergence against a recorded baseline.
 *
 * Each decision window, every agent's chosen action codes feed a small
 * fixed-bin histogram. The first `baseline_windows` windows after a
 * markBaseline() are pooled into the agent's reference distribution;
 * every window after that is scored against the reference with PSI
 * (population stability index) and KL divergence, both epsilon-smoothed
 * so empty bins stay finite. A window whose PSI exceeds the threshold
 * is flagged — an *informational* signal (surfaced to AgentSupervisor
 * and exported as gauges), never a behavior change: the monitor draws
 * no randomness and never feeds back into decisions.
 */
#pragma once

#include <array>
#include <cstdint>
#include <iosfwd>
#include <vector>

#include "src/sim/types.h"

namespace fleetio::obs {

class DriftMonitor
{
  public:
    /** Action codes are folded into this many histogram bins. */
    static constexpr std::size_t kBins = 16;

    /** Smoothing mass added to every bin of both distributions. */
    static constexpr double kEpsilon = 0.5;

    struct Config
    {
        /** Windows pooled into the reference distribution. */
        std::uint64_t baseline_windows = 8;

        /** PSI above this flags the window. 0.25 is the conventional
         *  "significant shift" threshold. */
        double psi_threshold = 0.25;
    };

    /** One scored (post-baseline) window for one agent. */
    struct Score
    {
        VssdId tenant = kNoVssd;
        std::uint64_t window = 0;  ///< windows since markBaseline
        double psi = 0.0;
        double kl = 0.0;
        bool flagged = false;
    };

    DriftMonitor() = default;
    explicit DriftMonitor(const Config &cfg) : cfg_(cfg) {}

    /** Record one decision (called once per agent per window). */
    void recordAction(VssdId id, std::uint64_t action_code);

    /**
     * Close the current window: pool it into the baseline while the
     * baseline is still filling, score it otherwise.
     */
    void rollWindow();

    /** Restart baseline capture (beginMeasurement). */
    void markBaseline();

    /** Forget an agent entirely (tenant removal). */
    void removeAgent(VssdId id);

    // --- results -------------------------------------------------------

    /** Latest scored window for @p id; psi/kl are 0 before scoring
     *  starts. */
    Score latest(VssdId id) const;

    /** Every scored window, in (window, tenant) order. */
    const std::vector<Score> &scores() const { return scores_; }

    /** Flagged windows for @p id (all agents when id == kNoVssd). */
    std::uint64_t flaggedWindows(VssdId id = kNoVssd) const;

    double maxPsi() const { return max_psi_; }
    std::uint64_t windowsScored() const { return windows_scored_; }
    std::uint64_t windowsSeen() const { return windows_seen_; }

    /** JSON array of per-window scores (embedded in the attribution
     *  artifact). */
    void writeJson(std::ostream &os) const;

  private:
    struct Agent
    {
        bool live = false;
        std::array<std::uint64_t, kBins> window{};
        std::array<std::uint64_t, kBins> baseline{};
        std::uint64_t baseline_total = 0;
        Score last{};
    };

    Agent &agent(VssdId id);

    Config cfg_;
    std::vector<Agent> agents_;
    std::uint64_t windows_seen_ = 0;    ///< since markBaseline
    std::uint64_t windows_scored_ = 0;  ///< post-baseline windows
    double max_psi_ = 0.0;
    std::vector<Score> scores_;
};

}  // namespace fleetio::obs
