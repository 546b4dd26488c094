#include "src/obs/drift.h"

#include <algorithm>
#include <cmath>
#include <ostream>

#include "src/obs/json.h"

namespace fleetio::obs {

DriftMonitor::Agent &
DriftMonitor::agent(VssdId id)
{
    if (agents_.size() <= id)
        agents_.resize(id + 1);
    agents_[id].live = true;
    return agents_[id];
}

void
DriftMonitor::recordAction(VssdId id, std::uint64_t action_code)
{
    ++agent(id).window[action_code % kBins];
}

void
DriftMonitor::rollWindow()
{
    ++windows_seen_;
    const bool filling = windows_seen_ <= cfg_.baseline_windows;
    if (!filling)
        ++windows_scored_;
    for (VssdId id = 0; id < agents_.size(); ++id) {
        Agent &a = agents_[id];
        if (!a.live)
            continue;
        std::uint64_t total = 0;
        for (std::uint64_t v : a.window)
            total += v;
        if (filling) {
            for (std::size_t b = 0; b < kBins; ++b)
                a.baseline[b] += a.window[b];
            a.baseline_total += total;
        } else if (total > 0 && a.baseline_total > 0) {
            // Epsilon-smoothed shares: every bin of both distributions
            // gets kEpsilon pseudo-counts, so log terms are finite.
            const double eps = kEpsilon;
            const double bden = double(a.baseline_total) + eps * kBins;
            const double wden = double(total) + eps * kBins;
            double psi = 0.0;
            double kl = 0.0;
            for (std::size_t b = 0; b < kBins; ++b) {
                const double p = (double(a.window[b]) + eps) / wden;
                const double q = (double(a.baseline[b]) + eps) / bden;
                const double lr = std::log(p / q);
                psi += (p - q) * lr;
                kl += p * lr;
            }
            Score s;
            s.tenant = id;
            s.window = windows_seen_;
            s.psi = psi;
            s.kl = std::max(kl, 0.0);
            s.flagged = psi > cfg_.psi_threshold;
            a.last = s;
            scores_.push_back(s);
            max_psi_ = std::max(max_psi_, psi);
        }
        a.window = {};
    }
}

void
DriftMonitor::markBaseline()
{
    for (Agent &a : agents_) {
        a.window = {};
        a.baseline = {};
        a.baseline_total = 0;
        a.last = Score{};
    }
    windows_seen_ = 0;
    windows_scored_ = 0;
    max_psi_ = 0.0;
    scores_.clear();
}

void
DriftMonitor::removeAgent(VssdId id)
{
    if (id < agents_.size())
        agents_[id] = Agent{};
}

DriftMonitor::Score
DriftMonitor::latest(VssdId id) const
{
    if (id < agents_.size())
        return agents_[id].last;
    return Score{};
}

std::uint64_t
DriftMonitor::flaggedWindows(VssdId id) const
{
    std::uint64_t n = 0;
    for (const Score &s : scores_)
        if (s.flagged && (id == kNoVssd || s.tenant == id))
            ++n;
    return n;
}

void
DriftMonitor::writeJson(std::ostream &os) const
{
    os << '[';
    for (std::size_t i = 0; i < scores_.size(); ++i) {
        const Score &s = scores_[i];
        os << (i ? "," : "") << "{\"tenant\":" << s.tenant
           << ",\"window\":" << s.window
           << ",\"psi\":" << jsonNumber(s.psi)
           << ",\"kl\":" << jsonNumber(s.kl)
           << ",\"flagged\":" << (s.flagged ? "true" : "false") << '}';
    }
    os << ']';
}

}  // namespace fleetio::obs
