#include "src/harness/reporting.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iomanip>
#include <sstream>

#include "src/obs/json_reader.h"

namespace fleetio {

Table::Table(std::vector<std::string> headers)
    : headers_(std::move(headers))
{
}

void
Table::addRow(std::vector<std::string> cells)
{
    cells.resize(headers_.size());
    rows_.push_back(std::move(cells));
}

void
Table::print(std::ostream &os) const
{
    std::vector<std::size_t> widths(headers_.size());
    for (std::size_t c = 0; c < headers_.size(); ++c)
        widths[c] = headers_[c].size();
    for (const auto &row : rows_) {
        for (std::size_t c = 0; c < row.size(); ++c)
            widths[c] = std::max(widths[c], row[c].size());
    }

    auto line = [&](const std::vector<std::string> &cells) {
        for (std::size_t c = 0; c < cells.size(); ++c) {
            os << std::left << std::setw(int(widths[c]) + 2)
               << cells[c];
        }
        os << '\n';
    };
    line(headers_);
    std::string sep;
    for (std::size_t c = 0; c < headers_.size(); ++c)
        sep += std::string(widths[c], '-') + "  ";
    os << sep << '\n';
    for (const auto &row : rows_)
        line(row);
}

void
Table::printCsv(std::ostream &os) const
{
    // RFC 4180: cells containing commas, quotes, or line breaks are
    // quoted with embedded quotes doubled (csvField); everything else
    // is emitted byte-for-byte as before.
    auto line = [&](const std::vector<std::string> &cells) {
        for (std::size_t c = 0; c < cells.size(); ++c) {
            if (c)
                os << ',';
            os << csvField(cells[c]);
        }
        os << '\n';
    };
    line(headers_);
    for (const auto &row : rows_)
        line(row);
}

std::string
fmtDouble(double v, int precision)
{
    std::ostringstream ss;
    ss << std::fixed << std::setprecision(precision) << v;
    return ss.str();
}

std::string
fmtPercent(double fraction, int precision)
{
    return fmtDouble(fraction * 100.0, precision) + "%";
}

std::string
fmtLatencyMs(SimTime ns, int precision)
{
    return fmtDouble(toMillis(ns), precision) + "ms";
}

double
normalizeTo(double value, double base)
{
    return base > 0 ? value / base : 0.0;
}

void
printExperimentSummary(const ExperimentResult &res, std::ostream &os)
{
    os << res.policy << ": util=" << fmtPercent(res.avg_util)
       << " (p95 " << fmtPercent(res.p95_util) << ")"
       << ", WA=" << fmtDouble(res.write_amp) << '\n';
}

void
printExperimentDetail(const ExperimentResult &res, std::ostream &os)
{
    os << "== " << res.policy << " ==\n";
    Table t({"tenant", "type", "BW (MB/s)", "IOPS", "P50", "P95",
             "P99", "P99.9", "SLO vio"});
    for (const auto &ten : res.tenants) {
        t.addRow({ten.workload,
                  ten.bandwidth_intensive ? "BI" : "LS",
                  fmtDouble(ten.avg_bw_mbps, 1),
                  fmtDouble(ten.iops, 0),
                  fmtLatencyMs(ten.p50),
                  fmtLatencyMs(ten.p95),
                  fmtLatencyMs(ten.p99),
                  fmtLatencyMs(ten.p999),
                  fmtPercent(ten.slo_violation)});
    }
    t.print(os);
    os << "device util avg=" << fmtPercent(res.avg_util) << " p95="
       << fmtPercent(res.p95_util)
       << " write-amp=" << fmtDouble(res.write_amp) << "\n";
    printFaultSummary(res, os);
    printSupervisionSummary(res, os);
    printChurnSummary(res, os);
    printAttributionSummary(res, os);
    os << '\n';
}

BenchReport::BenchReport(std::string name)
    // fleetio-lint: allow(nondeterminism): perf-tracking wall time —
    // reported as cells/sec metadata, never fed into the simulation.
    : name_(std::move(name)), start_(std::chrono::steady_clock::now())
{
}

void
BenchReport::addCell(const std::string &label,
                     const ExperimentResult &res)
{
    Cell c;
    c.label = label;
    c.sim_events = res.sim_events;
    c.metrics["avg_util"] = res.avg_util;
    c.metrics["p95_util"] = res.p95_util;
    c.metrics["write_amp"] = res.write_amp;
    c.metrics["agg_bw_mbps"] = res.aggregateBwMBps();
    c.metrics["ls_p99_ns"] = res.meanLatencySensitiveP99();
    c.metrics["bi_bw_mbps"] = res.meanBandwidthIntensiveBw();
    if (res.faults.total() != 0) {
        c.metrics["fault_events"] = double(res.faults.total());
        c.metrics["blocks_retired"] = double(res.blocks_retired);
    }
    if (res.churn.arrivals != 0 || res.churn.removals_requested != 0) {
        c.metrics["churn_arrivals"] = double(res.churn.arrivals);
        c.metrics["churn_admitted"] = double(res.churn.admitted);
        c.metrics["churn_rejected"] = double(res.churn.rejected);
        c.metrics["churn_removals"] =
            double(res.churn.removals_completed);
        c.metrics["tier_stepdowns"] = double(res.churn.tier_stepdowns);
    }
    if (res.agent_trips != 0 || res.agent_grad_skips != 0 ||
        res.agent_checkpoints != 0) {
        c.metrics["agent_trips"] = double(res.agent_trips);
        c.metrics["agent_restores"] = double(res.agent_restores);
        c.metrics["agent_reinits"] = double(res.agent_reinits);
        c.metrics["agent_fallback_windows"] =
            double(res.agent_fallback_windows);
        c.metrics["agent_lease_releases"] =
            double(res.agent_lease_releases);
        c.metrics["agent_grad_skips"] = double(res.agent_grad_skips);
        c.metrics["agent_checkpoints"] = double(res.agent_checkpoints);
    }
    if (res.attr_requests != 0) {
        c.metrics["attr_requests"] = double(res.attr_requests);
        c.metrics["attr_sum_mismatches"] =
            double(res.attr_sum_mismatches);
        c.metrics["slo_verdicts"] = double(res.slo_verdicts);
        c.metrics["verdict_self_load"] = double(res.verdict_self_load);
        c.metrics["verdict_gc"] = double(res.verdict_gc);
        c.metrics["verdict_neighbor"] = double(res.verdict_neighbor);
        c.metrics["verdict_tier"] = double(res.verdict_tier);
        c.metrics["verdict_retry"] = double(res.verdict_retry);
    }
    if (res.drift_windows_scored != 0) {
        c.metrics["drift_windows_scored"] =
            double(res.drift_windows_scored);
        c.metrics["drift_flags"] = double(res.drift_flags);
        c.metrics["max_drift_psi"] = res.max_drift_psi;
    }
    // The policy travels in the label-free metrics map as a side
    // string; keep it in the label instead when the caller didn't.
    if (c.label.find(res.policy) == std::string::npos)
        c.label += " / " + res.policy;
    cells_.push_back(std::move(c));
    for (const auto &p : res.phases) {
        PhaseTotal &t = phase_totals_[p.name];
        t.wall_seconds += p.wall_seconds;
        t.sim_events += p.sim_events;
    }
}

void
BenchReport::addCell(const std::string &label,
                     const std::map<std::string, double> &metrics,
                     std::uint64_t sim_events)
{
    cells_.push_back(Cell{label, metrics, sim_events});
}

void
BenchReport::setMetric(const std::string &key, double value)
{
    metrics_[key] = value;
}

double
BenchReport::elapsedSeconds() const
{
    // fleetio-lint: allow(nondeterminism): perf-tracking wall time —
    // bench throughput metadata, never fed into the simulation.
    const auto now = std::chrono::steady_clock::now();
    return std::chrono::duration<double>(now - start_).count();
}

std::uint64_t
BenchReport::totalSimEvents() const
{
    std::uint64_t total = 0;
    for (const auto &c : cells_)
        total += c.sim_events;
    return total;
}

void
BenchReport::writeJson(std::ostream &os) const
{
    const double wall = elapsedSeconds();
    const std::uint64_t events = totalSimEvents();
    os << "{\n";
    os << "  \"schema\": \"fleetio-bench-v1\",\n";
    os << "  \"bench\": \"" << jsonEscape(name_) << "\",\n";
    os << "  \"jobs\": " << jobs_ << ",\n";
    os << "  \"cells\": " << cells_.size() << ",\n";
    os << "  \"wall_seconds\": " << jsonNumber(wall) << ",\n";
    os << "  \"cells_per_sec\": "
       << jsonNumber(wall > 0 ? double(cells_.size()) / wall : 0.0)
       << ",\n";
    os << "  \"sim_events\": " << events << ",\n";
    os << "  \"events_per_sec\": "
       << jsonNumber(wall > 0 ? double(events) / wall : 0.0) << ",\n";
    os << "  \"metrics\": {";
    bool first = true;
    for (const auto &[k, v] : metrics_) {
        os << (first ? "" : ",") << "\n    \"" << jsonEscape(k)
           << "\": " << jsonNumber(v);
        first = false;
    }
    os << (metrics_.empty() ? "" : "\n  ") << "},\n";
    os << "  \"phases\": {";
    first = true;
    for (const auto &[k, t] : phase_totals_) {
        os << (first ? "" : ",") << "\n    \"" << jsonEscape(k)
           << "\": {\"wall_seconds\": " << jsonNumber(t.wall_seconds)
           << ", \"sim_events\": " << t.sim_events << "}";
        first = false;
    }
    os << (phase_totals_.empty() ? "" : "\n  ") << "},\n";
    os << "  \"results\": [";
    for (std::size_t i = 0; i < cells_.size(); ++i) {
        const Cell &c = cells_[i];
        os << (i ? "," : "") << "\n    {\"label\": \""
           << jsonEscape(c.label) << "\", \"sim_events\": "
           << c.sim_events;
        for (const auto &[k, v] : c.metrics)
            os << ", \"" << jsonEscape(k) << "\": " << jsonNumber(v);
        os << "}";
    }
    os << (cells_.empty() ? "" : "\n  ") << "]\n";
    os << "}\n";
}

bool
BenchReport::writeIfEnabled(int argc, const char *const *argv,
                            std::ostream &log) const
{
    (void)finish(argc, argv, log);
    return wrote_last_;
}

int
BenchReport::finish(int argc, const char *const *argv,
                    std::ostream &log) const
{
    wrote_last_ = false;
    bool enabled = false;
    bool regressed = false;
    std::string dir;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--json") == 0)
            enabled = true;
        if (std::strcmp(argv[i], "--baseline") == 0 && i + 1 < argc)
            regressed = compareToBaseline(argv[i + 1], log) || regressed;
    }
    if (const char *env = std::getenv("FLEETIO_BENCH_JSON")) {
        if (std::strcmp(env, "0") != 0 && *env != '\0') {
            enabled = true;
            if (std::strchr(env, '/') != nullptr)
                dir = env;
        }
    }
    if (!enabled)
        return regressed ? 1 : 0;
    std::string path = "BENCH_" + name_ + ".json";
    if (!dir.empty())
        path = dir + (dir.back() == '/' ? "" : "/") + path;
    std::ofstream out(path);
    if (!out) {
        log << "warning: cannot write " << path << "\n";
        return regressed ? 1 : 0;
    }
    writeJson(out);
    log << "wrote " << path << " (" << cells_.size() << " cells, "
        << fmtDouble(elapsedSeconds(), 2) << " s wall)\n";
    wrote_last_ = true;
    return regressed ? 1 : 0;
}

bool
BenchReport::compareToBaseline(const std::string &path,
                               std::ostream &log) const
{
    obs::JsonValue base;
    std::string error;
    if (!obs::readJsonFile(path, base, error)) {
        log << "warning: --baseline " << path << ": " << error << "\n";
        return false;
    }
    if (base.str("schema") != "fleetio-bench-v1") {
        log << "warning: --baseline " << path
            << ": not a fleetio-bench-v1 record\n";
        return false;
    }

    double threshold = 10.0;
    if (const char *env = std::getenv("FLEETIO_BENCH_REGRESS_PCT")) {
        char *end = nullptr;
        const double v = std::strtod(env, &end);
        if (end != env && *end == '\0' && v > 0)
            threshold = v;
    }

    const double wall = elapsedSeconds();
    const std::uint64_t events = totalSimEvents();
    struct Row
    {
        const char *name;
        double baseline;
        double current;
    };
    const Row rows[] = {
        {"events_per_sec", base.num("events_per_sec"),
         wall > 0 ? double(events) / wall : 0.0},
        {"cells_per_sec", base.num("cells_per_sec"),
         wall > 0 ? double(cells_.size()) / wall : 0.0},
    };

    log << "baseline compare vs " << path << " (bench \""
        << base.str("bench") << "\", " << std::uint64_t(base.num("jobs"))
        << " jobs; threshold " << fmtDouble(threshold, 1)
        << "%, FLEETIO_BENCH_REGRESS_PCT):\n";
    Table t({"metric", "baseline", "current", "delta"});
    bool regressed = false;
    std::string worst;
    for (const Row &r : rows) {
        std::string delta = "n/a";
        if (r.baseline > 0) {
            const double pct =
                100.0 * (r.current - r.baseline) / r.baseline;
            delta = pct >= 0 ? "+" : "";
            delta += fmtDouble(pct, 1);
            delta += '%';
            if (pct < -threshold) {
                regressed = true;
                worst = std::string(r.name) + " " + delta;
            }
        }
        t.addRow({r.name, fmtDouble(r.baseline, 1),
                  fmtDouble(r.current, 1), delta});
    }
    t.print(log);
    if (regressed) {
        log << "warning: REGRESSION vs baseline: " << worst
            << " (threshold " << fmtDouble(threshold, 1) << "%)\n";
    }
    return regressed;
}

void
printFaultSummary(const ExperimentResult &res, std::ostream &os)
{
    if (res.faults.total() == 0 && res.blocks_retired == 0 &&
        res.program_fail_repairs == 0 && res.gsb_revokes == 0) {
        return;
    }
    os << "faults: read-retries=" << res.faults.read_retries
       << " (" << res.faults.reads_retried << " reads)"
       << " program-fails=" << res.faults.program_failures
       << " (repaired " << res.program_fail_repairs << ")"
       << " erase-fails=" << res.faults.erase_failures
       << " retired-blocks=" << res.blocks_retired
       << " slowdowns=" << res.faults.slowdown_windows
       << " gsb-revokes=" << res.gsb_revokes << '\n';
}

void
printSupervisionSummary(const ExperimentResult &res, std::ostream &os)
{
    if (res.agent_trips == 0 && res.agent_grad_skips == 0 &&
        res.agent_checkpoints == 0) {
        return;
    }
    os << "supervision: trips=" << res.agent_trips
       << " restores=" << res.agent_restores
       << " reinits=" << res.agent_reinits
       << " fallback-windows=" << res.agent_fallback_windows
       << " lease-releases=" << res.agent_lease_releases
       << " grad-skips=" << res.agent_grad_skips
       << " checkpoints=" << res.agent_checkpoints << '\n';
}

void
printAttributionSummary(const ExperimentResult &res, std::ostream &os)
{
    if (res.attr_requests == 0 && res.drift_windows_scored == 0)
        return;
    os << "attribution: requests=" << res.attr_requests
       << " sum-mismatches=" << res.attr_sum_mismatches
       << " verdicts=" << res.slo_verdicts << " (self-load="
       << res.verdict_self_load << " gc=" << res.verdict_gc
       << " neighbor=" << res.verdict_neighbor << " tier="
       << res.verdict_tier << " retry=" << res.verdict_retry << ")";
    if (res.drift_windows_scored != 0) {
        os << " drift-flags=" << res.drift_flags << "/"
           << res.drift_windows_scored
           << " max-psi=" << fmtDouble(res.max_drift_psi, 3);
    }
    os << '\n';
}

void
printChurnSummary(const ExperimentResult &res, std::ostream &os)
{
    const ChurnStats &c = res.churn;
    if (c.arrivals == 0 && c.removals_requested == 0)
        return;
    os << "churn: arrivals=" << c.arrivals << " admitted=" << c.admitted
       << " retries=" << c.retries << " rejected=" << c.rejected
       << " removals=" << c.removals_completed << "/"
       << c.removals_requested << " stepdowns=" << c.tier_stepdowns
       << " recoveries=" << c.tier_recoveries
       << " max-attempts=" << c.max_attempts_observed << '\n';
}

}  // namespace fleetio
