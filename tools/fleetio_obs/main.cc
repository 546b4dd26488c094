/**
 * @file
 * fleetio-obs: offline root-cause explorer over fleetio-attribution-v1
 * artifacts (the `<base>.attribution.json` files written next to
 * BENCH_*.json when FLEETIO_TRACE is set). Answers "why is my p99
 * high?" without re-running the experiment:
 *
 *   fleetio_obs slow     <file> [--top N]   top-N slow requests, staged
 *   fleetio_obs matrix   <file>             interference blame matrix
 *   fleetio_obs verdicts <file>             per-window SLO verdicts
 *   fleetio_obs drift    <file>             agent drift (PSI/KL) report
 *   fleetio_obs summary  <file>             everything, condensed
 *
 * Read-only tooling: never linked into the simulator.
 */
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "src/obs/json_reader.h"

namespace {

using fleetio::obs::JsonValue;

std::vector<std::string>
stageNames(const JsonValue &root)
{
    std::vector<std::string> names;
    for (const JsonValue &s : root.at("stages").items)
        names.push_back(s.text);
    return names;
}

void
printBar(double fraction, int width)
{
    int fill = int(fraction * width + 0.5);
    fill = std::max(0, std::min(width, fill));
    std::printf("%.*s%.*s", fill, "########################################",
                width - fill, "                                        ");
}

int
cmdSlow(const JsonValue &root, std::size_t top)
{
    const std::vector<std::string> names = stageNames(root);
    const auto &slow = root.at("top_slow").items;
    if (slow.empty()) {
        std::printf("no slow-request records (attribution top_k = 0?)\n");
        return 0;
    }
    std::size_t shown = 0;
    for (const JsonValue &s : slow) {
        if (shown++ >= top)
            break;
        const double lat = s.num("latency_ns");
        std::printf("#%zu req=%.0f tenant=%.0f %s latency=%.1fus "
                    "submit=%.0fns\n",
                    shown, s.num("req"), s.num("tenant"),
                    s.at("write").boolean ? "write" : "read", lat / 1e3,
                    s.num("submit_ns"));
        const auto &stages = s.at("stages_ns").items;
        for (std::size_t i = 0; i < stages.size() && i < names.size();
             ++i) {
            const double ns = stages[i].number;
            if (ns <= 0)
                continue;
            std::printf("    %-21s %10.1fus  ", names[i].c_str(),
                        ns / 1e3);
            printBar(lat > 0 ? ns / lat : 0.0, 32);
            std::printf(" %5.1f%%\n", lat > 0 ? 100.0 * ns / lat : 0.0);
        }
    }
    return 0;
}

int
cmdMatrix(const JsonValue &root)
{
    const auto &blame = root.at("blame_ns").items;
    if (blame.empty()) {
        std::printf("empty blame matrix\n");
        return 0;
    }
    std::printf("interference ledger: blame_ns[victim][culprit] "
                "(row sum == victim's attributed wait time)\n");
    std::printf("%-10s", "victim\\by");
    for (std::size_t c = 0; c < blame.size(); ++c) {
        std::string name = "t";
        name += std::to_string(c);
        std::printf(" %11s", name.c_str());
    }
    std::printf("  %12s\n", "row_total");
    std::vector<double> col(blame.size(), 0.0);
    for (std::size_t v = 0; v < blame.size(); ++v) {
        double row_total = 0.0;
        std::printf("t%-9zu", v);
        const auto &row = blame[v].items;
        for (std::size_t c = 0; c < row.size(); ++c) {
            std::printf(" %9.1fus", row[c].number / 1e3);
            row_total += row[c].number;
            if (c < col.size() && c != v)
                col[c] += row[c].number;
        }
        std::printf("  %10.1fus\n", row_total / 1e3);
    }
    std::printf("%-10s", "inflicted");
    for (double x : col)
        std::printf(" %9.1fus", x / 1e3);
    std::printf("  (off-diagonal column totals)\n");
    return 0;
}

int
cmdVerdicts(const JsonValue &root)
{
    const auto &verdicts = root.at("verdicts").items;
    std::printf("%zu SLO verdict(s); %s requests, %s violations, %s "
                "stage-sum mismatches\n",
                verdicts.size(),
                std::to_string(std::uint64_t(root.num("requests")))
                    .c_str(),
                std::to_string(std::uint64_t(root.num("violations")))
                    .c_str(),
                std::to_string(std::uint64_t(root.num("sum_mismatches")))
                    .c_str());
    for (const JsonValue &v : verdicts) {
        std::printf("  window %-5.0f t%-3.0f %-20s", v.num("window"),
                    v.num("tenant"), v.str("cause").c_str());
        if (!v.at("culprit").isNull())
            std::printf(" culprit=t%.0f", v.num("culprit"));
        std::printf("  viol=%.0f%% neighbor=%.0f%% self_gc=%.0f%% "
                    "retry=%.0f%%\n",
                    100 * v.num("violation_fraction"),
                    100 * v.num("neighbor_share"),
                    100 * v.num("self_gc_share"),
                    100 * v.num("retry_share"));
    }
    return 0;
}

int
cmdDrift(const JsonValue &root)
{
    const JsonValue &drift = root.at("drift");
    if (!drift.isArray()) {
        std::printf("no drift data (drift monitor disabled)\n");
        return 0;
    }
    std::printf("agent drift scores (PSI vs recorded baseline):\n");
    std::size_t flagged = 0;
    for (const JsonValue &s : drift.items) {
        const bool f = s.at("flagged").boolean;
        flagged += f ? 1 : 0;
        std::printf("  window %-5.0f t%-3.0f psi=%.4f kl=%.4f%s\n",
                    s.num("window"), s.num("tenant"), s.num("psi"),
                    s.num("kl"), f ? "  << DRIFT" : "");
    }
    std::printf("%zu window(s) flagged of %zu scored\n", flagged,
                drift.items.size());
    return 0;
}

int
cmdSummary(const JsonValue &root)
{
    const std::vector<std::string> names = stageNames(root);
    for (const JsonValue &t : root.at("tenants").items) {
        const auto &stages = t.at("stages_ns").items;
        double total = 0.0;
        for (const JsonValue &s : stages)
            total += s.number;
        std::printf("tenant t%.0f: %.0f requests, %.0f violations",
                    t.num("id"), t.num("requests"), t.num("violations"));
        const JsonValue &h = t.at("harvest");
        if (h.isObject())
            std::printf(", harvest created=%.0f reclaims=%.0f "
                        "revoked=%.0f",
                        h.num("created"), h.num("reclaims"),
                        h.num("revoked"));
        std::printf("\n");
        for (std::size_t i = 0; i < stages.size() && i < names.size();
             ++i) {
            if (stages[i].number <= 0)
                continue;
            std::printf("    %-21s %12.1fus  ", names[i].c_str(),
                        stages[i].number / 1e3);
            printBar(total > 0 ? stages[i].number / total : 0.0, 32);
            std::printf(" %5.1f%%\n",
                        total > 0 ? 100.0 * stages[i].number / total
                                  : 0.0);
        }
    }
    std::printf("\n");
    cmdVerdicts(root);
    return 0;
}

int
usage()
{
    std::fprintf(
        stderr,
        "usage: fleetio_obs <slow|matrix|verdicts|drift|summary> "
        "<attribution.json> [--top N]\n");
    return 2;
}

}  // namespace

int
main(int argc, char **argv)
{
    if (argc < 3)
        return usage();
    const std::string cmd = argv[1];
    const std::string path = argv[2];
    std::size_t top = 10;
    for (int i = 3; i + 1 < argc; i += 2) {
        if (std::strcmp(argv[i], "--top") == 0)
            top = std::size_t(std::strtoul(argv[i + 1], nullptr, 10));
    }

    JsonValue root;
    std::string error;
    if (!fleetio::obs::readJsonFile(path, root, error)) {
        std::fprintf(stderr, "fleetio_obs: %s: %s\n", path.c_str(),
                     error.c_str());
        return 1;
    }
    if (root.str("schema") != "fleetio-attribution-v1") {
        std::fprintf(stderr,
                     "fleetio_obs: %s: not a fleetio-attribution-v1 "
                     "artifact\n",
                     path.c_str());
        return 1;
    }

    if (cmd == "slow")
        return cmdSlow(root, top);
    if (cmd == "matrix")
        return cmdMatrix(root);
    if (cmd == "verdicts")
        return cmdVerdicts(root);
    if (cmd == "drift")
        return cmdDrift(root);
    if (cmd == "summary")
        return cmdSummary(root);
    return usage();
}
