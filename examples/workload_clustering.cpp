/**
 * @file
 * Workload typing end-to-end (§3.4): capture block traces from live
 * workloads, extract the four I/O features per window, fit the
 * k-means classifier, classify a new trace, and pick the fine-tuned
 * reward alpha for it — including the unknown-workload fallback to
 * the unified reward.
 */
#include <iostream>
#include <numeric>

#include "src/cluster/features.h"
#include "src/cluster/workload_classifier.h"
#include "src/core/config.h"
#include "src/harness/testbed.h"

using namespace fleetio;

namespace {

std::vector<IoFeatures>
traceWindows(WorkloadKind kind)
{
    TestbedOptions opts;
    Testbed tb(opts);
    std::vector<ChannelId> all(opts.geo.num_channels);
    std::iota(all.begin(), all.end(), 0);
    Vssd &v = tb.addTenant(kind, all, opts.geo.totalBlocks(), msec(50));
    auto &w = tb.workload(v.id());
    w.enableTrace(40000);
    tb.warmupFill();
    tb.startWorkloads();
    tb.run(sec(12));
    return extractWindows(w.trace(), opts.geo.page_size,
                          v.ftl().logicalPages(), 1000);
}

}  // namespace

int
main()
{
    // 1. Collect labelled training windows from a few known workloads.
    const std::vector<WorkloadKind> corpus = {
        WorkloadKind::kVdiWeb, WorkloadKind::kTpce,   // LC-1-ish
        WorkloadKind::kYcsbB,                          // LC-2
        WorkloadKind::kTeraSort, WorkloadKind::kMlPrep // BI
    };
    std::vector<rl::Vector> features;
    std::vector<int> ids;
    for (std::size_t i = 0; i < corpus.size(); ++i) {
        const auto windows = traceWindows(corpus[i]);
        std::cout << workloadName(corpus[i]) << ": " << windows.size()
                  << " windows";
        if (!windows.empty()) {
            std::cout << "  (read " << windows[0].read_bw_mbps
                      << " MB/s, write " << windows[0].write_bw_mbps
                      << " MB/s, entropy " << windows[0].lpa_entropy
                      << " bits, avg I/O " << windows[0].avg_io_kb
                      << " KB)";
        }
        std::cout << "\n";
        for (const auto &f : windows) {
            features.push_back(f.toVector());
            ids.push_back(int(i));
        }
    }

    // 2. Fit the classifier (k = 3: LC-1, LC-2, BI as in Fig. 6).
    WorkloadClassifier wc;
    wc.fit(features, ids);
    std::cout << "\nfitted " << wc.numClusters() << " clusters\n";

    // 3. Classify a workload the classifier has not seen (PageRank) —
    //    it should land in the BI cluster by I/O pattern alone.
    const auto pr = traceWindows(WorkloadKind::kPageRank);
    if (!pr.empty()) {
        const auto assign = wc.classify(pr.front().toVector());
        std::cout << "PageRank window -> cluster " << assign.cluster
                  << " -> alpha " << alphaForCluster(assign.cluster)
                  << "\n";
    }

    // 4. An out-of-distribution workload falls back to the unified
    //    reward (alpha = 0.01) and would be queued for offline tuning.
    const rl::Vector alien{5000.0, 4000.0, 1.0, 1024.0};
    const auto assign = wc.classify(alien);
    std::cout << "alien workload -> cluster " << assign.cluster
              << " (unknown) -> unified alpha "
              << alphaForCluster(assign.cluster) << "\n";
    return 0;
}
