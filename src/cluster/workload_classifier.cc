#include "src/cluster/workload_classifier.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <map>

namespace fleetio {

namespace {
/** A window farther than this many cluster radii from its nearest
 *  centroid is classified as unknown (-1). */
constexpr double kUnknownFactor = 3.0;
}  // namespace

WorkloadClassifier::WorkloadClassifier() : cfg_() {}

WorkloadClassifier::WorkloadClassifier(const Config &cfg) : cfg_(cfg) {}

rl::Vector
WorkloadClassifier::normalize(const rl::Vector &f) const
{
    assert(f.size() == mean_.size());
    rl::Vector out(f.size());
    for (std::size_t i = 0; i < f.size(); ++i)
        out[i] = (f[i] - mean_[i]) / stddev_[i];
    return out;
}

void
WorkloadClassifier::fit(const std::vector<rl::Vector> &features,
                        const std::vector<int> &workload_ids)
{
    assert(!features.empty());
    assert(features.size() == workload_ids.size());
    const std::size_t dim = features[0].size();

    // z-score normalization parameters.
    mean_.assign(dim, 0.0);
    stddev_.assign(dim, 0.0);
    for (const auto &f : features)
        rl::axpy(1.0, f, mean_);
    for (double &m : mean_)
        m /= double(features.size());
    for (const auto &f : features) {
        for (std::size_t d = 0; d < dim; ++d) {
            const double diff = f[d] - mean_[d];
            stddev_[d] += diff * diff;
        }
    }
    for (double &s : stddev_)
        s = std::max(std::sqrt(s / double(features.size())), 1e-9);

    std::vector<rl::Vector> normed;
    normed.reserve(features.size());
    for (const auto &f : features)
        normed.push_back(normalize(f));

    Rng rng(cfg_.seed);
    auto result = KMeans::fit(normed, cfg_.k, rng);
    centroids_ = std::move(result.centroids);

    // Per-cluster radius = mean member distance (plus epsilon).
    radii_.assign(centroids_.size(), 0.0);
    std::vector<std::size_t> counts(centroids_.size(), 0);
    for (std::size_t i = 0; i < normed.size(); ++i) {
        const auto c = std::size_t(result.labels[i]);
        radii_[c] += std::sqrt(KMeans::dist2(normed[i], centroids_[c]));
        ++counts[c];
    }
    for (std::size_t c = 0; c < radii_.size(); ++c)
        radii_[c] = counts[c] ? radii_[c] / double(counts[c]) + 1e-6
                              : 1e-6;

    // Majority workload per cluster and ground-truth cluster per
    // workload.
    const int max_wid =
        *std::max_element(workload_ids.begin(), workload_ids.end());
    std::vector<std::map<int, std::size_t>> cluster_hist(
        centroids_.size());
    std::vector<std::map<int, std::size_t>> workload_hist(
        std::size_t(max_wid) + 1);
    for (std::size_t i = 0; i < normed.size(); ++i) {
        const int c = result.labels[i];
        const int w = workload_ids[i];
        ++cluster_hist[std::size_t(c)][w];
        ++workload_hist[std::size_t(w)][c];
    }
    cluster_majority_.assign(centroids_.size(), -1);
    for (std::size_t c = 0; c < centroids_.size(); ++c) {
        std::size_t best = 0;
        for (const auto &[w, cnt] : cluster_hist[c]) {
            if (cnt > best) {
                best = cnt;
                cluster_majority_[c] = w;
            }
        }
    }
    workload_gt_cluster_.assign(std::size_t(max_wid) + 1, -1);
    for (std::size_t w = 0; w < workload_hist.size(); ++w) {
        std::size_t best = 0;
        for (const auto &[c, cnt] : workload_hist[w]) {
            if (cnt > best) {
                best = cnt;
                workload_gt_cluster_[w] = c;
            }
        }
    }
}

ClusterAssignment
WorkloadClassifier::classify(const rl::Vector &features) const
{
    ClusterAssignment out;
    if (centroids_.empty())
        return out;
    const rl::Vector x = normalize(features);
    const int c = KMeans::predict(centroids_, x);
    const double d =
        std::sqrt(KMeans::dist2(x, centroids_[std::size_t(c)]));
    out.distance = d;
    out.cluster =
        d <= kUnknownFactor * radii_[std::size_t(c)] ? c : -1;
    return out;
}

int
WorkloadClassifier::clusterMajorityWorkload(int c) const
{
    if (c < 0 || std::size_t(c) >= cluster_majority_.size())
        return -1;
    return cluster_majority_[std::size_t(c)];
}

int
WorkloadClassifier::groundTruthCluster(int workload_id) const
{
    if (workload_id < 0 ||
        std::size_t(workload_id) >= workload_gt_cluster_.size()) {
        return -1;
    }
    return workload_gt_cluster_[std::size_t(workload_id)];
}

double
WorkloadClassifier::testAccuracy(
    const std::vector<rl::Vector> &features,
    const std::vector<int> &workload_ids) const
{
    assert(features.size() == workload_ids.size());
    if (features.empty())
        return 0.0;
    std::size_t hits = 0;
    for (std::size_t i = 0; i < features.size(); ++i) {
        const rl::Vector x = normalize(features[i]);
        const int c = KMeans::predict(centroids_, x);
        if (c == groundTruthCluster(workload_ids[i]))
            ++hits;
    }
    return double(hits) / double(features.size());
}

}  // namespace fleetio
