/**
 * @file
 * Workload-type classifier: z-normalizes I/O feature windows, clusters
 * them with k-means, labels clusters by majority workload, and maps new
 * windows to a known type — or "unknown" when the window is far from
 * every learned cluster (which sends FleetIO to the unified reward,
 * paper §3.4).
 */
#pragma once

#include <cstddef>
#include <vector>

#include "src/cluster/kmeans.h"
#include "src/rl/matrix.h"
#include "src/sim/rng.h"

namespace fleetio {

/** Result of classifying one feature window. */
struct ClusterAssignment
{
    int cluster = -1;   ///< -1 = unknown (outside every cluster radius)
    double distance = 0.0;
};

/**
 * Learned workload-type model. Fitting stores the normalization, the
 * cluster centroids, per-cluster radii (mean member distance), and the
 * majority source workload of each cluster.
 */
class WorkloadClassifier
{
  public:
    struct Config
    {
        int k = 3;                  ///< LC-1, LC-2, BI in the paper
        std::uint64_t seed = 7;
    };

    WorkloadClassifier();
    explicit WorkloadClassifier(const Config &cfg);

    /**
     * Fit on training windows. @p workload_ids gives the source
     * workload of each window (for majority labelling and accuracy).
     */
    void fit(const std::vector<rl::Vector> &features,
             const std::vector<int> &workload_ids);

    bool fitted() const { return !centroids_.empty(); }
    int numClusters() const { return int(centroids_.size()); }

    /** Classify one window. */
    ClusterAssignment classify(const rl::Vector &features) const;

    /** Majority source workload of cluster @p c (from training). */
    int clusterMajorityWorkload(int c) const;

    /** Ground-truth cluster of a workload = majority cluster of its
     *  training windows; -1 when the workload was unseen. */
    int groundTruthCluster(int workload_id) const;

    /**
     * Paper's accuracy metric: the fraction of test windows that land
     * in their source workload's ground-truth cluster.
     */
    double testAccuracy(const std::vector<rl::Vector> &features,
                        const std::vector<int> &workload_ids) const;

    /** Normalize a feature vector with the learned z-score params. */
    rl::Vector normalize(const rl::Vector &f) const;

    const std::vector<rl::Vector> &centroids() const { return centroids_; }

  private:
    Config cfg_;
    rl::Vector mean_, stddev_;
    std::vector<rl::Vector> centroids_;
    std::vector<double> radii_;
    std::vector<int> cluster_majority_;          ///< per cluster
    std::vector<int> workload_gt_cluster_;       ///< per workload id
};

}  // namespace fleetio
