/**
 * @file
 * SSDKeeper baseline (paper §4.1): a DNN learns the number of flash
 * channels a vSSD demands from its workload pattern, and the device is
 * statically repartitioned accordingly (hardware-isolated thereafter).
 */
#pragma once

#include <array>
#include <memory>

#include "src/policies/policy.h"
#include "src/rl/adam.h"
#include "src/rl/mlp.h"

namespace fleetio {

/**
 * The channel-demand DNN: a small regression MLP over window I/O
 * features {read MB/s, write MB/s, avg I/O KB} -> demanded channels.
 * Trained once (deterministically) on synthetic demand curves.
 */
class ChannelDemandNet
{
  public:
    ChannelDemandNet();

    /** Predicted channel demand (continuous, >= 0). */
    double predict(double read_mbps, double write_mbps,
                   double avg_io_kb) const;

    /** Training loss after fitting (telemetry / tests). */
    double finalLoss() const { return final_loss_; }

    /** The trained weights and last minibatch's gradients (tests). */
    const rl::ParameterStore &params() const { return store_; }

  private:
    /** Width of each of the trunk's two hidden layers. */
    static constexpr std::size_t kHidden = 16;

    static std::array<double, 3> normalize(double r, double w, double k);

    rl::ParameterStore store_;
    Rng rng_;
    rl::Mlp trunk_;
    rl::Linear head_;
    double final_loss_ = 0.0;
};

class SsdKeeperPolicy : public Policy
{
  public:
    std::string name() const override { return "SSDKeeper"; }

    void setup(Testbed &tb, const std::vector<WorkloadKind> &workloads,
               const std::vector<SimTime> &slos) override;

    /** Profiling phase: measure each tenant, query the DNN, partition. */
    void prepare(Testbed &tb) override;

    /** Shared, lazily-trained demand model. */
    static const ChannelDemandNet &demandNet();

  private:
    std::uint32_t min_channels_ = 1;
};

}  // namespace fleetio
