/**
 * @file
 * The FleetIO policy: RL-managed vSSDs over (by default) hardware-
 * isolated channels, with pre-training in prepare() and online
 * fine-tuning thereafter. Also covers the paper's reward ablations
 * (§4.4) and the mixed-isolation layout (§4.5).
 */
#pragma once

#include <memory>

#include "src/core/fleetio_controller.h"
#include "src/policies/policy.h"

namespace fleetio {

class FleetIoPolicy : public Policy
{
  public:
    struct Variant
    {
        /** Fine-tuned per-type alpha (false = unified alpha, §4.4). */
        bool customized_alpha = true;
        /** Mixed HW/SW tenant layout of §4.5 instead of equal HW. */
        bool mixed_layout = false;
        /** Pre-training length in decision windows (the first two
         *  thirds run the behaviour-cloning teacher phase). */
        int train_windows = 600;
        std::string display_name = "FleetIO";
        /**
         * The controller's configuration. setup() derives the decision
         * window, the teacher windows and the action bandwidth levels
         * from the testbed and train_windows; the rest is used as
         * given, including beta (the multi-agent reward blend; 1.0 =
         * purely local, §4.4) and supervisor.enabled (the agent
         * supervision layer, DESIGN.md §8; off = the paper's bare
         * controller, the control arm of the resilience benches).
         * Online fine-tuning after pre-training is deliberately gentle
         * (lr 3e-5, entropy 0.002), so the deployed policy stays near
         * the pre-trained behaviour while still adapting (the paper
         * fine-tunes every 10 windows).
         */
        FleetIoConfig config = [] {
            FleetIoConfig cfg;
            cfg.ppo.adam.lr = 3e-5;
            cfg.ppo.ent_coef = 0.002;
            return cfg;
        }();
    };

    FleetIoPolicy() : FleetIoPolicy(Variant{}) {}
    explicit FleetIoPolicy(const Variant &variant);

    std::string name() const override { return variant_.display_name; }

    void setup(Testbed &tb, const std::vector<WorkloadKind> &workloads,
               const std::vector<SimTime> &slos) override;

    /** Pre-train the agents: run train_windows decision windows. */
    void prepare(Testbed &tb) override;

    /** Deploy: freeze learning/exploration for the measured phase. */
    void beforeMeasure(Testbed &tb) override;

    /** Surface supervision / checkpoint counters on the result. */
    void collectStats(ExperimentResult &res) override;

    FleetIoController *controller() { return controller_.get(); }

  private:
    Variant variant_;
    std::unique_ptr<FleetIoController> controller_;
};

/**
 * Mixed Isolation baseline of §4.5 (no RL): latency-sensitive tenants
 * hardware-isolated, bandwidth-intensive tenants sharing the remaining
 * channels under token bucket + stride.
 */
class MixedIsolationPolicy : public Policy
{
  public:
    std::string name() const override { return "Mixed Isolation"; }

    void setup(Testbed &tb, const std::vector<WorkloadKind> &workloads,
               const std::vector<SimTime> &slos) override;
};

/**
 * Shared helper: build the §4.5 mixed layout — LS tenants get equal
 * hardware-isolated slices of the first half of the device, BI tenants
 * share the second half (token bucket + stride among themselves).
 */
void buildMixedLayout(Testbed &tb,
                      const std::vector<WorkloadKind> &workloads,
                      const std::vector<SimTime> &slos);

/** makePolicy(kind), with the FleetIO kinds starting from @p fleetio
 *  (each kind's own alpha, beta, layout and name apply on top). */
std::unique_ptr<Policy> makePolicy(PolicyKind kind,
                                   const FleetIoPolicy::Variant &fleetio);

}  // namespace fleetio
