/**
 * @file Pins the exact bits RL training produces: behaviour cloning,
 * one PPO update and the SSDKeeper demand net. Each test digests a
 * parameter store (values, then gradients) with 64-bit FNV-1a and
 * compares it with a committed constant, so any change to the order
 * of a floating-point sum in training shows here.
 */
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <vector>

#include "src/core/agent.h"
#include "src/policies/ssdkeeper.h"
#include "src/sim/fnv.h"
#include "src/sim/rng.h"

namespace fleetio {
namespace {

/** Digest of a store's values and gradients, plus extra words. */
std::uint64_t
digest(const rl::ParameterStore &ps,
       const std::vector<std::uint64_t> &extra = {})
{
    std::uint64_t h = kFnv1aOffset;
    const rl::Vector &v = ps.rawValues();
    const rl::Vector &g = ps.rawGrads();
    h = fnv1a(v.data(), v.size() * sizeof(double), h);
    h = fnv1a(g.data(), g.size() * sizeof(double), h);
    return fnv1a(extra.data(), extra.size() * sizeof(std::uint64_t), h);
}

std::string
hex(std::uint64_t h)
{
    char buf[19];
    std::snprintf(buf, sizeof buf, "0x%016llx", (unsigned long long)h);
    return buf;
}

rl::Vector
randomState(const FleetIoConfig &cfg, Rng &rng)
{
    rl::Vector s(cfg.stateDim());
    for (double &x : s)
        x = rng.normal(0.0, 1.0);
    return s;
}

/** The agent's parameters and the policy RNG words, which pin how many
 *  replay indices and actions were drawn. */
std::uint64_t
agentDigest(const FleetIoAgent &agent)
{
    const auto rng = agent.snapshot().policy_rng;
    return digest(agent.policy().params(),
                  std::vector<std::uint64_t>(rng.begin(), rng.end()));
}

/** 100 cloning calls: 31 fill the replay, 69 run two minibatches each. */
TEST(RlTraining, ImitationWeightsArePinned)
{
    const FleetIoConfig cfg;
    FleetIoAgent agent(0, cfg, 1234);
    Rng rng(77);
    const auto &heads = agent.mapper().spec().head_sizes;
    for (int call = 0; call < 100; ++call) {
        const rl::Vector s = randomState(cfg, rng);
        std::vector<std::size_t> actions;
        for (std::size_t n : heads)
            actions.push_back(rng.uniformInt(std::uint64_t(n)));
        agent.imitate(s, actions, rng.normal(0.0, 1.0));
    }
    EXPECT_EQ(hex(agentDigest(agent)), "0x2082c4c44afc4ebc");
}

/**
 * One agent train() on 70 transitions with @p clip: each of the four
 * epochs runs minibatches of 32, 32 and 6 rows.
 */
std::uint64_t
trainDigest(double clip)
{
    FleetIoConfig cfg;
    cfg.ppo.clip = clip;
    // A cloning-sized step moves the policy far enough within one
    // update that later minibatches see clipped ratios.
    cfg.ppo.adam.lr = 3e-3;
    FleetIoAgent agent(1, cfg, 4321);
    Rng rng(99);
    for (int t = 0; t < 70; ++t) {
        agent.decide(randomState(cfg, rng));
        agent.completeTransition(rng.normal(0.0, 1.0));
    }
    EXPECT_EQ(agent.train(randomState(cfg, rng)).samples, 70u * 4u);
    return agentDigest(agent);
}

TEST(RlTraining, PpoUpdateWeightsArePinned)
{
    const std::uint64_t h = trainDigest(0.2);
    EXPECT_EQ(hex(h), "0xcfb7c8fe2a43b634");
    // The clip binds on at least one row: opened wide, it gives other
    // weights.
    EXPECT_NE(trainDigest(1e9), h);
}

TEST(RlTraining, DemandNetWeightsArePinned)
{
    EXPECT_EQ(hex(digest(SsdKeeperPolicy::demandNet().params())),
              "0x46faaa27f6975e27");
}

}  // namespace
}  // namespace fleetio
