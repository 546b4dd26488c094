#include "src/core/agent.h"

namespace fleetio {

FleetIoAgent::FleetIoAgent(VssdId vssd, const FleetIoConfig &cfg,
                           std::uint64_t seed)
    : vssd_(vssd),
      cfg_(cfg),
      mapper_(cfg),
      net_(cfg.stateDim(), mapper_.spec(), cfg.hidden_sizes, seed),
      trainer_(net_, cfg.ppo),
      rng_(seed ^ 0xA5A5A5A5A5A5A5A5ull),
      alpha_(cfg.unified_alpha)
{
}

AgentAction
FleetIoAgent::decide(const rl::Vector &state)
{
    const auto res = net_.act(state, rng_, deterministic_);
    ++decisions_;
    last_entropy_ = res.entropy;
    last_log_prob_ = res.log_prob;
    last_value_ = res.value;

    if (training_) {
        pending_ = rl::Transition{};
        pending_.state = state;
        pending_.actions = res.actions;
        pending_.log_prob = res.log_prob;
        pending_.value = res.value;
        has_pending_ = true;
    }
    return mapper_.decode(res.actions);
}

void
FleetIoAgent::completeTransition(double reward)
{
    if (!has_pending_ || !training_)
        return;
    pending_.reward = reward;
    pending_.done = false;  // continuing task
    rollout_.add(std::move(pending_));
    has_pending_ = false;
}

void
FleetIoAgent::imitate(const rl::Vector &state,
                      const std::vector<std::size_t> &actions,
                      double value_target)
{
    // Replay dataset (ring buffer) + several minibatch updates per
    // sample: the teacher phase is short, so each demonstration is
    // reused many times, like the paper's multi-epoch offline
    // pre-training.
    constexpr std::size_t kBcCapacity = 4096;
    constexpr int kBcUpdatesPerSample = 2;

    if (bc_batch_.size() < kBcCapacity) {
        bc_batch_.push_back(BcSample{state, actions, value_target});
    } else {
        bc_batch_[bc_write_++ % kBcCapacity] =
            BcSample{state, actions, value_target};
    }
    if (bc_batch_.size() < cfg_.ppo.minibatch)
        return;

    if (!bc_opt_) {
        rl::Adam::Config acfg = cfg_.ppo.adam;
        acfg.lr = 3e-3;  // supervised cloning tolerates a larger step
        bc_opt_ = std::make_unique<rl::Adam>(net_.params(), acfg);
    }
    const double inv_b = 1.0 / double(cfg_.ppo.minibatch);
    for (int u = 0; u < kBcUpdatesPerSample; ++u) {
        net_.params().zeroGrads();
        for (std::size_t k = 0; k < cfg_.ppo.minibatch; ++k) {
            const BcSample &s =
                bc_batch_[rng_.uniformInt(bc_batch_.size())];
            const auto ev = net_.evaluate(s.state, s.actions);
            // Minimize -logP(expert) + 0.5 (V - target)^2.
            const double dvalue = (ev.value - s.value_target) * inv_b;
            net_.backward(s.actions, -inv_b, 0.0, dvalue);
        }
        bc_opt_->step();
    }
}

rl::AgentCheckpoint
FleetIoAgent::snapshot() const
{
    rl::AgentCheckpoint c;
    c.params = net_.params().rawValues();
    const rl::Adam &opt = trainer_.optimizer();
    c.adam_m = opt.firstMoments();
    c.adam_v = opt.secondMoments();
    // Adam lazily grows its moments; a never-trained agent checkpoints
    // zero moments of the full parameter size.
    c.adam_m.resize(c.params.size(), 0.0);
    c.adam_v.resize(c.params.size(), 0.0);
    c.adam_t = opt.t();
    c.alpha = alpha_;
    c.decisions = decisions_;
    c.policy_rng = rng_.state();
    c.shuffle_rng = trainer_.shuffleRng().state();
    return c;
}

namespace {

bool
anySet(const std::array<std::uint64_t, 4> &s)
{
    return (s[0] | s[1] | s[2] | s[3]) != 0;
}

}  // namespace

bool
FleetIoAgent::restore(const rl::AgentCheckpoint &ckpt)
{
    if (ckpt.params.size() != net_.params().size() ||
        !ckpt.wellFormed()) {
        return false;
    }
    net_.params().rawValues() = ckpt.params;
    trainer_.optimizer().restoreState(ckpt.adam_m, ckpt.adam_v,
                                      ckpt.adam_t);
    alpha_ = ckpt.alpha;
    decisions_ = ckpt.decisions;
    // All-zero RNG words mean "not captured" (e.g. a hand-built
    // checkpoint): keep the live generators rather than restoring
    // xoshiro's absorbing state.
    if (anySet(ckpt.policy_rng))
        rng_.setState(ckpt.policy_rng);
    if (anySet(ckpt.shuffle_rng))
        trainer_.shuffleRng().setState(ckpt.shuffle_rng);
    resetEpisode();
    return true;
}

void
FleetIoAgent::resetEpisode()
{
    rollout_.clear();
    has_pending_ = false;
}

rl::PpoTrainer::Stats
FleetIoAgent::train(const rl::Vector &bootstrap_state)
{
    rl::PpoTrainer::Stats stats;
    if (!training_ || rollout_.size() < cfg_.ppo.minibatch)
        return stats;
    const auto ev = net_.evaluate(
        bootstrap_state,
        std::vector<std::size_t>(mapper_.spec().numHeads(), 0));
    stats = trainer_.update(rollout_, ev.value);
    rollout_.clear();
    return stats;
}

}  // namespace fleetio
