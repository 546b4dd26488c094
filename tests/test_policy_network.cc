/** @file Unit tests for the actor-critic network. */
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <filesystem>

#include "src/rl/policy_network.h"

namespace fleetio::rl {
namespace {

ActionSpec spec553()
{
    return ActionSpec{{5, 5, 3}};
}

/**
 * The seed's allocating Linear / Mlp / Categorical / PolicyNetwork math,
 * copied as the reference for the bit-identity tests below: every layer
 * call returns a fresh vector, a Categorical is built from the logits
 * on every use, dL/dx of the input layer is computed, and per-head
 * input gradients are summed with axpy. The network allocates its
 * parameters in the same order as PolicyNetwork (trunk, heads, value
 * head), so the two can share one parameter vector.
 */
namespace seed {

Vector
softmax(const Vector &logits)
{
    const double m = *std::max_element(logits.begin(), logits.end());
    Vector out(logits.size());
    double sum = 0.0;
    for (std::size_t i = 0; i < logits.size(); ++i) {
        out[i] = std::exp(logits[i] - m);
        sum += out[i];
    }
    for (double &v : out)
        v /= sum;
    return out;
}

Vector
logSoftmax(const Vector &logits)
{
    const double m = *std::max_element(logits.begin(), logits.end());
    double sum = 0.0;
    for (double v : logits)
        sum += std::exp(v - m);
    const double log_z = m + std::log(sum);
    Vector out(logits.size());
    for (std::size_t i = 0; i < logits.size(); ++i)
        out[i] = logits[i] - log_z;
    return out;
}

class Categorical
{
  public:
    explicit Categorical(Vector logits)
        : probs_(softmax(logits)), log_probs_(logSoftmax(logits))
    {
    }

    std::size_t
    sample(Rng &rng) const
    {
        double r = rng.uniform();
        for (std::size_t i = 0; i < probs_.size(); ++i) {
            r -= probs_[i];
            if (r <= 0.0)
                return i;
        }
        return probs_.size() - 1;
    }

    std::size_t
    argmax() const
    {
        return std::size_t(
            std::max_element(probs_.begin(), probs_.end()) -
            probs_.begin());
    }

    double logProb(std::size_t a) const { return log_probs_[a]; }

    double
    entropy() const
    {
        double h = 0.0;
        for (std::size_t i = 0; i < probs_.size(); ++i)
            h -= probs_[i] * log_probs_[i];
        return h;
    }

    Vector
    logProbGradLogits(std::size_t a, double coeff) const
    {
        Vector g(probs_.size());
        for (std::size_t i = 0; i < probs_.size(); ++i)
            g[i] = coeff * ((i == a ? 1.0 : 0.0) - probs_[i]);
        return g;
    }

    Vector
    entropyGradLogits(double coeff) const
    {
        const double h = entropy();
        Vector g(probs_.size());
        for (std::size_t i = 0; i < probs_.size(); ++i)
            g[i] = coeff * (-probs_[i] * (log_probs_[i] + h));
        return g;
    }

  private:
    Vector probs_;
    Vector log_probs_;
};

class Linear
{
  public:
    Linear(ParameterStore &store, std::size_t in, std::size_t out)
        : store_(&store), in_(in), out_(out),
          w_off_(store.allocate(in * out)), b_off_(store.allocate(out))
    {
    }

    std::size_t outSize() const { return out_; }

    Vector
    forward(const Vector &x) const
    {
        Vector y(out_);
        const double *w = store_->values(w_off_);
        const double *b = store_->values(b_off_);
        for (std::size_t o = 0; o < out_; ++o) {
            double s = b[o];
            const double *row = w + o * in_;
            for (std::size_t i = 0; i < in_; ++i)
                s += row[i] * x[i];
            y[o] = s;
        }
        return y;
    }

    Vector
    backward(const Vector &dy, const Vector &x)
    {
        const double *w = store_->values(w_off_);
        double *dw = store_->grads(w_off_);
        double *db = store_->grads(b_off_);
        Vector dx(in_, 0.0);
        for (std::size_t o = 0; o < out_; ++o) {
            const double g = dy[o];
            db[o] += g;
            const double *row = w + o * in_;
            double *drow = dw + o * in_;
            for (std::size_t i = 0; i < in_; ++i) {
                drow[i] += g * x[i];
                dx[i] += g * row[i];
            }
        }
        return dx;
    }

  private:
    ParameterStore *store_;
    std::size_t in_, out_;
    std::size_t w_off_, b_off_;
};

class Mlp
{
  public:
    Mlp(ParameterStore &store, std::size_t in,
        const std::vector<std::size_t> &hidden)
    {
        std::size_t prev = in;
        for (std::size_t h : hidden) {
            layers_.emplace_back(store, prev, h);
            prev = h;
        }
        out_ = prev;
        inputs_.resize(layers_.size());
        acts_.resize(layers_.size());
    }

    std::size_t outSize() const { return out_; }

    Vector
    forward(const Vector &x)
    {
        Vector cur = x;
        for (std::size_t i = 0; i < layers_.size(); ++i) {
            inputs_[i] = cur;
            Vector z = layers_[i].forward(cur);
            for (double &v : z)
                v = std::tanh(v);
            acts_[i] = z;
            cur = std::move(z);
        }
        return cur;
    }

    Vector
    backward(const Vector &dout)
    {
        Vector grad = dout;
        for (std::size_t i = layers_.size(); i-- > 0;) {
            Vector dz(grad.size());
            for (std::size_t k = 0; k < grad.size(); ++k)
                dz[k] = grad[k] * (1.0 - acts_[i][k] * acts_[i][k]);
            grad = layers_[i].backward(dz, inputs_[i]);
        }
        return grad;
    }

  private:
    std::size_t out_;
    std::vector<Linear> layers_;
    std::vector<Vector> inputs_;
    std::vector<Vector> acts_;
};

class Network
{
  public:
    Network(std::size_t state_dim, const ActionSpec &spec,
            const std::vector<std::size_t> &hidden)
        : trunk_(store_, state_dim, hidden),
          heads_(makeHeads(store_, trunk_.outSize(), spec)),
          value_head_(store_, trunk_.outSize(), 1)
    {
    }

    ParameterStore &params() { return store_; }
    const Vector &logits(std::size_t head) const
    {
        return head_logits_[head];
    }

    PolicyNetwork::ActResult
    act(const Vector &state, Rng &rng, bool deterministic)
    {
        forwardTrunk(state);
        PolicyNetwork::ActResult res;
        res.value = value_cache_;
        for (const auto &logits : head_logits_) {
            Categorical dist(logits);
            const std::size_t a =
                deterministic ? dist.argmax() : dist.sample(rng);
            res.actions.push_back(a);
            res.log_prob += dist.logProb(a);
            res.entropy += dist.entropy();
        }
        return res;
    }

    Eval
    evaluate(const Vector &state, const std::vector<std::size_t> &actions)
    {
        forwardTrunk(state);
        Eval ev;
        ev.value = value_cache_;
        for (std::size_t i = 0; i < heads_.size(); ++i) {
            Categorical dist(head_logits_[i]);
            ev.log_prob += dist.logProb(actions[i]);
            ev.entropy += dist.entropy();
        }
        return ev;
    }

    void
    backward(const std::vector<std::size_t> &actions, double dlogp,
             double dentropy, double dvalue)
    {
        Vector d_trunk(trunk_out_.size(), 0.0);
        for (std::size_t i = 0; i < heads_.size(); ++i) {
            Categorical dist(head_logits_[i]);
            Vector dlogits = dist.logProbGradLogits(actions[i], dlogp);
            if (dentropy != 0.0) {
                const Vector de = dist.entropyGradLogits(dentropy);
                axpy(1.0, de, dlogits);
            }
            const Vector dx = heads_[i].backward(dlogits, trunk_out_);
            axpy(1.0, dx, d_trunk);
        }
        if (dvalue != 0.0) {
            const Vector dv{dvalue};
            const Vector dx = value_head_.backward(dv, trunk_out_);
            axpy(1.0, dx, d_trunk);
        }
        trunk_.backward(d_trunk);
    }

  private:
    static std::vector<Linear>
    makeHeads(ParameterStore &store, std::size_t in, const ActionSpec &spec)
    {
        std::vector<Linear> heads;
        for (std::size_t k : spec.head_sizes)
            heads.emplace_back(store, in, k);
        return heads;
    }

    void
    forwardTrunk(const Vector &state)
    {
        trunk_out_ = trunk_.forward(state);
        head_logits_.clear();
        for (auto &h : heads_)
            head_logits_.push_back(h.forward(trunk_out_));
        value_cache_ = value_head_.forward(trunk_out_)[0];
    }

    ParameterStore store_;
    Mlp trunk_;
    std::vector<Linear> heads_;
    Linear value_head_;
    Vector trunk_out_;
    std::vector<Vector> head_logits_;
    double value_cache_ = 0.0;
};

}  // namespace seed

bool
sameBits(double a, double b)
{
    return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

bool
sameBits(const Vector &a, const Vector &b)
{
    return a.size() == b.size() &&
           std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

/**
 * Blocks of 32, 6 and 1 rows through PolicyNetwork, and the same rows
 * one at a time through the seed's math, from the same parameters:
 * logits, value, log-prob and entropy of every row, and the gradients
 * accumulated over all three blocks, must agree bit for bit. dentropy
 * is zero in the 6-row block only; dvalue is exactly zero on every
 * third row, which must skip the value head. act() is checked on single
 * states, sampled and greedy.
 */
void
expectBitIdenticalToSeed(const std::vector<std::size_t> &hidden,
                         const ActionSpec &spec, std::uint64_t seed)
{
    constexpr std::size_t kStateDim = 33;
    const std::size_t n_heads = spec.numHeads();
    PolicyNetwork net(kStateDim, spec, hidden, seed);
    seed::Network ref(kStateDim, spec, hidden);
    ASSERT_EQ(ref.params().size(), net.numParams());
    Rng inputs(seed + 1), net_rng(seed + 2), ref_rng(seed + 2);
    // Perturb every parameter, so the biases are not all zero.
    for (double &v : net.params().rawValues())
        v += inputs.normal(0.0, 0.1);
    ref.params().rawValues() = net.params().rawValues();
    net.params().zeroGrads();
    ref.params().zeroGrads();
    auto randomState = [&]() {
        Vector state(kStateDim);
        for (double &x : state)
            x = inputs.normal(0.0, 1.5);
        return state;
    };

    for (int k = 0; k < 8; ++k) {
        SCOPED_TRACE(k);
        const Vector state = randomState();
        const bool greedy = k % 2 == 0;
        const auto a = net.act(state, net_rng, greedy);
        const auto b = ref.act(state, ref_rng, greedy);
        ASSERT_EQ(a.actions, b.actions);
        EXPECT_TRUE(sameBits(a.value, b.value));
        EXPECT_TRUE(sameBits(a.log_prob, b.log_prob));
        EXPECT_TRUE(sameBits(a.entropy, b.entropy));
        for (std::size_t h = 0; h < n_heads; ++h) {
            const std::span<const double> got = net.logits(h, 0);
            EXPECT_TRUE(sameBits(Vector(got.begin(), got.end()),
                                 ref.logits(h)))
                << "head " << h;
        }
    }

    Minibatch &mb = net.minibatch(32);
    for (const std::size_t rows : {32u, 6u, 1u}) {
        SCOPED_TRACE(rows);
        for (std::size_t r = 0; r < rows; ++r) {
            const Vector state = randomState();
            std::copy(state.begin(), state.end(),
                      mb.states.begin() + r * kStateDim);
            for (std::size_t h = 0; h < n_heads; ++h) {
                mb.actions[r * n_heads + h] =
                    inputs.uniformInt(std::uint64_t(spec.head_sizes[h]));
            }
        }
        net.evaluate(rows);
        const double dentropy = rows == 6 ? 0.0 : -0.01 / double(rows);
        for (std::size_t r = 0; r < rows; ++r) {
            SCOPED_TRACE(r);
            const Eval got = mb.evals[r];
            mb.dlogp[r] = inputs.normal(0.0, 1.0) / double(rows);
            mb.dvalue[r] = r % 3 == 0 ? 0.0
                                      : 0.5 * (got.value - inputs.normal()) /
                                            double(rows);
            // The seed math, one row at a time.
            const Vector state(mb.states.begin() + r * kStateDim,
                               mb.states.begin() + (r + 1) * kStateDim);
            const std::vector<std::size_t> actions(
                mb.actions.begin() + r * n_heads,
                mb.actions.begin() + (r + 1) * n_heads);
            const Eval want = ref.evaluate(state, actions);
            for (std::size_t h = 0; h < n_heads; ++h) {
                const std::span<const double> z = net.logits(h, r);
                EXPECT_TRUE(
                    sameBits(Vector(z.begin(), z.end()), ref.logits(h)))
                    << "head " << h;
            }
            EXPECT_TRUE(sameBits(got.value, want.value));
            EXPECT_TRUE(sameBits(got.log_prob, want.log_prob));
            EXPECT_TRUE(sameBits(got.entropy, want.entropy));
            ref.backward(actions, mb.dlogp[r], dentropy, mb.dvalue[r]);
        }
        net.backward(rows, dentropy);
        EXPECT_TRUE(sameBits(net.params().rawGrads(),
                             ref.params().rawGrads()));
    }
    const Vector &grads = net.params().rawGrads();
    // The gradients reach every layer, the first included.
    EXPECT_NE(grads.front(), 0.0);
    EXPECT_NE(grads.back(), 0.0);
}

TEST(PolicyNetwork, BitIdenticalToSeedMathPaperShape)
{
    expectBitIdenticalToSeed({50, 50}, spec553(), 21);
}

TEST(PolicyNetwork, BitIdenticalToSeedMathOddWidths)
{
    // Neither hidden width is a multiple of the four or eight outputs
    // Linear::forward runs side by side, and 13 and 7 inputs leave a
    // lone column in backward(); the 9-way head is one block of eight
    // plus a remainder; four heads as with the SLO-tier head.
    expectBitIdenticalToSeed({13, 7}, ActionSpec{{9, 5, 3, 4}}, 22);
}

TEST(PolicyNetwork, BitIdenticalToSeedMathSingleHiddenLayer)
{
    expectBitIdenticalToSeed({16}, spec553(), 23);
}

TEST(PolicyNetwork, ShapesAndParamCount)
{
    PolicyNetwork net(33, spec553(), {50, 50}, 1);
    EXPECT_EQ(net.stateDim(), 33u);
    // 33*50+50 + 50*50+50 + 50*5+5 (x2) + 50*3+3 + 50*1+1.
    const std::size_t expect = 33 * 50 + 50 + 50 * 50 + 50 +
                               2 * (50 * 5 + 5) + 50 * 3 + 3 + 50 + 1;
    EXPECT_EQ(net.numParams(), expect);
    EXPECT_EQ(net.numParams(), 4964u);
    // 4,964 parameters; the paper quotes ~9K for its model, the same
    // order of magnitude.
    EXPECT_GT(net.numParams(), 4000u);
    EXPECT_LT(net.numParams(), 20000u);
}

TEST(PolicyNetwork, ActReturnsValidActions)
{
    PolicyNetwork net(10, spec553(), {16}, 2);
    Rng rng(3);
    Vector s(10, 0.1);
    const auto res = net.act(s, rng);
    ASSERT_EQ(res.actions.size(), 3u);
    EXPECT_LT(res.actions[0], 5u);
    EXPECT_LT(res.actions[1], 5u);
    EXPECT_LT(res.actions[2], 3u);
    EXPECT_LE(res.log_prob, 0.0);
}

TEST(PolicyNetwork, DeterministicActIsStable)
{
    PolicyNetwork net(6, spec553(), {16}, 4);
    Rng rng(5);
    Vector s(6, -0.2);
    const auto a1 = net.act(s, rng, true);
    const auto a2 = net.act(s, rng, true);
    EXPECT_EQ(a1.actions, a2.actions);
}

/** The network's minibatch, holding @p state and @p actions in row 0. */
Minibatch &
oneRow(PolicyNetwork &net, const Vector &state,
       const std::vector<std::size_t> &actions)
{
    Minibatch &mb = net.minibatch(1);
    std::copy(state.begin(), state.end(), mb.states.begin());
    std::copy(actions.begin(), actions.end(), mb.actions.begin());
    return mb;
}

/** evaluate() of one row. */
Eval
evalRow(PolicyNetwork &net, const Vector &state,
        const std::vector<std::size_t> &actions)
{
    Minibatch &mb = oneRow(net, state, actions);
    net.evaluate(1);
    return mb.evals[0];
}

TEST(PolicyNetwork, EvaluateMatchesActLogProb)
{
    PolicyNetwork net(6, spec553(), {16}, 6);
    Rng rng(7);
    Vector s(6, 0.5);
    const auto res = net.act(s, rng);
    const auto ev = evalRow(net, s, res.actions);
    EXPECT_NEAR(ev.log_prob, res.log_prob, 1e-12);
    EXPECT_NEAR(ev.value, res.value, 1e-12);
    EXPECT_DOUBLE_EQ(net.value(s), res.value);
    EXPECT_GT(ev.entropy, 0.0);
}

TEST(PolicyNetwork, InitialPolicyIsNearUniform)
{
    PolicyNetwork net(8, spec553(), {50, 50}, 8);
    Vector s(8, 0.3);
    const auto ev = evalRow(net, s, {0, 0, 0});
    // Max entropy = ln5 + ln5 + ln3.
    const double max_h = std::log(5.0) * 2 + std::log(3.0);
    EXPECT_GT(ev.entropy, 0.9 * max_h);
}

TEST(PolicyNetwork, BackwardImprovesChosenActionLikelihood)
{
    PolicyNetwork net(4, spec553(), {16}, 10);
    Vector s{0.1, -0.2, 0.3, -0.4};
    const std::vector<std::size_t> target{4, 2, 1};
    const double before = evalRow(net, s, target).log_prob;
    // Gradient ascent on logP: loss gradient dlogp = -1.
    Minibatch &mb = oneRow(net, s, target);
    mb.dlogp[0] = -1.0;
    mb.dvalue[0] = 0.0;
    for (int i = 0; i < 50; ++i) {
        net.params().zeroGrads();
        net.evaluate(1);
        net.backward(1, 0.0);
        // Plain SGD step.
        for (std::size_t k = 0; k < net.params().size(); ++k) {
            net.params().rawValues()[k] -=
                0.05 * net.params().rawGrads()[k];
        }
    }
    const double after = evalRow(net, s, target).log_prob;
    EXPECT_GT(after, before + 0.5);
}

TEST(PolicyNetwork, ValueGradientRegresses)
{
    PolicyNetwork net(4, spec553(), {16}, 12);
    Vector s{0.5, 0.5, -0.5, -0.5};
    const double target = 3.0;
    Minibatch &mb = oneRow(net, s, {0, 0, 0});
    mb.dlogp[0] = 0.0;
    for (int i = 0; i < 300; ++i) {
        net.evaluate(1);
        mb.dvalue[0] = mb.evals[0].value - target;
        net.params().zeroGrads();
        net.backward(1, 0.0);
        for (std::size_t k = 0; k < net.params().size(); ++k) {
            net.params().rawValues()[k] -=
                0.01 * net.params().rawGrads()[k];
        }
    }
    EXPECT_NEAR(net.value(s), target, 0.3);
}

TEST(PolicyNetwork, SaveLoadRoundTrip)
{
    const auto path = std::filesystem::temp_directory_path() /
                      "fleetio_policy_test.txt";
    PolicyNetwork a(6, spec553(), {16}, 14);
    PolicyNetwork b(6, spec553(), {16}, 15);
    ASSERT_TRUE(a.save(path.string()));
    ASSERT_TRUE(b.load(path.string()));
    Vector s(6, 0.2);
    EXPECT_NEAR(evalRow(a, s, {1, 1, 1}).log_prob,
                evalRow(b, s, {1, 1, 1}).log_prob, 1e-12);
    std::filesystem::remove(path);
}

TEST(PolicyNetwork, CopyParamsFromMirrorsBehaviour)
{
    PolicyNetwork a(6, spec553(), {16}, 16);
    PolicyNetwork b(6, spec553(), {16}, 17);
    b.copyParamsFrom(a);
    Vector s(6, -0.7);
    EXPECT_NEAR(a.value(s), b.value(s), 1e-12);
}

}  // namespace
}  // namespace fleetio::rl
