/** @file Gradient-checking tests for the Linear layer and Mlp trunk. */
#include <gtest/gtest.h>

#include <cmath>

#include "src/rl/mlp.h"

namespace fleetio::rl {
namespace {

/** Numerical gradient of a scalar loss w.r.t. every parameter. */
template <typename LossFn>
Vector
numericalGrad(ParameterStore &ps, LossFn loss, double eps = 1e-6)
{
    Vector g(ps.size());
    for (std::size_t i = 0; i < ps.size(); ++i) {
        const double orig = ps.rawValues()[i];
        ps.rawValues()[i] = orig + eps;
        const double up = loss();
        ps.rawValues()[i] = orig - eps;
        const double down = loss();
        ps.rawValues()[i] = orig;
        g[i] = (up - down) / (2 * eps);
    }
    return g;
}

TEST(Linear, ForwardComputesAffineMap)
{
    ParameterStore ps;
    Rng rng(1);
    Linear lin(ps, 2, 3, rng);
    // Overwrite with known weights: y = W x + b.
    double *w = ps.values(0);
    double *b = ps.values(6);
    const double W[6] = {1, 2, 3, 4, 5, 6};
    for (int i = 0; i < 6; ++i)
        w[i] = W[i];
    b[0] = 0.1;
    b[1] = 0.2;
    b[2] = 0.3;
    Vector y(3);
    lin.forward(Vector{1.0, -1.0}, y);
    EXPECT_NEAR(y[0], 1 - 2 + 0.1, 1e-12);
    EXPECT_NEAR(y[1], 3 - 4 + 0.2, 1e-12);
    EXPECT_NEAR(y[2], 5 - 6 + 0.3, 1e-12);
}

TEST(Linear, BackwardMatchesNumericalGradient)
{
    // Five rows: a four-row block and a lone row in forward(), two
    // two-row blocks and a lone row for dL/dx in backward().
    constexpr std::size_t kRows = 5;
    ParameterStore ps;
    Rng rng(2);
    Linear lin(ps, 4, 3, rng);
    Vector x(kRows * 4), target(kRows * 3);
    for (double &v : x)
        v = rng.normal(0.0, 1.0);
    for (double &v : target)
        v = rng.normal(0.0, 1.0);

    auto loss = [&]() {
        Vector y(kRows * 3);
        lin.forward(x, y);
        double l = 0;
        for (std::size_t i = 0; i < y.size(); ++i)
            l += 0.5 * (y[i] - target[i]) * (y[i] - target[i]);
        return l;
    };

    const Vector num = numericalGrad(ps, loss);
    ps.zeroGrads();
    Vector y(kRows * 3);
    lin.forward(x, y);
    Vector dy(y.size());
    for (std::size_t i = 0; i < y.size(); ++i)
        dy[i] = y[i] - target[i];
    lin.backward(dy, x, {});
    for (std::size_t i = 0; i < ps.size(); ++i)
        EXPECT_NEAR(ps.rawGrads()[i], num[i], 1e-5) << "param " << i;
}

TEST(Linear, BackwardReturnsInputGradient)
{
    ParameterStore ps;
    Rng rng(3);
    Linear lin(ps, 3, 2, rng);
    // Two rows: dx = dy W for each.
    const Vector x{0.1, 0.2, 0.3, -0.4, 0.5, -0.6};
    const Vector dy{1.0, -1.0, 0.5, 2.0};
    Vector dx(6, 99.0);  // overwritten, not accumulated into
    lin.backward(dy, x, dx);
    const double *w = ps.values(0);
    for (std::size_t r = 0; r < 2; ++r) {
        for (std::size_t i = 0; i < 3; ++i) {
            const double expect =
                w[i] * dy[r * 2] + w[3 + i] * dy[r * 2 + 1];
            EXPECT_NEAR(dx[r * 3 + i], expect, 1e-12);
        }
    }
}

TEST(Mlp, OutputBoundedByTanh)
{
    ParameterStore ps;
    Rng rng(4);
    Mlp mlp(ps, 5, {8, 8}, rng);
    EXPECT_EQ(mlp.inSize(), 5u);
    EXPECT_EQ(mlp.outSize(), 8u);
    EXPECT_EQ(mlp.actsPerRow(), 16u);
    const Vector x{10, -10, 5, -5, 0};
    Vector acts(mlp.actsPerRow());
    const std::span<const double> y = mlp.forward(x, acts);
    ASSERT_EQ(y.size(), 8u);
    for (double v : y) {
        EXPECT_LE(v, 1.0);
        EXPECT_GE(v, -1.0);
    }
}

TEST(Mlp, BackwardMatchesNumericalGradient)
{
    constexpr std::size_t kRows = 3;
    ParameterStore ps;
    Rng rng(5);
    Mlp mlp(ps, 3, {6, 4}, rng);
    const Vector x{0.25, -0.5, 0.75, -0.1, 0.9, 0.3, 0.6, 0.0, -0.8};
    Vector acts(kRows * mlp.actsPerRow());

    auto loss = [&]() {
        double l = 0;
        for (double v : mlp.forward(x, acts))
            l += 0.5 * v * v;
        return l;
    };

    const Vector num = numericalGrad(ps, loss);
    ps.zeroGrads();
    const std::span<const double> y = mlp.forward(x, acts);
    const Vector dout(y.begin(), y.end());  // dL/dy = y for 0.5*||y||^2
    mlp.backward(x, acts, dout);
    for (std::size_t i = 0; i < ps.size(); ++i)
        EXPECT_NEAR(ps.rawGrads()[i], num[i], 1e-5) << "param " << i;
}

TEST(Mlp, GradientsAccumulateAcrossBackwardCalls)
{
    ParameterStore ps;
    Rng rng(6);
    Mlp mlp(ps, 2, {4}, rng);
    const Vector x{0.5, -0.5};
    Vector acts(mlp.actsPerRow());
    ps.zeroGrads();
    const std::span<const double> y = mlp.forward(x, acts);
    const Vector dout(y.begin(), y.end());
    mlp.backward(x, acts, dout);
    const Vector once = ps.rawGrads();
    mlp.forward(x, acts);
    mlp.backward(x, acts, dout);
    for (std::size_t i = 0; i < ps.size(); ++i)
        EXPECT_NEAR(ps.rawGrads()[i], 2 * once[i], 1e-9);
}

TEST(Mlp, DeterministicInitializationPerSeed)
{
    ParameterStore ps1, ps2;
    Rng r1(7), r2(7);
    Mlp m1(ps1, 4, {5}, r1);
    Mlp m2(ps2, 4, {5}, r2);
    EXPECT_EQ(ps1.rawValues(), ps2.rawValues());
}

}  // namespace
}  // namespace fleetio::rl
