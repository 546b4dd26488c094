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
    ParameterStore ps;
    Rng rng(2);
    Linear lin(ps, 4, 3, rng);
    const Vector x{0.3, -0.7, 1.1, 0.05};
    const Vector target{0.5, -0.25, 1.0};

    auto loss = [&]() {
        Vector y(3);
        lin.forward(x, y);
        double l = 0;
        for (std::size_t i = 0; i < y.size(); ++i)
            l += 0.5 * (y[i] - target[i]) * (y[i] - target[i]);
        return l;
    };

    const Vector num = numericalGrad(ps, loss);
    ps.zeroGrads();
    Vector y(3);
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
    const Vector x{0.1, 0.2, 0.3};
    const Vector dy{1.0, -1.0};
    Vector dx(3, 99.0);  // overwritten, not accumulated into
    lin.backward(dy, x, dx);
    // dx = W^T dy.
    const double *w = ps.values(0);
    for (std::size_t i = 0; i < 3; ++i) {
        const double expect = w[i] * dy[0] + w[3 + i] * dy[1];
        EXPECT_NEAR(dx[i], expect, 1e-12);
    }
}

TEST(Mlp, OutputBoundedByTanh)
{
    ParameterStore ps;
    Rng rng(4);
    Mlp mlp(ps, 5, {8, 8}, rng);
    EXPECT_EQ(mlp.inSize(), 5u);
    EXPECT_EQ(mlp.outSize(), 8u);
    const Vector y = mlp.forward(Vector{10, -10, 5, -5, 0});
    for (double v : y) {
        EXPECT_LE(v, 1.0);
        EXPECT_GE(v, -1.0);
    }
}

TEST(Mlp, BackwardMatchesNumericalGradient)
{
    ParameterStore ps;
    Rng rng(5);
    Mlp mlp(ps, 3, {6, 4}, rng);
    const Vector x{0.25, -0.5, 0.75};

    auto loss = [&]() {
        const Vector y = mlp.forward(x);
        double l = 0;
        for (double v : y)
            l += 0.5 * v * v;
        return l;
    };

    const Vector num = numericalGrad(ps, loss);
    ps.zeroGrads();
    const Vector y = mlp.forward(x);
    mlp.backward(y);  // dL/dy = y for 0.5*||y||^2
    for (std::size_t i = 0; i < ps.size(); ++i)
        EXPECT_NEAR(ps.rawGrads()[i], num[i], 1e-5) << "param " << i;
}

TEST(Mlp, GradientsAccumulateAcrossBackwardCalls)
{
    ParameterStore ps;
    Rng rng(6);
    Mlp mlp(ps, 2, {4}, rng);
    const Vector x{0.5, -0.5};
    ps.zeroGrads();
    Vector y = mlp.forward(x);
    mlp.backward(y);
    const Vector once = ps.rawGrads();
    y = mlp.forward(x);
    mlp.backward(y);
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
