/** @file Unit tests for the RL linear-algebra helpers. */
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>

#include "src/rl/matrix.h"

namespace fleetio::rl {
namespace {

TEST(ParameterStore, AllocateReturnsDisjointSegments)
{
    ParameterStore ps;
    const auto a = ps.allocate(10);
    const auto b = ps.allocate(5);
    EXPECT_EQ(a, 0u);
    EXPECT_EQ(b, 10u);
    EXPECT_EQ(ps.size(), 15u);
    ps.values(a)[9] = 1.5;
    ps.values(b)[0] = 2.5;
    EXPECT_DOUBLE_EQ(ps.rawValues()[9], 1.5);
    EXPECT_DOUBLE_EQ(ps.rawValues()[10], 2.5);
}

TEST(ParameterStore, ZeroGradsClearsOnlyGrads)
{
    ParameterStore ps;
    ps.allocate(4);
    ps.values(0)[0] = 3.0;
    ps.grads(0)[0] = 9.0;
    ps.zeroGrads();
    EXPECT_DOUBLE_EQ(ps.values(0)[0], 3.0);
    EXPECT_DOUBLE_EQ(ps.grads(0)[0], 0.0);
}

TEST(ParameterStore, SaveLoadRoundTrip)
{
    const auto path = std::filesystem::temp_directory_path() /
                      "fleetio_params_test.txt";
    ParameterStore ps;
    ps.allocate(6);
    for (std::size_t i = 0; i < 6; ++i)
        ps.rawValues()[i] = double(i) * 0.125 - 0.3;
    ASSERT_TRUE(ps.saveToFile(path.string()));

    ParameterStore ps2;
    ps2.allocate(6);
    ASSERT_TRUE(ps2.loadFromFile(path.string()));
    for (std::size_t i = 0; i < 6; ++i)
        EXPECT_DOUBLE_EQ(ps2.rawValues()[i], ps.rawValues()[i]);
    std::filesystem::remove(path);
}

TEST(ParameterStore, LoadRejectsSizeMismatch)
{
    const auto path = std::filesystem::temp_directory_path() /
                      "fleetio_params_mismatch.txt";
    ParameterStore ps;
    ps.allocate(4);
    ASSERT_TRUE(ps.saveToFile(path.string()));
    ParameterStore ps2;
    ps2.allocate(5);
    EXPECT_FALSE(ps2.loadFromFile(path.string()));
    std::filesystem::remove(path);
}

TEST(ParameterStore, LoadRejectsTruncatedFile)
{
    const auto path = std::filesystem::temp_directory_path() /
                      "fleetio_params_trunc.txt";
    {
        std::ofstream out(path);
        out << "4\n0.5\n0.25\n";  // header promises 4, delivers 2
    }
    ParameterStore ps;
    ps.allocate(4);
    for (std::size_t i = 0; i < 4; ++i)
        ps.rawValues()[i] = 7.0;
    EXPECT_FALSE(ps.loadFromFile(path.string()));
    // A failed load must not partially overwrite the live values.
    for (std::size_t i = 0; i < 4; ++i)
        EXPECT_DOUBLE_EQ(ps.rawValues()[i], 7.0);
    std::filesystem::remove(path);
}

TEST(ParameterStore, LoadRejectsTrailingGarbage)
{
    const auto path = std::filesystem::temp_directory_path() /
                      "fleetio_params_trailing.txt";
    {
        std::ofstream out(path);
        out << "2\n0.5\n0.25\n0.125\n";  // one token too many
    }
    ParameterStore ps;
    ps.allocate(2);
    EXPECT_FALSE(ps.loadFromFile(path.string()));
    std::filesystem::remove(path);
}

TEST(ParameterStore, LoadRejectsNonFiniteValues)
{
    const auto path = std::filesystem::temp_directory_path() /
                      "fleetio_params_nan.txt";
    for (const char *bad : {"nan", "inf", "-inf"}) {
        {
            std::ofstream out(path);
            out << "2\n0.5\n" << bad << "\n";
        }
        ParameterStore ps;
        ps.allocate(2);
        ps.rawValues()[0] = 3.0;
        ps.rawValues()[1] = 4.0;
        EXPECT_FALSE(ps.loadFromFile(path.string())) << bad;
        EXPECT_DOUBLE_EQ(ps.rawValues()[0], 3.0) << bad;
        EXPECT_DOUBLE_EQ(ps.rawValues()[1], 4.0) << bad;
    }
    std::filesystem::remove(path);
}

TEST(ParameterStore, LoadRejectsGarbageToken)
{
    const auto path = std::filesystem::temp_directory_path() /
                      "fleetio_params_garbage.txt";
    {
        std::ofstream out(path);
        out << "2\n0.5\npotato\n";
    }
    ParameterStore ps;
    ps.allocate(2);
    EXPECT_FALSE(ps.loadFromFile(path.string()));
    std::filesystem::remove(path);
}

TEST(VectorOps, AxpyAndDot)
{
    Vector x{1, 2, 3};
    Vector y{10, 20, 30};
    axpy(2.0, x, y);
    EXPECT_EQ(y, (Vector{12, 24, 36}));
    EXPECT_DOUBLE_EQ(dot(x, x), 14.0);
}

}  // namespace
}  // namespace fleetio::rl
