/** @file Unit tests for the log-bucketed histogram. */
#include <gtest/gtest.h>

#include "src/sim/rng.h"
#include "src/stats/histogram.h"

namespace fleetio {
namespace {

TEST(Histogram, EmptyReturnsZeroes)
{
    Histogram h;
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.quantile(0.5), 0u);
    EXPECT_EQ(h.mean(), 0.0);
    EXPECT_EQ(h.max(), 0u);
}

TEST(Histogram, SingleValue)
{
    Histogram h;
    h.record(1000);
    EXPECT_EQ(h.count(), 1u);
    EXPECT_EQ(h.max(), 1000u);
    // Bucketing error bounded by ~1/64.
    EXPECT_NEAR(double(h.quantile(0.5)), 1000.0, 1000.0 / 32);
}

TEST(Histogram, QuantilesOfUniformRamp)
{
    Histogram h;
    for (std::uint64_t v = 1; v <= 10000; ++v)
        h.record(v);
    EXPECT_NEAR(double(h.quantile(0.5)), 5000, 5000 * 0.05);
    EXPECT_NEAR(double(h.quantile(0.99)), 9900, 9900 * 0.05);
    EXPECT_EQ(h.quantile(1.0), 10000u);
    EXPECT_EQ(h.count(), 10000u);
}

TEST(Histogram, MeanIsExact)
{
    Histogram h;
    h.record(10);
    h.record(20);
    h.record(30);
    EXPECT_DOUBLE_EQ(h.mean(), 20.0);
}

TEST(Histogram, ZeroClampsToOne)
{
    Histogram h;
    h.record(0);
    EXPECT_EQ(h.count(), 1u);
    EXPECT_LE(h.quantile(0.5), 1u);
}

TEST(Histogram, ResetClearsEverything)
{
    Histogram h;
    for (int i = 0; i < 7; ++i)
        h.record(42);
    h.reset();
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.mean(), 0.0);
    EXPECT_EQ(h.max(), 0u);
    EXPECT_EQ(h.quantile(0.9), 0u);
}

TEST(Histogram, LargeValuesDoNotOverflowBuckets)
{
    Histogram h;
    const std::uint64_t big = 1ull << 62;
    h.record(big);
    EXPECT_EQ(h.count(), 1u);
    EXPECT_EQ(h.quantile(0.5), big);  // capped at recorded max
}

TEST(Histogram, RelativeErrorBoundHolds)
{
    Histogram h(6);
    Rng rng(5);
    std::vector<std::uint64_t> vals;
    for (int i = 0; i < 5000; ++i) {
        const std::uint64_t v = 1 + rng.uniformInt(std::uint64_t(1) << 30);
        vals.push_back(v);
        h.record(v);
    }
    std::sort(vals.begin(), vals.end());
    for (double q : {0.5, 0.9, 0.99}) {
        const auto exact = vals[std::size_t(q * (vals.size() - 1))];
        const auto approx = h.quantile(q);
        EXPECT_NEAR(double(approx), double(exact), double(exact) * 0.05)
            << "q=" << q;
    }
}

}  // namespace
}  // namespace fleetio
