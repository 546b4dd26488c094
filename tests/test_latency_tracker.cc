/** @file Unit tests for windowed latency / SLO tracking. */
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "src/sim/rng.h"
#include "src/stats/latency_tracker.h"

namespace fleetio {
namespace {

TEST(LatencyTracker, WindowMeanAndQuantile)
{
    LatencyTracker t;
    for (std::uint64_t v = 1; v <= 100; ++v)
        t.record(usec(v));
    EXPECT_EQ(t.windowCount(), 100u);
    EXPECT_NEAR(t.windowMeanNs(), double(usec(50)) + 500, 1000);
    EXPECT_EQ(t.quantile(0.5), usec(50));
    EXPECT_EQ(t.quantile(0.99), usec(99));
    EXPECT_EQ(t.quantile(1.0), usec(100));
}

TEST(LatencyTracker, SloViolationsCountedPerWindow)
{
    LatencyTracker t(usec(10));
    for (int i = 0; i < 90; ++i)
        t.record(usec(5));
    for (int i = 0; i < 10; ++i)
        t.record(usec(20));
    EXPECT_DOUBLE_EQ(t.windowSloViolation(), 0.10);
}

TEST(LatencyTracker, ExactlyAtSloIsNotAViolation)
{
    LatencyTracker t(usec(10));
    t.record(usec(10));
    EXPECT_DOUBLE_EQ(t.windowSloViolation(), 0.0);
    t.record(usec(10) + 1);
    EXPECT_DOUBLE_EQ(t.windowSloViolation(), 0.5);
}

TEST(LatencyTracker, RollWindowFoldsIntoLifetime)
{
    LatencyTracker t(usec(10));
    t.record(usec(5));
    t.record(usec(15));
    t.rollWindow();
    EXPECT_EQ(t.windowCount(), 0u);
    EXPECT_EQ(t.totalCount(), 2u);
    EXPECT_DOUBLE_EQ(t.sloViolation(), 0.5);

    t.record(usec(7));
    t.rollWindow();
    EXPECT_EQ(t.totalCount(), 3u);
}

TEST(LatencyTracker, LifetimeQuantilesAreExact)
{
    LatencyTracker t;
    for (std::uint64_t v = 1; v <= 1000; ++v)
        t.record(nsec(v));
    t.rollWindow();
    EXPECT_EQ(t.quantile(0.5), 500u);
    EXPECT_EQ(t.quantile(0.99), 990u);
    EXPECT_EQ(t.quantile(0.999), 999u);
    EXPECT_EQ(t.quantile(0.0), 1u);
}

TEST(LatencyTracker, EmptyTrackerIsSafe)
{
    LatencyTracker t;
    EXPECT_EQ(t.windowMeanNs(), 0.0);
    EXPECT_EQ(t.quantile(0.99), 0u);
    EXPECT_EQ(t.windowSloViolation(), 0.0);
    EXPECT_EQ(t.sloViolation(), 0.0);
    t.rollWindow();  // no crash
}

TEST(LatencyTracker, ResetClearsEverything)
{
    LatencyTracker t(usec(1));
    t.record(usec(5));
    t.rollWindow();
    t.record(usec(5));
    t.reset();
    EXPECT_EQ(t.windowCount(), 0u);
    EXPECT_EQ(t.totalCount(), 0u);
    EXPECT_EQ(t.sloViolation(), 0.0);
}

TEST(LatencyTracker, DefaultSloNeverViolates)
{
    LatencyTracker t;
    t.record(sec(100));
    EXPECT_DOUBLE_EQ(t.windowSloViolation(), 0.0);
}

TEST(LatencyTracker, LifetimeIncludesTheOpenWindow)
{
    // Every record() lands in the lifetime sample set at once; lifetime
    // results do not wait for rollWindow().
    LatencyTracker t(usec(10));
    t.record(usec(5));
    t.record(usec(20));
    t.record(usec(8));
    EXPECT_EQ(t.windowCount(), 3u);
    EXPECT_EQ(t.totalCount(), 3u);
    EXPECT_EQ(t.quantile(0.5), usec(8));
    EXPECT_EQ(t.quantile(1.0), usec(20));
    EXPECT_DOUBLE_EQ(t.sloViolation(), 1.0 / 3.0);
}

TEST(LatencyTracker, WindowMeanIsTheInOrderSum)
{
    // Samples up to 2^52 ns make the window sums pass 2^53, so their
    // rounding depends on the order of the additions: the running sum
    // must add in record order from 0.0, like a pass over the samples.
    LatencyTracker t;
    Rng rng(11);
    std::vector<SimTime> all;
    for (std::size_t n : {1u, 7u, 250u, 3u, 1000u}) {
        double sum = 0.0;
        for (std::size_t i = 0; i < n; ++i) {
            const SimTime lat = 1 + rng.uniformInt(std::uint64_t(1) << 52);
            t.record(lat);
            sum += double(lat);
            all.push_back(lat);
        }
        EXPECT_EQ(t.windowCount(), n);
        EXPECT_EQ(t.windowMeanNs(), sum / double(n)) << "window of " << n;
        t.rollWindow();
        EXPECT_EQ(t.windowMeanNs(), 0.0);
    }
    std::sort(all.begin(), all.end());
    EXPECT_EQ(t.totalCount(), all.size());
    for (double q : {0.0, 0.5, 0.9, 0.99, 1.0}) {
        const std::size_t rank =
            q <= 0.0 ? 0 : std::size_t(std::ceil(q * double(all.size()))) - 1;
        EXPECT_EQ(t.quantile(q), all[rank]) << "q=" << q;
    }
}

}  // namespace
}  // namespace fleetio
