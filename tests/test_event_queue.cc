/** @file Unit tests for the discrete-event queue. */
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <memory>
#include <queue>
#include <vector>

#include "src/sim/event_queue.h"
#include "src/sim/rng.h"

namespace fleetio {
namespace {

TEST(EventQueue, StartsAtTimeZeroAndEmpty)
{
    EventQueue eq;
    EXPECT_EQ(eq.now(), 0u);
    EXPECT_TRUE(eq.empty());
    EXPECT_EQ(eq.pending(), 0u);
    EXPECT_EQ(eq.nextEventTime(), kTimeNever);
    EXPECT_FALSE(eq.step());
}

TEST(EventQueue, DispatchesInTimeOrder)
{
    EventQueue eq;
    std::vector<int> order;
    eq.scheduleAt(usec(30), [&] { order.push_back(3); });
    eq.scheduleAt(usec(10), [&] { order.push_back(1); });
    eq.scheduleAt(usec(20), [&] { order.push_back(2); });
    eq.runAll();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.now(), usec(30));
}

TEST(EventQueue, FifoWithinSameTimestamp)
{
    EventQueue eq;
    std::vector<int> order;
    for (int i = 0; i < 5; ++i)
        eq.scheduleAt(usec(5), [&order, i] { order.push_back(i); });
    eq.runAll();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueue, SchedulingInThePastClampsToNow)
{
    EventQueue eq;
    eq.scheduleAt(usec(100), [] {});
    eq.runAll();
    ASSERT_EQ(eq.now(), usec(100));
    bool fired = false;
    eq.scheduleAt(usec(50), [&] { fired = true; });
    EXPECT_EQ(eq.nextEventTime(), usec(100));
    eq.runAll();
    EXPECT_TRUE(fired);
    EXPECT_EQ(eq.now(), usec(100));
}

TEST(EventQueue, RunUntilStopsAtHorizonAndAdvancesClock)
{
    EventQueue eq;
    int fired = 0;
    eq.scheduleAt(usec(10), [&] { ++fired; });
    eq.scheduleAt(usec(20), [&] { ++fired; });
    eq.scheduleAt(usec(30), [&] { ++fired; });
    const auto n = eq.runUntil(usec(20));
    EXPECT_EQ(n, 2u);
    EXPECT_EQ(fired, 2);
    EXPECT_EQ(eq.now(), usec(20));
    EXPECT_EQ(eq.pending(), 1u);
}

TEST(EventQueue, RunUntilAdvancesClockEvenWithoutEvents)
{
    EventQueue eq;
    eq.runUntil(msec(5));
    EXPECT_EQ(eq.now(), msec(5));
}

TEST(EventQueue, EventsMayScheduleMoreEvents)
{
    EventQueue eq;
    int count = 0;
    std::function<void()> chain = [&]() {
        if (++count < 10)
            eq.scheduleAfter(usec(1), chain);
    };
    eq.scheduleAfter(usec(1), chain);
    eq.runAll();
    EXPECT_EQ(count, 10);
    EXPECT_EQ(eq.now(), usec(10));
    EXPECT_EQ(eq.dispatched(), 10u);
}

TEST(EventQueue, ScheduleAfterIsRelativeToNow)
{
    EventQueue eq;
    SimTime observed = 0;
    eq.scheduleAt(msec(1), [&] {
        eq.scheduleAfter(usec(500), [&] { observed = eq.now(); });
    });
    eq.runAll();
    EXPECT_EQ(observed, msec(1) + usec(500));
}

TEST(EventQueue, AcceptsMoveOnlyCaptures)
{
    EventQueue eq;
    auto box = std::make_unique<int>(41);
    int seen = 0;
    eq.scheduleAt(usec(1),
                  [&seen, b = std::move(box)]() { seen = *b + 1; });
    eq.runAll();
    EXPECT_EQ(seen, 42);
}

TEST(EventQueue, LargeCapturesFallBackToHeapAndStillRun)
{
    // A capture larger than the inline buffer must box, not truncate.
    static_assert(sizeof(std::array<std::uint64_t, 40>) >
                  EventQueue::kInlineCallbackBytes);
    EventQueue eq;
    std::array<std::uint64_t, 40> big{};
    big.front() = 7;
    big.back() = 35;
    std::uint64_t sum = 0;
    eq.scheduleAt(usec(1),
                  [&sum, big]() { sum = big.front() + big.back(); });
    eq.runAll();
    EXPECT_EQ(sum, 42u);
}

TEST(EventQueue, FifoWithinTimestampAcrossCaptureSizes)
{
    // Insertion order must hold even when inline and heap-boxed
    // callbacks interleave at one timestamp.
    EventQueue eq;
    std::vector<int> order;
    std::array<std::uint64_t, 40> big{};
    for (int i = 0; i < 6; ++i) {
        if (i % 2 == 0) {
            eq.scheduleAt(usec(5), [&order, i] { order.push_back(i); });
        } else {
            eq.scheduleAt(usec(5),
                          [&order, i, big] { order.push_back(i); });
        }
    }
    eq.runAll();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5}));
}

TEST(EventQueue, NullCallbacksDispatchAsNoOps)
{
    // The device paths schedule raw (possibly-null) callbacks; a null
    // event must advance the clock and count without crashing.
    EventQueue eq;
    eq.scheduleAt(usec(3), EventQueue::Callback());
    EXPECT_EQ(eq.pending(), 1u);
    eq.runAll();
    EXPECT_EQ(eq.now(), usec(3));
    EXPECT_EQ(eq.dispatched(), 1u);
}

/**
 * A seeded random schedule whose dispatch order is checked against a
 * std::priority_queue of {when, seq}. Times sit on a coarse grid, so
 * many events tie, and some land before now() and clamp. Callbacks
 * schedule 0-3 events each, so the pending set (and the callback slab)
 * grows well past the queue's initial reservation from inside a
 * dispatch; one callback clears the queue and reseeds it, another halts
 * it. Captures carry a payload that is checked on dispatch, so a
 * callback corrupted by being moved around the slab shows up here, and
 * a reference into the slab held across its growth shows up under ASan.
 */
class EventQueueOracle : public ::testing::Test
{
  protected:
    struct Expected
    {
        SimTime when;
        std::uint64_t seq;
    };

    struct Later
    {
        bool
        operator()(const Expected &a, const Expected &b) const
        {
            return a.when != b.when ? a.when > b.when : a.seq > b.seq;
        }
    };

    static constexpr std::uint64_t kBudget = 8000;  // events scheduled
    static constexpr std::uint64_t kClearAt = 2500; // dispatch count
    static constexpr std::uint64_t kHaltAt = 4000;
    static constexpr std::uint64_t kReseed = 32;

    SimTime
    randomTime()
    {
        const SimTime now = eq_.now();
        const std::uint64_t r = rng_.uniformInt(std::uint64_t(8));
        if (r < 2)
            return now - std::min<SimTime>(now, 10 * (r + 1));
        return now + 10 * (r - 2);
    }

    void
    schedule()
    {
        const SimTime when = randomTime();
        const std::uint64_t seq = seq_++;
        oracle_.push(Expected{std::max(when, eq_.now()), seq});
        if (seq % 4 == 0) {
            // Larger than the inline buffer: heap-boxed.
            std::array<std::uint64_t, 16> big{};
            big.fill(seq);
            eq_.scheduleAt(when, [this, seq, big] {
                fire(seq, big.front() + big.back() - seq);
            });
        } else {
            std::array<std::uint64_t, 9> payload{};
            payload.fill(seq);
            eq_.scheduleAt(when, [this, seq, payload] {
                fire(seq, payload.front() + payload.back() - seq);
            });
        }
    }

    void
    fire(std::uint64_t seq, std::uint64_t payload)
    {
        ++fired_;
        max_pending_ = std::max(max_pending_, eq_.pending());
        EXPECT_EQ(payload, seq);
        ASSERT_FALSE(oracle_.empty());
        EXPECT_EQ(oracle_.top().seq, seq);
        EXPECT_EQ(oracle_.top().when, eq_.now());
        oracle_.pop();
        if (fired_ == kClearAt) {
            eq_.clearPending();
            oracle_ = {};
            for (std::uint64_t i = 0; i < kReseed; ++i)
                schedule();
        }
        if (fired_ == kHaltAt)
            eq_.halt();
        const std::uint64_t n = rng_.uniformInt(std::uint64_t(4));
        for (std::uint64_t i = 0; i < n && seq_ < kBudget; ++i)
            schedule();
    }

    EventQueue eq_;
    Rng rng_{20251017};
    std::priority_queue<Expected, std::vector<Expected>, Later> oracle_;
    std::uint64_t seq_ = 0;
    std::uint64_t fired_ = 0;
    std::size_t max_pending_ = 0;
};

TEST_F(EventQueueOracle, DispatchOrderMatchesPriorityQueue)
{
    for (int i = 0; i < 64; ++i)
        schedule();
    bool halted_once = false;
    while (!eq_.empty()) {
        eq_.runUntil(eq_.now() + 25);
        if (eq_.halted()) {
            // Halted: nothing dispatches and the clock stays put.
            halted_once = true;
            const SimTime t = eq_.now();
            const std::uint64_t n = eq_.dispatched();
            EXPECT_FALSE(eq_.step());
            EXPECT_EQ(eq_.runUntil(t + 1000), 0u);
            EXPECT_EQ(eq_.now(), t);
            EXPECT_EQ(eq_.dispatched(), n);
            eq_.resume();
        }
        ASSERT_EQ(eq_.pending(), oracle_.size());
        if (!oracle_.empty()) {
            EXPECT_EQ(eq_.nextEventTime(), oracle_.top().when);
        }
    }
    EXPECT_TRUE(oracle_.empty());
    EXPECT_TRUE(halted_once);
    EXPECT_EQ(seq_, kBudget);
    EXPECT_EQ(fired_, eq_.dispatched());
    EXPECT_GT(fired_, kHaltAt);
    EXPECT_GE(max_pending_, 1000u);
}

TEST(InlineFunction, ConvertingConstructorPreservesNull)
{
    // A smaller-capacity null callable widened into a larger one must
    // stay null (the device hands null completions to the queue).
    InlineFunction<void(), 24> small;
    EXPECT_FALSE(small);
    EventQueue::Callback widened(std::move(small));
    EXPECT_FALSE(widened);

    InlineFunction<void(), 24> set([] {});
    EventQueue::Callback widened_set(std::move(set));
    EXPECT_TRUE(widened_set);
}

TEST(InlineFunction, MoveTransfersOwnershipOnce)
{
    int calls = 0;
    InlineFunction<void(), 32> a([&calls] { ++calls; });
    InlineFunction<void(), 32> b(std::move(a));
    EXPECT_FALSE(a);  // NOLINT(bugprone-use-after-move): null-state check
    ASSERT_TRUE(b);
    b();
    EXPECT_EQ(calls, 1);

    // Heap-boxed case: destructor of the box runs exactly once.
    auto token = std::make_shared<int>(0);
    std::weak_ptr<int> watch = token;
    {
        std::array<std::uint64_t, 40> big{};
        InlineFunction<void(), 32> c(
            [t = std::move(token), big]() { ++*t; });
        InlineFunction<void(), 32> d(std::move(c));
        d();
        EXPECT_FALSE(watch.expired());
    }
    EXPECT_TRUE(watch.expired());
}

}  // namespace
}  // namespace fleetio
