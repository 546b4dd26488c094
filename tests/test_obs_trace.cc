/** @file Tests for the trace recorder and Chrome JSON export. */
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/harness/testbed.h"
#include "src/obs/hub.h"
#include "src/obs/trace.h"
#include "src/policies/fleetio_policy.h"

namespace fleetio {
namespace {

using obs::CounterKind;
using obs::TraceEvent;
using obs::TraceEventType;
using obs::TraceRecorder;
using obs::TraceRing;

// ---------------------------------------------------------------------
// Minimal JSON parser: just enough to parse-validate the exporter's
// output (objects, arrays, strings with escapes, numbers, null). Any
// syntax error fails the parse, so a malformed exporter cannot pass.
// ---------------------------------------------------------------------

struct JsonParser
{
    const std::string &s;
    std::size_t i = 0;
    std::size_t values = 0;  ///< total JSON values parsed

    explicit JsonParser(const std::string &text) : s(text) {}

    void ws()
    {
        while (i < s.size() && (s[i] == ' ' || s[i] == '\n' ||
                                s[i] == '\t' || s[i] == '\r')) {
            ++i;
        }
    }

    bool lit(const char *w)
    {
        const std::size_t n = std::char_traits<char>::length(w);
        if (s.compare(i, n, w) != 0)
            return false;
        i += n;
        return true;
    }

    bool string()
    {
        if (i >= s.size() || s[i] != '"')
            return false;
        ++i;
        while (i < s.size() && s[i] != '"') {
            if (s[i] == '\\') {
                ++i;
                if (i >= s.size())
                    return false;
                const char c = s[i];
                if (c == 'u') {
                    for (int k = 0; k < 4; ++k) {
                        ++i;
                        if (i >= s.size() || !isxdigit(s[i]))
                            return false;
                    }
                } else if (c != '"' && c != '\\' && c != '/' &&
                           c != 'b' && c != 'f' && c != 'n' &&
                           c != 'r' && c != 't') {
                    return false;
                }
            }
            ++i;
        }
        if (i >= s.size())
            return false;
        ++i;  // closing quote
        return true;
    }

    bool number()
    {
        const std::size_t start = i;
        if (i < s.size() && s[i] == '-')
            ++i;
        while (i < s.size() && isdigit(s[i]))
            ++i;
        if (i < s.size() && s[i] == '.') {
            ++i;
            while (i < s.size() && isdigit(s[i]))
                ++i;
        }
        if (i < s.size() && (s[i] == 'e' || s[i] == 'E')) {
            ++i;
            if (i < s.size() && (s[i] == '+' || s[i] == '-'))
                ++i;
            while (i < s.size() && isdigit(s[i]))
                ++i;
        }
        return i > start && isdigit(s[i - 1]);
    }

    bool value()
    {
        ++values;
        ws();
        if (i >= s.size())
            return false;
        const char c = s[i];
        if (c == '{') {
            ++i;
            ws();
            if (i < s.size() && s[i] == '}') {
                ++i;
                return true;
            }
            while (true) {
                ws();
                if (!string())
                    return false;
                ws();
                if (i >= s.size() || s[i] != ':')
                    return false;
                ++i;
                if (!value())
                    return false;
                ws();
                if (i < s.size() && s[i] == ',') {
                    ++i;
                    continue;
                }
                break;
            }
            if (i >= s.size() || s[i] != '}')
                return false;
            ++i;
            return true;
        }
        if (c == '[') {
            ++i;
            ws();
            if (i < s.size() && s[i] == ']') {
                ++i;
                return true;
            }
            while (true) {
                if (!value())
                    return false;
                ws();
                if (i < s.size() && s[i] == ',') {
                    ++i;
                    continue;
                }
                break;
            }
            if (i >= s.size() || s[i] != ']')
                return false;
            ++i;
            return true;
        }
        if (c == '"')
            return string();
        if (c == 't')
            return lit("true");
        if (c == 'f')
            return lit("false");
        if (c == 'n')
            return lit("null");
        return number();
    }

    bool parseDocument()
    {
        if (!value())
            return false;
        ws();
        return i == s.size();
    }
};

TEST(TraceRing, RetainsUpToCapacity)
{
    TraceRing ring(8);
    for (std::uint64_t k = 0; k < 5; ++k) {
        TraceEvent ev;
        ev.ts = k;
        ring.push(ev);
    }
    EXPECT_EQ(ring.size(), 5u);
    EXPECT_EQ(ring.pushed(), 5u);
    EXPECT_EQ(ring.dropped(), 0u);
    const auto snap = ring.snapshot();
    ASSERT_EQ(snap.size(), 5u);
    for (std::uint64_t k = 0; k < 5; ++k)
        EXPECT_EQ(snap[k].ts, k);
}

TEST(TraceRing, WraparoundKeepsNewestAndCountsDrops)
{
    TraceRing ring(8);
    for (std::uint64_t k = 0; k < 20; ++k) {
        TraceEvent ev;
        ev.ts = k;
        ring.push(ev);
    }
    EXPECT_EQ(ring.size(), 8u);
    EXPECT_EQ(ring.pushed(), 20u);
    EXPECT_EQ(ring.dropped(), 12u);
    const auto snap = ring.snapshot();
    ASSERT_EQ(snap.size(), 8u);
    // Oldest-first, i.e. 12..19.
    for (std::size_t k = 0; k < 8; ++k)
        EXPECT_EQ(snap[k].ts, 12 + k);
}

TEST(TraceRecorder, MacroIsANoOpOnNullRecorder)
{
    obs::ObsHub *null_hub = nullptr;
    // Must compile and do nothing (the guard every instrumentation
    // site in the simulator relies on): the emit's arguments are not
    // even evaluated.
    int evaluated = 0;
    FLEETIO_OBS(null_hub, decisionWindow(std::uint64_t(++evaluated)));
    EXPECT_EQ(evaluated, 0);
}

/** A hub with only the trace sink on, as the testbed builds it. */
obs::ObsHub
traceHub()
{
    obs::ObsSinks sinks;
    sinks.trace = true;
    return obs::ObsHub(sinks, 0, 0, msec(100));
}

TEST(TraceRecorder, CountsEventsAndNamesTracks)
{
    obs::ObsHub hub = traceHub();
    SimTime stages[obs::kNumStages] = {};
    SimTime complete = 0;
    hub.tenantAdded(0, "tenant", kTimeNever);
    hub.ioSubmit(100, 0, 1, IoType::kRead, 4, stages, &complete);
    hub.ioDispatch(110, 0, 1, 2, 0, 10, stages, &complete);
    hub.ioComplete(150, 0, 1, IoType::kRead, 100, 4096, stages);
    TraceRecorder &rec = *hub.tracer();
    EXPECT_EQ(rec.eventCount(), 3u);
    EXPECT_EQ(rec.droppedCount(), 0u);
    EXPECT_EQ(rec.ringCount(), 1u);

    std::ostringstream os;
    rec.writeChromeJson(os);
    const std::string out = os.str();
    EXPECT_NE(out.find("tenant-0"), std::string::npos);
    EXPECT_NE(out.find("\"ph\":\"b\""), std::string::npos);
    EXPECT_NE(out.find("\"ph\":\"e\""), std::string::npos);
}

TEST(TraceRecorder, PerThreadRingsPreserveEachThreadsOrder)
{
    TraceRecorder rec(1u << 12);
    constexpr int kThreads = 4;
    constexpr std::uint64_t kPerThread = 500;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&rec, t]() {
            for (std::uint64_t k = 0; k < kPerThread; ++k) {
                TraceEvent ev;
                ev.ts = k;                     // per-thread sequence
                ev.id = std::uint64_t(t);      // thread tag
                ev.type = TraceEventType::kWindowBoundary;
                rec.record(ev);
            }
        });
    }
    for (auto &th : threads)
        th.join();
    EXPECT_EQ(rec.ringCount(), std::size_t(kThreads));
    EXPECT_EQ(rec.eventCount(), std::size_t(kThreads) * kPerThread);
    EXPECT_EQ(rec.droppedCount(), 0u);

    // The export merges by (ts, ring, position): within one ts every
    // thread's events stay contiguous per ring, so for each thread tag
    // the ts sequence in export order must be non-decreasing — each
    // thread's own order survives the merge.
    std::ostringstream os;
    rec.writeChromeJson(os);
    const std::string out = os.str();
    JsonParser p(out);
    EXPECT_TRUE(p.parseDocument()) << "export is not valid JSON";
}

TEST(TraceRecorder, ChromeJsonParsesBackAndHasRequiredFields)
{
    // One of each emit the hub traces.
    obs::ObsHub hub = traceHub();
    SimTime stages[obs::kNumStages] = {};
    SimTime complete = 0;
    hub.tenantAdded(0, "VDI \"quoted\"\n", kTimeNever);
    hub.ioSubmit(1000, 0, 42, IoType::kWrite, 8, stages, &complete);
    hub.ioDispatch(1100, 0, 42, 3, 0, 100, stages, &complete);
    hub.ioComplete(2000, 0, 42, IoType::kWrite, 1000, 32768, stages);
    hub.gcBatch(2100, 0, 3, 17);
    hub.noteErase(3, 12, 2200, 2200, 5200);
    hub.gsbEvent(2300, TraceEventType::kGsbCreate, 0, 7, 2);
    hub.agentDecide(2400, 0, 5);
    hub.agentReward(2500, 0, -0.25);
    hub.agentTrip(2600, 0, 1);
    hub.windowClosed(2700, 0.5, 3, 9, {});

    std::ostringstream os;
    hub.tracer()->writeChromeJson(os);
    const std::string out = os.str();

    JsonParser p(out);
    ASSERT_TRUE(p.parseDocument()) << "export is not valid JSON:\n"
                                   << out;
    EXPECT_GT(p.values, 20u);

    // Track-name metadata and the async begin/end pair share a name so
    // Perfetto can pair them.
    EXPECT_NE(out.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(out.find("\"displayTimeUnit\""), std::string::npos);
    EXPECT_NE(out.find("process_name"), std::string::npos);
    EXPECT_NE(out.find("thread_name"), std::string::npos);
    EXPECT_NE(out.find("\"name\":\"write\""), std::string::npos);
    EXPECT_NE(out.find("\"ph\":\"C\""), std::string::npos);
    EXPECT_NE(out.find("\"ph\":\"i\""), std::string::npos);
    // The quote and newline in the track name must arrive escaped.
    EXPECT_NE(out.find("VDI \\\"quoted\\\"\\n-0"), std::string::npos);
    EXPECT_EQ(out.find("VDI \"quoted\""), std::string::npos);
}

TEST(TraceRecorder, ExportIsSortedByTimestamp)
{
    TraceRecorder rec(256);
    for (const SimTime ts : {300, 100, 200})
        rec.record({.ts = ts, .type = TraceEventType::kWindowBoundary});
    std::ostringstream os;
    rec.writeChromeJson(os);
    const std::string out = os.str();
    // ts are exported in microseconds: 0.1, 0.2, 0.3.
    const auto a = out.find("\"ts\":0.1");
    const auto b = out.find("\"ts\":0.2");
    const auto c = out.find("\"ts\":0.3");
    ASSERT_NE(a, std::string::npos);
    ASSERT_NE(b, std::string::npos);
    ASSERT_NE(c, std::string::npos);
    EXPECT_LT(a, b);
    EXPECT_LT(b, c);
}

TEST(TraceRecorder, OneWindowInstantPerWindow)
{
    // A traced FleetIO cell: the controller ticks at the very instants
    // the testbed's sampler closes its windows. Only the sampler marks
    // a window, with the index the metrics snapshots and the
    // attribution verdicts use, so each measured window appears once.
    TestbedOptions opts;
    opts.geo = testGeometry();
    opts.window = msec(50);
    opts.obs.trace = true;
    Testbed tb(opts);
    FleetIoPolicy::Variant v;
    v.train_windows = 2;
    FleetIoPolicy p(v);
    p.setup(tb, {WorkloadKind::kVdiWeb, WorkloadKind::kTeraSort},
            {msec(2), msec(30)});
    tb.warmupFill();
    tb.startWorkloads();
    tb.run(msec(200));
    p.prepare(tb);
    p.beforeMeasure(tb);
    tb.beginMeasurement();
    tb.run(msec(500));
    tb.endMeasurement();
    ASSERT_EQ(tb.tracer()->droppedCount(), 0u);
    std::ostringstream os;
    tb.tracer()->writeChromeJson(os);
    const std::string out = os.str();

    const std::string key = "\"name\":\"window\",\"ts\":";
    std::vector<std::string> stamps;
    std::vector<std::uint64_t> indices;
    for (std::size_t pos = out.find(key); pos != std::string::npos;
         pos = out.find(key, pos + 1)) {
        const std::size_t ts = pos + key.size();
        stamps.push_back(out.substr(ts, out.find(',', ts) - ts));
        const std::size_t idx = out.find("\"index\":", ts) + 8;
        indices.push_back(std::stoull(out.substr(idx)));
    }
    // 500 ms of 50 ms windows, indexed from 0.
    ASSERT_EQ(stamps.size(), 10u);
    EXPECT_EQ(std::set<std::string>(stamps.begin(), stamps.end()).size(),
              stamps.size())
        << "a window timestamp appears twice";
    for (std::size_t i = 0; i < indices.size(); ++i)
        EXPECT_EQ(indices[i], i);
}

TEST(TraceEnv, EnableKnobSemantics)
{
    unsetenv("FLEETIO_TRACE");
    EXPECT_FALSE(obs::traceEnabledFromEnv());
    setenv("FLEETIO_TRACE", "0", 1);
    EXPECT_FALSE(obs::traceEnabledFromEnv());
    setenv("FLEETIO_TRACE", "1", 1);
    EXPECT_TRUE(obs::traceEnabledFromEnv());
    unsetenv("FLEETIO_TRACE");

    unsetenv("FLEETIO_TRACE_DIR");
    EXPECT_EQ(obs::traceDirFromEnv(), ".");
    setenv("FLEETIO_TRACE_DIR", "/tmp/somewhere", 1);
    EXPECT_EQ(obs::traceDirFromEnv(), "/tmp/somewhere");
    unsetenv("FLEETIO_TRACE_DIR");
}

}  // namespace
}  // namespace fleetio
