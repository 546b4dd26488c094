#include "src/obs/trace.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <cstring>

#include "src/obs/json.h"

namespace fleetio::obs {

namespace {

/** Process-unique recorder ids; never reused, so a stale thread-local
 *  cache entry can never alias a new recorder at the same address. */
std::atomic<std::uint64_t> g_next_recorder_uid{1};

/** Per-thread single-entry ring cache keyed by recorder uid. One entry
 *  suffices: a harness worker drives one testbed (one recorder) at a
 *  time, so switches are rare and just re-take the registration lock. */
struct RingCache
{
    std::uint64_t uid = 0;
    TraceRing *ring = nullptr;
};
thread_local RingCache tl_ring_cache;

}  // namespace

TraceRing::TraceRing(std::size_t capacity)
{
    buf_.resize(capacity > 0 ? capacity : 1);
}

void
TraceRing::push(const TraceEvent &ev)
{
    buf_[pushed_ % buf_.size()] = ev;
    ++pushed_;
}

std::size_t
TraceRing::size() const
{
    return std::size_t(std::min<std::uint64_t>(pushed_, buf_.size()));
}

std::uint64_t
TraceRing::dropped() const
{
    return pushed_ > buf_.size() ? pushed_ - buf_.size() : 0;
}

std::vector<TraceEvent>
TraceRing::snapshot() const
{
    std::vector<TraceEvent> out;
    const std::size_t n = size();
    out.reserve(n);
    const std::uint64_t start = pushed_ - n;
    for (std::size_t i = 0; i < n; ++i)
        out.push_back(buf_[(start + i) % buf_.size()]);
    return out;
}

TraceRecorder::TraceRecorder(std::size_t ring_capacity)
    : uid_(g_next_recorder_uid.fetch_add(1, std::memory_order_relaxed)),
      ring_capacity_(ring_capacity)
{
}

TraceRing &
TraceRecorder::threadRing()
{
    RingCache &cache = tl_ring_cache;
    if (cache.uid == uid_)
        return *cache.ring;
    std::lock_guard<std::mutex> g(mu_);
    rings_.push_back(std::make_unique<TraceRing>(ring_capacity_));
    cache.uid = uid_;
    cache.ring = rings_.back().get();
    return *cache.ring;
}

void
TraceRecorder::record(const TraceEvent &ev)
{
    threadRing().push(ev);
}

void
TraceRecorder::setTrackName(std::uint16_t track, const std::string &name)
{
    std::lock_guard<std::mutex> g(mu_);
    track_names_[track] = name;
}

std::size_t
TraceRecorder::eventCount() const
{
    std::lock_guard<std::mutex> g(mu_);
    std::size_t n = 0;
    for (const auto &r : rings_)
        n += r->size();
    return n;
}

std::uint64_t
TraceRecorder::droppedCount() const
{
    std::lock_guard<std::mutex> g(mu_);
    std::uint64_t n = 0;
    for (const auto &r : rings_)
        n += r->dropped();
    return n;
}

std::size_t
TraceRecorder::ringCount() const
{
    std::lock_guard<std::mutex> g(mu_);
    return rings_.size();
}

namespace {

const char *
instantName(TraceEventType t)
{
    switch (t) {
    case TraceEventType::kGcBatch: return "gc_batch";
    case TraceEventType::kGcRead: return "gc_read";
    case TraceEventType::kGcProgram: return "gc_program";
    case TraceEventType::kGcErase: return "gc_erase";
    case TraceEventType::kGsbCreate: return "gsb_create";
    case TraceEventType::kGsbHarvest: return "gsb_harvest";
    case TraceEventType::kGsbReclaim: return "gsb_reclaim";
    case TraceEventType::kGsbRevoke: return "gsb_revoke";
    case TraceEventType::kGsbForceRelease: return "gsb_force_release";
    case TraceEventType::kGsbDestroy: return "gsb_destroy";
    case TraceEventType::kAgentDecide: return "decide";
    case TraceEventType::kAgentReward: return "reward";
    case TraceEventType::kAgentTrip: return "trip";
    case TraceEventType::kWindowBoundary: return "window";
    default: return "event";
    }
}

const char *
counterName(CounterKind k)
{
    switch (k) {
    case CounterKind::kBandwidthMBps: return "bw_mbps";
    case CounterKind::kQueueDepth: return "queue_depth";
    case CounterKind::kReward: return "reward";
    case CounterKind::kUtilization: return "utilization";
    }
    return "counter";
}

}  // namespace

void
TraceRecorder::writeChromeJson(std::ostream &os) const
{
    struct Tagged
    {
        TraceEvent ev;
        std::size_t ring;
        std::size_t pos;
    };
    std::vector<Tagged> all;
    std::map<std::uint16_t, std::string> names;
    {
        std::lock_guard<std::mutex> g(mu_);
        for (std::size_t r = 0; r < rings_.size(); ++r) {
            const auto snap = rings_[r]->snapshot();
            for (std::size_t p = 0; p < snap.size(); ++p)
                all.push_back(Tagged{snap[p], r, p});
        }
        names = track_names_;
    }
    std::stable_sort(all.begin(), all.end(),
                     [](const Tagged &x, const Tagged &y) {
                         if (x.ev.ts != y.ev.ts)
                             return x.ev.ts < y.ev.ts;
                         if (x.ring != y.ring)
                             return x.ring < y.ring;
                         return x.pos < y.pos;
                     });

    auto trackLabel = [&names](std::uint16_t track) -> std::string {
        const auto it = names.find(track);
        if (it != names.end())
            return it->second;
        if (track == kTrackController)
            return "controller";
        return "track" + std::to_string(track);
    };

    os << "{\"traceEvents\":[\n";
    // Metadata: one process, one named thread row per known track.
    os << " {\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":\"process_name\","
          "\"args\":{\"name\":\"fleetio-sim\"}}";
    for (const auto &[track, name] : names) {
        os << ",\n {\"ph\":\"M\",\"pid\":1,\"tid\":" << track
           << ",\"name\":\"thread_name\",\"args\":{\"name\":\""
           << jsonEscape(name) << "\"}}";
    }
    if (names.find(kTrackController) == names.end()) {
        os << ",\n {\"ph\":\"M\",\"pid\":1,\"tid\":0,"
              "\"name\":\"thread_name\","
              "\"args\":{\"name\":\"controller\"}}";
    }

    for (const Tagged &t : all) {
        const TraceEvent &ev = t.ev;
        const std::string ts = jsonNumber(toMicros(ev.ts));
        os << ",\n {";
        switch (ev.type) {
        case TraceEventType::kIoSubmit:
            os << "\"ph\":\"b\",\"cat\":\"io\",\"id\":" << ev.id
               << ",\"name\":\""
               << (IoType(ev.a) == IoType::kWrite ? "write" : "read")
               << "\",\"ts\":" << ts << ",\"pid\":1,\"tid\":"
               << ev.track << ",\"args\":{\"npages\":" << ev.b << "}";
            break;
        case TraceEventType::kIoDispatch:
            os << "\"ph\":\"n\",\"cat\":\"io\",\"id\":" << ev.id
               << ",\"name\":\"dispatch\",\"ts\":" << ts
               << ",\"pid\":1,\"tid\":" << ev.track
               << ",\"args\":{\"channel\":" << ev.a << ",\"wait_us\":"
               << jsonNumber(ev.value) << "}";
            break;
        case TraceEventType::kIoComplete:
            os << "\"ph\":\"e\",\"cat\":\"io\",\"id\":" << ev.id
               << ",\"name\":\""
               << (IoType(ev.a) == IoType::kWrite ? "write" : "read")
               << "\",\"ts\":" << ts << ",\"pid\":1,\"tid\":"
               << ev.track << ",\"args\":{\"latency_us\":"
               << jsonNumber(ev.value) << "}";
            break;
        case TraceEventType::kCounter:
            os << "\"ph\":\"C\",\"name\":\""
               << jsonEscape(trackLabel(ev.track)) << "/"
               << counterName(ev.counter) << "\",\"ts\":" << ts
               << ",\"pid\":1,\"tid\":" << ev.track
               << ",\"args\":{\"value\":" << jsonNumber(ev.value)
               << "}";
            break;
        default:
            // Instants: gc / gSB / RL-loop / window-boundary markers.
            os << "\"ph\":\"i\",\"s\":"
               << (ev.type == TraceEventType::kWindowBoundary ? "\"g\""
                                                              : "\"t\"")
               << ",\"name\":\"" << instantName(ev.type)
               << "\",\"ts\":" << ts << ",\"pid\":1,\"tid\":"
               << ev.track << ",\"args\":{";
            switch (ev.type) {
            case TraceEventType::kGcBatch:
                os << "\"tenant\":" << ev.a << ",\"npages\":" << ev.b;
                break;
            case TraceEventType::kGsbCreate:
            case TraceEventType::kGsbHarvest:
            case TraceEventType::kGsbReclaim:
            case TraceEventType::kGsbRevoke:
            case TraceEventType::kGsbForceRelease:
            case TraceEventType::kGsbDestroy:
                os << "\"gsb\":" << ev.id << ",\"channels\":" << ev.a;
                break;
            case TraceEventType::kAgentDecide:
                os << "\"action\":" << ev.a;
                break;
            case TraceEventType::kAgentReward:
                os << "\"reward\":" << jsonNumber(ev.value);
                break;
            case TraceEventType::kAgentTrip:
                os << "\"reason\":" << ev.a;
                break;
            case TraceEventType::kWindowBoundary:
                os << "\"index\":" << ev.a;
                break;
            default:
                break;
            }
            os << "}";
        }
        os << "}";
    }
    // Footer: ring-drop accounting (Chrome ignores unknown top-level
    // keys; Perfetto surfaces otherData in the trace info dialog). A
    // nonzero droppedEvents means the oldest events were overwritten
    // and the exported trace starts mid-run.
    os << "\n],\"otherData\":{\"droppedEvents\":\"" << droppedCount()
       << "\",\"retainedEvents\":\"" << eventCount()
       << "\",\"rings\":\"" << ringCount()
       << "\"},\"displayTimeUnit\":\"ms\"}\n";
}

bool
traceEnabledFromEnv()
{
    const char *env = std::getenv("FLEETIO_TRACE");
    return env != nullptr && *env != '\0' && std::strcmp(env, "0") != 0;
}

std::string
traceDirFromEnv()
{
    const char *env = std::getenv("FLEETIO_TRACE_DIR");
    if (env == nullptr || *env == '\0')
        return ".";
    return env;
}

}  // namespace fleetio::obs
