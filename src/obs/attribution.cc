#include "src/obs/attribution.h"

#include <algorithm>
#include <ostream>

#include "src/obs/drift.h"
#include "src/obs/json.h"
#include "src/virt/io_request.h"

namespace fleetio::obs {

static_assert(IoRequest::kAttrStages == kNumStages,
              "IoRequest's inline record mirrors the stage count");

namespace {

constexpr std::size_t kIdx(Stage s) { return std::size_t(s); }

/** A violating window whose read-retry share of the wait reaches this
 *  is blamed on fault retries. */
constexpr double kRetryShareThreshold = 0.25;

}  // namespace

const char *
stageName(Stage s)
{
    switch (s) {
    case Stage::kGcStall: return "gc_stall";
    case Stage::kQueueWait: return "queue_wait";
    case Stage::kChipWait: return "chip_wait";
    case Stage::kChipService: return "chip_service";
    case Stage::kReadRetry: return "read_retry";
    case Stage::kBusWait: return "bus_wait";
    case Stage::kTransfer: return "transfer";
    case Stage::kGcInterference: return "gc_interference";
    case Stage::kHarvestInterference: return "harvest_interference";
    }
    return "?";
}

bool
isWaitStage(Stage s)
{
    switch (s) {
    case Stage::kGcStall:
    case Stage::kQueueWait:
    case Stage::kChipWait:
    case Stage::kBusWait:
    case Stage::kGcInterference:
    case Stage::kHarvestInterference:
        return true;
    case Stage::kChipService:
    case Stage::kReadRetry:
    case Stage::kTransfer:
        return false;
    }
    return false;
}

const char *
causeName(VerdictCause c)
{
    switch (c) {
    case VerdictCause::kSelfLoad: return "self-load";
    case VerdictCause::kGc: return "gc";
    case VerdictCause::kNeighbor: return "neighbor-interference";
    case VerdictCause::kDegradationTier: return "degradation-tier";
    case VerdictCause::kFaultRetry: return "fault-retry";
    }
    return "?";
}

AttributionHub::AttributionHub(const Config &cfg) : cfg_(cfg)
{
    if (cfg_.segment_ring == 0)
        cfg_.segment_ring = 1;
    bus_.resize(cfg_.channels);
    chip_.resize(cfg_.chips);
    for (SegRing &r : bus_)
        r.segs.resize(cfg_.segment_ring);
    for (SegRing &r : chip_)
        r.segs.resize(cfg_.segment_ring);
}

AttributionHub::Tenant &
AttributionHub::tenant(VssdId id)
{
    if (tenants_.size() <= id)
        tenants_.resize(id + 1);
    return tenants_[id];
}

void
AttributionHub::ensureMatrix(VssdId id)
{
    const std::size_t need = std::size_t(id) + 1;
    if (window_blame_.size() >= need)
        return;
    window_blame_.resize(need);
    lifetime_blame_.resize(need);
    window_inflicted_.resize(need, 0);
    lifetime_inflicted_.resize(need, 0);
    for (std::size_t v = 0; v < need; ++v) {
        window_blame_[v].resize(need, 0);
        lifetime_blame_[v].resize(need, 0);
    }
}

void
AttributionHub::setSlo(VssdId id, SimTime slo)
{
    tenant(id).slo = slo;
    ensureMatrix(id);
}

void
AttributionHub::pushContext(VssdId t, SegKind kind)
{
    if (ctx_depth_ < ctx_.size())
        ctx_[ctx_depth_] = Ctx{t, kind};
    ++ctx_depth_;
}

void
AttributionHub::popContext()
{
    if (ctx_depth_ > 0)
        --ctx_depth_;
}

void
AttributionHub::addStage(VssdId id, Stage s, SimTime amount)
{
    Tenant &t = tenant(id);
    t.window[kIdx(s)] += amount;
    t.lifetime[kIdx(s)] += amount;
}

void
AttributionHub::addBlame(VssdId victim, VssdId culprit, SimTime amount)
{
    if (amount == 0)
        return;
    ensureMatrix(std::max(victim, culprit));
    window_blame_[victim][culprit] += amount;
    lifetime_blame_[victim][culprit] += amount;
    if (victim != culprit) {
        window_inflicted_[culprit] += amount;
        lifetime_inflicted_[culprit] += amount;
    }
}

void
AttributionHub::pushSegment(SegRing &ring, SimTime start, SimTime end,
                            const Ctx &ctx)
{
    if (end <= start || ring.segs.empty())
        return;
    ring.segs[ring.next] = Segment{start, end, ctx.tenant, ctx.kind};
    ring.next = (ring.next + 1) % ring.segs.size();
    if (ring.count < ring.segs.size())
        ++ring.count;
}

void
AttributionHub::splitWait(VssdId victim, const SegRing &ring, SimTime from,
                          SimTime to, Stage wait_stage,
                          std::array<SimTime, kNumStages> &stages)
{
    if (to <= from)
        return;
    SimTime covered = 0;
    const std::size_t cap = ring.segs.size();
    // Newest → oldest. Reservations are issued in nondecreasing start
    // order on each resource and never overlap, so once a segment ends
    // at or before `from` every older one does too.
    for (std::size_t i = 0; i < ring.count; ++i) {
        const std::size_t idx = (ring.next + cap - 1 - i) % cap;
        const Segment &s = ring.segs[idx];
        if (s.end <= from)
            break;
        if (s.start >= to)
            continue;
        const SimTime lo = std::max(s.start, from);
        const SimTime hi = std::min(s.end, to);
        if (hi <= lo)
            continue;
        const SimTime ov = hi - lo;
        covered += ov;
        const bool known = s.owner != kNoVssd;
        if (s.kind == SegKind::kGcOp && known) {
            stages[kIdx(wait_stage)] -= ov;
            stages[kIdx(Stage::kGcInterference)] += ov;
            addBlame(victim, s.owner, ov);
            if (s.owner == victim)
                tenant(victim).window_self_gc += ov;
        } else if (s.kind == SegKind::kHarvestOp && known &&
                   s.owner != victim) {
            stages[kIdx(wait_stage)] -= ov;
            stages[kIdx(Stage::kHarvestInterference)] += ov;
            addBlame(victim, s.owner, ov);
        } else if (known && s.owner != victim) {
            // A neighbor's ordinary host op: the stage stays plain
            // contention, but the neighbor still owns the blame.
            addBlame(victim, s.owner, ov);
        } else {
            addBlame(victim, victim, ov);
        }
    }
    // History evicted from the ring (or idle gaps that the accumulator
    // model cannot produce) self-attributes, keeping totals exact.
    addBlame(victim, victim, (to - from) - covered);
}

void
AttributionHub::noteRead(std::size_t ch, std::size_t chip, SimTime now,
                         SimTime chip_free, SimTime read_done,
                         SimTime retry_extra, SimTime bus_free,
                         SimTime complete)
{
    const Ctx ctx = ctx_depth_ > 0 && ctx_depth_ <= ctx_.size()
                        ? ctx_[ctx_depth_ - 1]
                        : Ctx{};
    const SimTime chip_start = std::max(now, chip_free);
    const SimTime bus_start = std::max(read_done, bus_free);
    const bool host = ctx.kind != SegKind::kGcOp && ctx.tenant != kNoVssd;
    if (host) {
        scratch_ = {};
        scratch_[kIdx(Stage::kChipWait)] = chip_start - now;
        // The slowdown-window stretch (if any) folds into service; the
        // retry surcharge is the requested extra array time.
        scratch_[kIdx(Stage::kChipService)] =
            (read_done - chip_start) - retry_extra;
        scratch_[kIdx(Stage::kReadRetry)] = retry_extra;
        scratch_[kIdx(Stage::kBusWait)] = bus_start - read_done;
        scratch_[kIdx(Stage::kTransfer)] = complete - bus_start;
        splitWait(ctx.tenant, chip_[chip], now, chip_start,
                  Stage::kChipWait, scratch_);
        splitWait(ctx.tenant, bus_[ch], read_done, bus_start,
                  Stage::kBusWait, scratch_);
        scratch_complete_ = complete;
        scratch_tenant_ = ctx.tenant;
        scratch_valid_ = true;
    }
    pushSegment(chip_[chip], chip_start, read_done, ctx);
    pushSegment(bus_[ch], bus_start, complete, ctx);
}

void
AttributionHub::noteProgram(std::size_t ch, std::size_t chip, SimTime now,
                            SimTime bus_free, SimTime xfer_done,
                            SimTime chip_free, SimTime complete)
{
    const Ctx ctx = ctx_depth_ > 0 && ctx_depth_ <= ctx_.size()
                        ? ctx_[ctx_depth_ - 1]
                        : Ctx{};
    const SimTime bus_start = std::max(now, bus_free);
    const SimTime chip_start = std::max(xfer_done, chip_free);
    const bool host = ctx.kind != SegKind::kGcOp && ctx.tenant != kNoVssd;
    if (host) {
        scratch_ = {};
        scratch_[kIdx(Stage::kBusWait)] = bus_start - now;
        scratch_[kIdx(Stage::kTransfer)] = xfer_done - bus_start;
        scratch_[kIdx(Stage::kChipWait)] = chip_start - xfer_done;
        scratch_[kIdx(Stage::kChipService)] = complete - chip_start;
        splitWait(ctx.tenant, bus_[ch], now, bus_start, Stage::kBusWait,
                  scratch_);
        splitWait(ctx.tenant, chip_[chip], xfer_done, chip_start,
                  Stage::kChipWait, scratch_);
        scratch_complete_ = complete;
        scratch_tenant_ = ctx.tenant;
        scratch_valid_ = true;
    }
    pushSegment(bus_[ch], bus_start, xfer_done, ctx);
    pushSegment(chip_[chip], chip_start, complete, ctx);
}

void
AttributionHub::noteErase(std::size_t /*ch*/, std::size_t chip, SimTime now,
                          SimTime chip_free, SimTime complete)
{
    const Ctx ctx = ctx_depth_ > 0 && ctx_depth_ <= ctx_.size()
                        ? ctx_[ctx_depth_ - 1]
                        : Ctx{};
    pushSegment(chip_[chip], std::max(now, chip_free), complete, ctx);
}

void
AttributionHub::resetRequest(SimTime *stages, SimTime *complete_hint)
{
    for (std::size_t i = 0; i < kNumStages; ++i)
        stages[i] = 0;
    *complete_hint = 0;
}

void
AttributionHub::finishHostPage(SimTime gc_stall, SimTime queue_wait,
                               SimTime *stages, SimTime *complete_hint)
{
    if (!scratch_valid_)
        return;
    scratch_valid_ = false;
    scratch_[kIdx(Stage::kGcStall)] = gc_stall;
    scratch_[kIdx(Stage::kQueueWait)] = queue_wait;
    for (std::size_t i = 0; i < kNumStages; ++i)
        addStage(scratch_tenant_, Stage(i), scratch_[i]);
    addBlame(scratch_tenant_, scratch_tenant_, gc_stall + queue_wait);
    tenant(scratch_tenant_).window_self_gc += gc_stall;
    if (scratch_complete_ >= *complete_hint) {
        for (std::size_t i = 0; i < kNumStages; ++i)
            stages[i] = scratch_[i];
        *complete_hint = scratch_complete_;
    }
}

void
AttributionHub::zeroFillPage(VssdId t, SimTime latency, SimTime complete,
                             SimTime *stages, SimTime *complete_hint)
{
    addStage(t, Stage::kChipService, latency);
    if (complete >= *complete_hint) {
        for (std::size_t i = 0; i < kNumStages; ++i)
            stages[i] = 0;
        stages[kIdx(Stage::kChipService)] = latency;
        *complete_hint = complete;
    }
}

void
AttributionHub::recordRequest(VssdId t, bool write, std::uint64_t trace_id,
                              SimTime submit, SimTime complete,
                              const SimTime *stages)
{
    Tenant &ten = tenant(t);
    const SimTime latency = complete - submit;
    ++requests_;
    ++ten.requests;
    ++ten.window_requests;
    if (ten.slo != kTimeNever && latency > ten.slo) {
        ++violations_;
        ++ten.violations;
        ++ten.window_violations;
    }
    SimTime sum = 0;
    for (std::size_t i = 0; i < kNumStages; ++i)
        sum += stages[i];
    if (sum != latency)
        ++sum_mismatches_;
    if (cfg_.top_k == 0)
        return;
    std::size_t slot = top_slow_.size();
    if (slot >= cfg_.top_k) {
        // Replace the current minimum only on a strictly slower
        // request, so ties keep the earliest arrival (deterministic).
        slot = 0;
        for (std::size_t i = 1; i < top_slow_.size(); ++i)
            if (top_slow_[i].latency < top_slow_[slot].latency)
                slot = i;
        if (latency <= top_slow_[slot].latency)
            return;
    } else {
        top_slow_.emplace_back();
    }
    SlowRequest &s = top_slow_[slot];
    s.tenant = t;
    s.write = write;
    s.trace_id = trace_id;
    s.submit = submit;
    s.latency = latency;
    for (std::size_t i = 0; i < kNumStages; ++i)
        s.stages[i] = stages[i];
}

void
AttributionHub::noteHarvest(VssdId t, HarvestNote note)
{
    ++tenant(t).harvest[std::size_t(note)];
}

void
AttributionHub::rollWindow(SimTime /*now*/, std::uint64_t window,
                           const std::vector<int> &tiers)
{
    for (VssdId id = 0; id < tenants_.size(); ++id) {
        Tenant &t = tenants_[id];
        // Violations are counted with their requests: requests > 0 here.
        if (t.window_violations > 0) {
            SimTime total = 0;
            for (std::uint64_t v : t.window)
                total += v;
            SimTime neighbor = 0;
            VssdId culprit = kNoVssd;
            SimTime culprit_blame = 0;
            if (id < window_blame_.size()) {
                const auto &row = window_blame_[id];
                for (VssdId c = 0; c < row.size(); ++c) {
                    if (c == id)
                        continue;
                    neighbor += row[c];
                    if (row[c] > culprit_blame) {
                        culprit_blame = row[c];
                        culprit = c;
                    }
                }
            }
            const double denom = total > 0 ? double(total) : 1.0;
            SloVerdict v;
            v.window = window;
            v.tenant = id;
            v.violation_fraction =
                double(t.window_violations) / double(t.window_requests);
            v.neighbor_share = double(neighbor) / denom;
            v.self_gc_share = double(t.window_self_gc) / denom;
            v.retry_share =
                double(t.window[kIdx(Stage::kReadRetry)]) / denom;
            const double self_load = std::max(
                0.0, 1.0 - v.neighbor_share - v.self_gc_share);
            if (id < tiers.size() && tiers[id] > 0) {
                v.cause = VerdictCause::kDegradationTier;
            } else if (v.retry_share >= kRetryShareThreshold) {
                v.cause = VerdictCause::kFaultRetry;
            } else if (v.neighbor_share >= v.self_gc_share &&
                       v.neighbor_share >= self_load) {
                v.cause = VerdictCause::kNeighbor;
                v.culprit = culprit;
            } else if (v.self_gc_share >= self_load) {
                v.cause = VerdictCause::kGc;
            } else {
                v.cause = VerdictCause::kSelfLoad;
            }
            verdicts_.push_back(v);
            ++verdict_counts_[std::size_t(v.cause)];
        }
        t.window = {};
        t.window_requests = 0;
        t.window_violations = 0;
        t.window_self_gc = 0;
    }
    for (auto &row : window_blame_)
        std::fill(row.begin(), row.end(), 0);
    std::fill(window_inflicted_.begin(), window_inflicted_.end(), 0);
}

void
AttributionHub::markBaseline()
{
    for (Tenant &t : tenants_) {
        t.window = {};
        t.lifetime = {};
        t.window_requests = t.window_violations = 0;
        t.requests = t.violations = 0;
        t.window_self_gc = 0;
        t.harvest = {};
    }
    for (auto &row : window_blame_)
        std::fill(row.begin(), row.end(), 0);
    for (auto &row : lifetime_blame_)
        std::fill(row.begin(), row.end(), 0);
    std::fill(window_inflicted_.begin(), window_inflicted_.end(), 0);
    std::fill(lifetime_inflicted_.begin(), lifetime_inflicted_.end(), 0);
    verdicts_.clear();
    verdict_counts_ = {};
    top_slow_.clear();
    requests_ = violations_ = sum_mismatches_ = 0;
}

void
AttributionHub::crashReset()
{
    for (SegRing &r : bus_) {
        r.next = 0;
        r.count = 0;
    }
    for (SegRing &r : chip_) {
        r.next = 0;
        r.count = 0;
    }
    scratch_valid_ = false;
}

std::uint64_t
AttributionHub::stageTotal(VssdId id, Stage s) const
{
    if (id >= tenants_.size())
        return 0;
    return tenants_[id].lifetime[kIdx(s)];
}

std::uint64_t
AttributionHub::blame(VssdId victim, VssdId culprit) const
{
    if (victim >= lifetime_blame_.size() ||
        culprit >= lifetime_blame_[victim].size())
        return 0;
    return lifetime_blame_[victim][culprit];
}

std::uint64_t
AttributionHub::inflicted(VssdId culprit) const
{
    if (culprit >= lifetime_inflicted_.size())
        return 0;
    return lifetime_inflicted_[culprit];
}

std::vector<SlowRequest>
AttributionHub::topSlow() const
{
    std::vector<SlowRequest> out = top_slow_;
    std::sort(out.begin(), out.end(),
              [](const SlowRequest &a, const SlowRequest &b) {
                  if (a.latency != b.latency)
                      return a.latency > b.latency;
                  return a.trace_id < b.trace_id;
              });
    return out;
}

std::uint64_t
AttributionHub::harvestNotes(VssdId id, HarvestNote n) const
{
    if (id >= tenants_.size())
        return 0;
    return tenants_[id].harvest[std::size_t(n)];
}

void
AttributionHub::writeJson(std::ostream &os, const DriftMonitor *drift) const
{
    os << "{\"schema\":\"fleetio-attribution-v1\",\"stages\":[";
    for (std::size_t i = 0; i < kNumStages; ++i)
        os << (i ? "," : "") << '"' << stageName(Stage(i)) << '"';
    os << "],\"tenants\":[";
    bool first = true;
    for (VssdId id = 0; id < tenants_.size(); ++id) {
        const Tenant &t = tenants_[id];
        if (t.requests == 0 && t.slo == kTimeNever)
            continue;
        os << (first ? "" : ",") << "{\"id\":" << id << ",\"slo_ns\":";
        if (t.slo == kTimeNever)
            os << "null";
        else
            os << t.slo;
        os << ",\"requests\":" << t.requests
           << ",\"violations\":" << t.violations << ",\"stages_ns\":[";
        for (std::size_t i = 0; i < kNumStages; ++i)
            os << (i ? "," : "") << t.lifetime[i];
        os << "],\"harvest\":{\"created\":"
           << t.harvest[std::size_t(HarvestNote::kCreated)]
           << ",\"reclaims\":"
           << t.harvest[std::size_t(HarvestNote::kReclaim)]
           << ",\"revoked\":"
           << t.harvest[std::size_t(HarvestNote::kRevoked)] << "}}";
        first = false;
    }
    os << "],\"blame_ns\":[";
    for (std::size_t v = 0; v < lifetime_blame_.size(); ++v) {
        os << (v ? "," : "") << '[';
        for (std::size_t c = 0; c < lifetime_blame_[v].size(); ++c)
            os << (c ? "," : "") << lifetime_blame_[v][c];
        os << ']';
    }
    os << "],\"top_slow\":[";
    const std::vector<SlowRequest> slow = topSlow();
    for (std::size_t i = 0; i < slow.size(); ++i) {
        const SlowRequest &s = slow[i];
        os << (i ? "," : "") << "{\"tenant\":" << s.tenant
           << ",\"write\":" << (s.write ? "true" : "false")
           << ",\"req\":" << s.trace_id << ",\"submit_ns\":" << s.submit
           << ",\"latency_ns\":" << s.latency << ",\"stages_ns\":[";
        for (std::size_t j = 0; j < kNumStages; ++j)
            os << (j ? "," : "") << s.stages[j];
        os << "]}";
    }
    os << "],\"verdicts\":[";
    for (std::size_t i = 0; i < verdicts_.size(); ++i) {
        const SloVerdict &v = verdicts_[i];
        os << (i ? "," : "") << "{\"window\":" << v.window
           << ",\"tenant\":" << v.tenant << ",\"cause\":\""
           << causeName(v.cause) << "\",\"culprit\":";
        if (v.culprit == kNoVssd)
            os << "null";
        else
            os << v.culprit;
        os << ",\"violation_fraction\":"
           << jsonNumber(v.violation_fraction)
           << ",\"neighbor_share\":" << jsonNumber(v.neighbor_share)
           << ",\"self_gc_share\":" << jsonNumber(v.self_gc_share)
           << ",\"retry_share\":" << jsonNumber(v.retry_share) << '}';
    }
    os << "],\"sum_mismatches\":" << sum_mismatches_
       << ",\"requests\":" << requests_
       << ",\"violations\":" << violations_ << ",\"drift\":";
    if (drift != nullptr)
        drift->writeJson(os);
    else
        os << "null";
    os << "}\n";
}

}  // namespace fleetio::obs
