#include "src/virt/io_scheduler.h"

#include <algorithm>
#include <cassert>
#include <limits>

namespace fleetio {

namespace {

/** Install (rate > 0) or remove @p id's bucket in a dense table. */
void
setBucket(std::vector<std::optional<TokenBucket>> &table, VssdId id,
          double rate_bytes_per_sec, double burst_bytes)
{
    if (rate_bytes_per_sec <= 0) {
        if (id < table.size())
            table[id].reset();
        return;
    }
    if (table.size() <= id)
        table.resize(id + 1);
    table[id].emplace(rate_bytes_per_sec, burst_bytes);
}

/** @p id's bucket in a dense table, or nullptr when it has none. */
TokenBucket *
findBucket(std::vector<std::optional<TokenBucket>> &table, VssdId id)
{
    return id < table.size() && table[id] ? &*table[id] : nullptr;
}

}  // namespace

IoScheduler::IoScheduler(FlashDevice &dev, VssdManager &vssds)
    : dev_(dev), vssds_(vssds)
{
    queues_.resize(dev.geometry().num_channels);
    token_pump_scheduled_.assign(dev.geometry().num_channels, false);
    // The out-of-capacity stash is appended to from the submit path;
    // pre-size it so backpressure bursts never reallocate mid-I/O.
    blocked_.reserve(64);
    retrying_.reserve(64);
    dev_.setOnSlotFreed([this](ChannelId ch) { pump(ch); });
    dev_.setOnHostDone([this](ChannelId ch, std::uint32_t id) {
        onPageDone(id);
        pump(ch);
    });
}

void
IoScheduler::OpRing::grow()
{
    std::vector<PageOp> bigger(std::max<std::size_t>(8, 2 * buf_.size()));
    for (std::size_t i = 0; i < size_; ++i)
        bigger[i] = buf_[(head_ + i) & mask()];
    buf_.swap(bigger);
    head_ = 0;
}

void
IoScheduler::setRateLimit(VssdId id, double rate_bytes_per_sec,
                          double burst_bytes)
{
    setBucket(buckets_, id, rate_bytes_per_sec, burst_bytes);
}

void
IoScheduler::setTierLimit(VssdId id, double rate_bytes_per_sec,
                          double burst_bytes)
{
    setBucket(tier_buckets_, id, rate_bytes_per_sec, burst_bytes);
}

bool
IoScheduler::tenantQuiesced(VssdId id) const
{
    if (inflightRequests(id) != 0)
        return false;
    for (const BlockedWrite &bw : blocked_) {
        if (pool_[bw.req].vssd == id)
            return false;
    }
    return true;
}

void
IoScheduler::submit(IoRequest req)
{
    EventQueue &eq = dev_.eventQueue();
    req.submit_time = eq.now();
    Vssd *v = vssds_.get(req.vssd);
    assert(v != nullptr);
    assert(vssds_.alive(req.vssd) &&
           "I/O submitted for a removed vSSD");
    assert(!v->retiring() && "I/O submitted for a draining vSSD");
    req.prio = v->effectivePriority();
    if (inflight_reqs_.size() <= req.vssd)
        inflight_reqs_.resize(req.vssd + 1, 0);
    ++inflight_reqs_[req.vssd];
    req.pages_done = 0;
    req.trace_id = next_req_id_++;
    ReqId id;
    if (free_ids_.empty()) {
        id = ReqId(pool_.size());
        pool_.push_back(std::move(req));
    } else {
        id = free_ids_.back();
        free_ids_.pop_back();
        pool_[id] = std::move(req);
    }
    IoRequest &r = pool_[id];
    FLEETIO_OBS(dev_.obs(),
                ioSubmit(eq.now(), r.vssd, r.trace_id, r.type, r.npages,
                         r.attr_stages, &r.attr_complete));

    for (std::uint32_t i = 0; i < r.npages; ++i)
        enqueuePage(id, r.lpa + i);

    // Writing may have raised capacity pressure: nudge this tenant's GC.
    if (r.type == IoType::kWrite && v->ftl().needsGc())
        v->gc().maybeStart();
}

void
IoScheduler::enqueuePage(ReqId id, Lpa lpa)
{
    const IoRequest &req = pool_[id];
    Vssd *v = vssds_.get(req.vssd);
    Ftl &ftl = v->ftl();

    PageOp op;
    op.req = id;
    op.prio = req.prio;
    op.type = req.type;
    if (req.type == IoType::kRead) {
        op.ppa = ftl.lookup(lpa);
        if (op.ppa == kNoPpa) {
            // Reading an unwritten page: served from the mapping table
            // (no flash access), modelled as a chip-read-latency delay.
            completeZeroFill(id);
            return;
        }
    } else if (!ftl.allocateWrite(lpa, op.ppa)) {
        // Write: placement resolves now (own channels + harvested
        // gSBs). Out of capacity: wait for GC to free blocks, then
        // retry.
        blocked_.push_back(BlockedWrite{id, lpa});
        v->gc().maybeStart();
        if (!retry_scheduled_) {
            retry_scheduled_ = true;
            dev_.eventQueue().scheduleAfter(msec(1), [this]() {
                retry_scheduled_ = false;
                retryBlocked();
            });
        }
        return;
    }
    op.foreign = isForeign(ftl, op.ppa);
    enqueueOp(dev_.geometry().channelOf(op.ppa), req.vssd, op);
}

bool
IoScheduler::isForeign(const Ftl &ftl, Ppa ppa) const
{
    return !ftl.ownsChannel(dev_.geometry().channelOf(ppa));
}

void
IoScheduler::enqueueOp(ChannelId ch, VssdId vssd, PageOp op)
{
    ChannelQueues &cq = queues_[ch];
    if (cq.size() <= vssd)
        cq.resize(vssd + 1);
    op.seq = next_seq_++;
    op.enqueue_time = dev_.eventQueue().now();
    cq[vssd].push_back(std::move(op));
    ++queued_ops_;
    vssds_.get(vssd)->queue().onEnqueue();
    pump(ch);
}

void
IoScheduler::completeZeroFill(ReqId id)
{
    EventQueue &eq = dev_.eventQueue();
    const SimTime lat = dev_.geometry().read_latency;
    // The whole page span is modelled chip service: no queueing, no
    // bus, no interference — the mapping table answered.
    IoRequest &req = pool_[id];
    FLEETIO_OBS(dev_.obs(),
                zeroFillPage(req.vssd, lat, eq.now() + lat,
                             req.attr_stages, &req.attr_complete));
    eq.scheduleAfter(lat, [this, id]() { onPageDone(id); });
}

void
IoScheduler::onPageDone(ReqId id)
{
    // A reference into the pool stays valid while on_complete submits
    // more requests: pool slots never move.
    IoRequest &req = pool_[id];
    ++req.pages_done;
    if (req.pages_done < req.npages)
        return;
    assert(req.vssd < inflight_reqs_.size() &&
           inflight_reqs_[req.vssd] > 0);
    --inflight_reqs_[req.vssd];
    EventQueue &eq = dev_.eventQueue();
    Vssd *v = vssds_.get(req.vssd);
    const SimTime now = eq.now();
    const SimTime lat = now - req.submit_time;
    v->latency().record(lat);
    const std::uint64_t bytes = req.bytes(dev_.geometry().page_size);
    v->bandwidth().record(req.type, bytes);
    FLEETIO_OBS(dev_.obs(),
                ioComplete(now, req.vssd, req.trace_id, req.type,
                           req.submit_time, bytes, req.attr_stages));
    if (completion_tap_)
        completion_tap_(req);
    if (req.on_complete)
        req.on_complete(req, now);
    // Freed only now, so a submit from on_complete cannot reuse the
    // slot it is running from.
    req.on_complete = nullptr;
    free_ids_.push_back(id);
}

void
IoScheduler::crashReset()
{
    for (ChannelQueues &cq : queues_)
        for (OpRing &ring : cq)
            ring.clear();
    free_ids_.clear();
    for (ReqId id = ReqId(pool_.size()); id-- > 0;) {
        pool_[id].on_complete = nullptr;
        free_ids_.push_back(id);
    }
    blocked_.clear();
    std::fill(inflight_reqs_.begin(), inflight_reqs_.end(), 0);
    std::fill(token_pump_scheduled_.begin(),
              token_pump_scheduled_.end(), false);
    retry_scheduled_ = false;
    queued_ops_ = 0;
}

void
IoScheduler::pump(ChannelId ch)
{
    EventQueue &eq = dev_.eventQueue();
    ChannelQueues &cq = queues_[ch];

    while (dev_.canDispatch(ch)) {
        // Collect candidate vSSDs: non-empty queue, token-eligible.
        std::size_t best = SIZE_MAX;
        int best_prio = -1;
        double best_pass = std::numeric_limits<double>::max();
        std::uint64_t best_seq = std::numeric_limits<std::uint64_t>::max();
        SimTime earliest_token = kTimeNever;
        const double page_bytes = double(dev_.geometry().page_size);

        for (std::size_t vid = 0; vid < cq.size(); ++vid) {
            if (cq[vid].empty())
                continue;
            if (TokenBucket *tb = findBucket(buckets_, VssdId(vid))) {
                if (tb->tokens(eq.now()) + 1e-9 < page_bytes) {
                    earliest_token = std::min(
                        earliest_token,
                        tb->availableAt(page_bytes, eq.now()));
                    continue;
                }
            }
            if (TokenBucket *tb = findBucket(tier_buckets_, VssdId(vid))) {
                if (tb->tokens(eq.now()) + 1e-9 < page_bytes) {
                    earliest_token = std::min(
                        earliest_token,
                        tb->availableAt(page_bytes, eq.now()));
                    continue;
                }
            }
            const PageOp &head = cq[vid].front();
            // Foreign (harvested-channel) ops respect the op's own
            // priority cap; on its own channels a vSSD is never
            // throttled below the medium cap.
            const std::size_t cap_prio =
                head.foreign ? std::size_t(head.prio)
                             : std::max(std::size_t(head.prio),
                                        std::size_t(Priority::kMedium));
            if (dev_.channel(ch).outstanding() >= kPrioCaps[cap_prio])
                continue;  // keep the queue shallow for this priority
            const int prio = use_priority_ ? int(head.prio) : 0;
            const double pass =
                use_stride_ ? stride_.pass(VssdId(vid)) : 0.0;

            bool better = false;
            if (best == SIZE_MAX) {
                better = true;
            } else if (prio != best_prio) {
                better = prio > best_prio;
            } else if (use_stride_ && pass != best_pass) {
                better = pass < best_pass;
            } else {
                better = head.seq < best_seq;
            }
            if (better) {
                best = vid;
                best_prio = prio;
                best_pass = pass;
                best_seq = head.seq;
            }
        }

        if (best == SIZE_MAX) {
            // Nothing eligible. If tokens are the only blocker, pump
            // again when they refill.
            if (earliest_token != kTimeNever)
                scheduleTokenPump(ch, earliest_token);
            return;
        }

        const PageOp op = cq[best].front();
        cq[best].pop_front();
        --queued_ops_;
        ++dispatched_ops_;

        const VssdId vid = VssdId(best);
        Vssd *v = vssds_.get(vid);
        const SimTime wait = eq.now() - op.enqueue_time;
        v->queue().onDispatch(wait);
        if (use_stride_)
            stride_.charge(vid);
        if (TokenBucket *tb = findBucket(buckets_, vid))
            tb->tryConsume(page_bytes, eq.now());
        if (TokenBucket *tb = findBucket(tier_buckets_, vid))
            tb->tryConsume(page_bytes, eq.now());

        {
            // Arm the attribution hub for this page: the device notes
            // the op's exact wait/service split against this tenant,
            // with foreign (harvested-channel) ops leaving harvest
            // occupancy segments for their victims' ledgers.
            const obs::ObsHub::Scope arm(dev_.obs(), vid,
                                         op.foreign
                                             ? obs::SegKind::kHarvestOp
                                             : obs::SegKind::kHostOp);
            // Completion comes back through the host-done hook with
            // the request id as the tag.
            if (op.type == IoType::kRead)
                dev_.issueRead(op.ppa, op.req);
            else
                dev_.issueProgram(op.ppa, op.req);
        }
        IoRequest &req = pool_[op.req];
        FLEETIO_OBS(dev_.obs(),
                    ioDispatch(eq.now(), vid, req.trace_id, ch,
                               op.enqueue_time - req.submit_time, wait,
                               req.attr_stages, &req.attr_complete));
    }
}

void
IoScheduler::retryBlocked()
{
    if (blocked_.empty())
        return;
    retrying_.swap(blocked_);
    for (const BlockedWrite &bw : retrying_)
        enqueuePage(bw.req, bw.lpa);
    retrying_.clear();
    // enqueuePage re-adds still-stuck writes to blocked_ and re-arms the
    // retry timer through the normal path.
}

void
IoScheduler::scheduleTokenPump(ChannelId ch, SimTime when)
{
    if (token_pump_scheduled_[ch])
        return;
    token_pump_scheduled_[ch] = true;
    dev_.eventQueue().scheduleAt(when, [this, ch]() {
        token_pump_scheduled_[ch] = false;
        pump(ch);
    });
}

}  // namespace fleetio
