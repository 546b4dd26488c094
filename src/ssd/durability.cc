#include "src/ssd/durability.h"

#include <algorithm>
#include <map>

namespace fleetio {

namespace {

constexpr std::uint64_t kFnvOffset = 1469598103934665603ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

std::uint64_t
fnv1a(const std::uint8_t *data, std::size_t n,
      std::uint64_t h = kFnvOffset)
{
    for (std::size_t i = 0; i < n; ++i) {
        h ^= data[i];
        h *= kFnvPrime;
    }
    return h;
}

void
putU64(std::vector<std::uint8_t> &out, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        out.push_back(std::uint8_t(v >> (8 * i)));
}

std::uint64_t
getU64(const std::vector<std::uint8_t> &in, std::size_t pos)
{
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
        v |= std::uint64_t(in[pos + i]) << (8 * i);
    return v;
}

}  // namespace

DurabilityModel::DurabilityModel(const SsdGeometry &geo)
    : geo_(geo),
      oob_(geo.totalPages()),
      summaries_(geo.totalBlocks())
{
}

void
DurabilityModel::recordWrite(VssdId vssd, Lpa lpa, Ppa ppa)
{
    if (frozen_)
        return;
    OobEntry &e = oob_[ppa];
    e.vssd = vssd;
    e.lpa = lpa;
    e.seq = ++seq_;
}

void
DurabilityModel::recordBlockOpen(ChannelId ch, ChipId chip, BlockId blk,
                                 VssdId owner)
{
    if (frozen_)
        return;
    BlockSummary &s = summaries_[blockIndex(ch, chip, blk)];
    s.owner = owner;
    s.donated = false;
}

void
DurabilityModel::setDonated(ChannelId ch, ChipId chip, BlockId blk,
                            bool on)
{
    if (frozen_)
        return;
    summaries_[blockIndex(ch, chip, blk)].donated = on;
}

void
DurabilityModel::clearBlock(ChannelId ch, ChipId chip, BlockId blk)
{
    if (frozen_)
        return;
    summaries_[blockIndex(ch, chip, blk)] = BlockSummary{};
    const Ppa base = geo_.blockBasePpa(ch, chip, blk);
    for (std::uint32_t p = 0; p < geo_.pages_per_block; ++p)
        oob_[base + p] = OobEntry{};
}

void
DurabilityModel::markRetired(ChannelId ch, ChipId chip, BlockId blk)
{
    // Same durable effect as an erase: the block's OOB entries must
    // never feed a scan again (the medium is unreadable). Kept as a
    // distinct entry point so call sites document intent.
    clearBlock(ch, chip, blk);
}

void
DurabilityModel::journalTrim(VssdId vssd, Lpa lpa)
{
    if (frozen_)
        return;
    JournalRecord r;
    r.type = RecordType::kTrim;
    r.vssd = vssd;
    r.lpa = lpa;
    r.seq = ++seq_;
    r.checksum = recordChecksum(r);
    journal_.push_back(r);
}

void
DurabilityModel::journalTenantWiped(VssdId vssd)
{
    if (frozen_)
        return;
    JournalRecord r;
    r.type = RecordType::kTenantWipe;
    r.vssd = vssd;
    r.lpa = kNoLpa;
    r.seq = ++seq_;
    r.checksum = recordChecksum(r);
    journal_.push_back(r);
}

std::uint64_t
DurabilityModel::recordChecksum(const JournalRecord &r)
{
    std::vector<std::uint8_t> buf;
    buf.reserve(32);
    buf.push_back(std::uint8_t(r.type));
    putU64(buf, r.vssd);
    putU64(buf, r.lpa);
    putU64(buf, r.seq);
    return fnv1a(buf.data(), buf.size());
}

void
DurabilityModel::writeCheckpoint(
    const std::vector<CheckpointEntry> &entries, SimTime now)
{
    if (frozen_)
        return;
    // Demote current -> previous (rl::CheckpointStore::save discipline:
    // rename base -> .prev, then write the new base).
    slots_[1] = std::move(slots_[0]);
    Slot &cur = slots_[0];
    cur = Slot{};
    cur.bytes.reserve(entries.size() * 20 + 8);
    putU64(cur.bytes, entries.size());
    for (const CheckpointEntry &e : entries) {
        putU64(cur.bytes, e.vssd);
        putU64(cur.bytes, e.lpa);
        putU64(cur.bytes, e.ppa);
    }
    cur.checksum = fnv1a(cur.bytes.data(), cur.bytes.size());
    cur.watermark = seq_;
    cur.when = now;
    cur.valid = true;
    ++checkpoints_;

    // Truncate journal records fully covered by the PREVIOUS slot's
    // watermark — a fallback load of .prev still has every tombstone
    // it needs to replay.
    const std::uint64_t keep_after =
        slots_[1].valid ? slots_[1].watermark : 0;
    journal_.erase(
        std::remove_if(journal_.begin(), journal_.end(),
                       [keep_after](const JournalRecord &r) {
                           return r.seq <= keep_after;
                       }),
        journal_.end());
}

void
DurabilityModel::corruptCurrentCheckpoint()
{
    if (slots_[0].valid && !slots_[0].bytes.empty())
        slots_[0].bytes[slots_[0].bytes.size() / 2] ^= 0x5a;
}

void
DurabilityModel::truncateJournalTail()
{
    if (!journal_.empty())
        journal_.back().checksum ^= 0x5a5a5a5aull;
}

std::vector<RecoveredMapping>
DurabilityModel::recover(RecoveryStats &stats) const
{
    stats = RecoveryStats{};

    // 1. Load the newest checkpoint slot that verifies.
    const Slot *slot = nullptr;
    if (slots_[0].valid &&
        fnv1a(slots_[0].bytes.data(), slots_[0].bytes.size()) ==
            slots_[0].checksum) {
        slot = &slots_[0];
    } else if (slots_[1].valid &&
               fnv1a(slots_[1].bytes.data(), slots_[1].bytes.size()) ==
                   slots_[1].checksum) {
        slot = &slots_[1];
        stats.checkpoint_fallback = true;
    } else if (slots_[0].valid || slots_[1].valid) {
        stats.checkpoint_lost = true;
    }
    const std::uint64_t watermark = slot != nullptr ? slot->watermark : 0;
    stats.last_checkpoint_time = slot != nullptr ? slot->when : 0;

    // Candidate mappings keyed (vssd, lpa); checkpoint entries carry
    // the watermark as their effective version.
    std::map<std::pair<VssdId, Lpa>, std::pair<Ppa, std::uint64_t>> best;
    if (slot != nullptr) {
        std::size_t pos = 0;
        const std::uint64_t n = getU64(slot->bytes, pos);
        pos += 8;
        for (std::uint64_t i = 0; i < n; ++i) {
            const VssdId v = VssdId(getU64(slot->bytes, pos));
            const Lpa lpa = getU64(slot->bytes, pos + 8);
            const Ppa ppa = getU64(slot->bytes, pos + 16);
            pos += 24;
            best[{v, lpa}] = {ppa, watermark};
        }
    }

    // 2. Replay the journal past the watermark. A bad checksum means a
    // torn tail: everything from there on is discarded, never applied.
    std::map<std::pair<VssdId, Lpa>, std::uint64_t> tombstone;
    std::map<VssdId, std::uint64_t> wiped;
    for (std::size_t i = 0; i < journal_.size(); ++i) {
        const JournalRecord &r = journal_[i];
        if (recordChecksum(r) != r.checksum) {
            stats.torn_records += journal_.size() - i;
            break;
        }
        if (r.seq <= watermark)
            continue;
        ++stats.replayed_records;
        if (r.type == RecordType::kTenantWipe) {
            wiped[r.vssd] = r.seq;
            for (auto it = best.begin(); it != best.end();) {
                if (it->first.first == r.vssd &&
                    it->second.second < r.seq)
                    it = best.erase(it);
                else
                    ++it;
            }
        } else {
            tombstone[{r.vssd, r.lpa}] = r.seq;
            auto it = best.find({r.vssd, r.lpa});
            if (it != best.end() && it->second.second < r.seq)
                best.erase(it);
        }
    }

    // 3. Scan surviving OOB entries; merge newest-seq-wins, with
    // tombstones suppressing anything they postdate.
    for (Ppa ppa = 0; ppa < Ppa(oob_.size()); ++ppa) {
        const OobEntry &e = oob_[ppa];
        if (e.seq == 0)
            continue;
        ++stats.scanned_pages;
        if (e.seq <= watermark)
            continue;  // already reflected in the checkpoint map
        auto w = wiped.find(e.vssd);
        if (w != wiped.end() && e.seq < w->second)
            continue;
        auto t = tombstone.find({e.vssd, e.lpa});
        if (t != tombstone.end() && e.seq < t->second)
            continue;
        auto [it, inserted] =
            best.try_emplace({e.vssd, e.lpa}, ppa, e.seq);
        if (!inserted && it->second.second < e.seq)
            it->second = {ppa, e.seq};
    }

    std::vector<RecoveredMapping> out;
    out.reserve(best.size());
    for (const auto &[key, val] : best)
        out.push_back({key.first, key.second, val.first, val.second});
    return out;
}

}  // namespace fleetio
