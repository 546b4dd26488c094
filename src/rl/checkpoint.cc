#include "src/rl/checkpoint.h"

#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <vector>

#include "src/sim/fnv.h"

namespace fleetio::rl {

namespace {

/** 8-byte magic; the trailing digit is NOT the format version (that is
 *  a separate header field) — it just keeps the magic printable. */
constexpr char kMagic[8] = {'F', 'I', 'O', 'C', 'K', 'P', 'T', '1'};

void
putU64(std::string &buf, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        buf.push_back(char((v >> (8 * i)) & 0xff));
}

void
putU32(std::string &buf, std::uint32_t v)
{
    for (int i = 0; i < 4; ++i)
        buf.push_back(char((v >> (8 * i)) & 0xff));
}

void
putF64(std::string &buf, double v)
{
    std::uint64_t bits;
    static_assert(sizeof bits == sizeof v);
    std::memcpy(&bits, &v, sizeof bits);
    putU64(buf, bits);
}

void
putVector(std::string &buf, const Vector &v)
{
    for (double d : v)
        putF64(buf, d);
}

/** Bounds-checked little-endian reader over an in-memory blob. */
class Reader
{
  public:
    Reader(const unsigned char *data, std::size_t n)
        : data_(data), n_(n)
    {
    }

    bool getU64(std::uint64_t &out)
    {
        if (pos_ + 8 > n_)
            return false;
        out = 0;
        for (int i = 0; i < 8; ++i)
            out |= std::uint64_t(data_[pos_ + i]) << (8 * i);
        pos_ += 8;
        return true;
    }

    bool getU32(std::uint32_t &out)
    {
        if (pos_ + 4 > n_)
            return false;
        out = 0;
        for (int i = 0; i < 4; ++i)
            out |= std::uint32_t(data_[pos_ + i]) << (8 * i);
        pos_ += 4;
        return true;
    }

    bool getF64(double &out)
    {
        std::uint64_t bits;
        if (!getU64(bits))
            return false;
        std::memcpy(&out, &bits, sizeof out);
        return true;
    }

    bool getVector(Vector &out, std::uint64_t count)
    {
        // Reject counts the remaining bytes cannot possibly hold
        // BEFORE allocating (a corrupt header must not trigger a
        // multi-gigabyte resize).
        if (count > (n_ - pos_) / 8)
            return false;
        out.resize(std::size_t(count));
        for (double &d : out) {
            if (!getF64(d))
                return false;
        }
        return true;
    }

    std::size_t pos() const { return pos_; }

  private:
    const unsigned char *data_;
    std::size_t n_;
    std::size_t pos_ = 0;
};

bool
allFinite(const Vector &v)
{
    for (double d : v) {
        if (!std::isfinite(d))
            return false;
    }
    return true;
}

}  // namespace

bool
AgentCheckpoint::wellFormed() const
{
    if (adam_m.size() != params.size() ||
        adam_v.size() != params.size()) {
        return false;
    }
    return std::isfinite(alpha) && allFinite(params) &&
           allFinite(adam_m) && allFinite(adam_v);
}

namespace {

/** Armed crash point (see setCheckpointFailpoint); "" = off. */
std::string g_failpoint;

/** One-shot: true (and disarm) when @p name is the armed failpoint. */
bool
failpointHit(const char *name)
{
    if (g_failpoint != name)
        return false;
    g_failpoint.clear();
    return true;
}

}  // namespace

void
setCheckpointFailpoint(const char *name)
{
    g_failpoint = name != nullptr ? name : "";
}

bool
writeCheckpoint(const std::string &path, const AgentCheckpoint &ckpt)
{
    // Body = header fields + payload (everything the checksum covers).
    std::string body;
    body.reserve(64 + 24 * ckpt.params.size());
    putU32(body, kCheckpointVersion);
    putU64(body, std::uint64_t(ckpt.params.size()));
    putU64(body, ckpt.adam_t);
    putF64(body, ckpt.alpha);
    putU64(body, ckpt.decisions);
    for (std::uint64_t w : ckpt.policy_rng)
        putU64(body, w);
    for (std::uint64_t w : ckpt.shuffle_rng)
        putU64(body, w);
    putVector(body, ckpt.params);
    putVector(body, ckpt.adam_m);
    putVector(body, ckpt.adam_v);

    const std::uint64_t sum = fnv1a(body.data(), body.size());

    const std::string tmp = path + ".tmp";
    if (failpointHit("tmp_open"))
        return false;
    {
        std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
        if (!out)
            return false;
        out.write(kMagic, sizeof kMagic);
        if (failpointHit("tmp_partial")) {
            // Power died mid-write: a torn .tmp stays on disk, the
            // target file is never touched.
            out.write(body.data(), std::streamsize(body.size() / 2));
            return false;
        }
        out.write(body.data(), std::streamsize(body.size()));
        std::string tail;
        putU64(tail, sum);
        out.write(tail.data(), std::streamsize(tail.size()));
        if (!out)
            return false;
    }
    if (failpointHit("pre_rename")) {
        // Power died between the tmp write and the rename: a complete
        // .tmp is orphaned, the target file is unchanged.
        return false;
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        std::remove(tmp.c_str());
        return false;
    }
    return true;
}

CheckpointError
readCheckpoint(const std::string &path, AgentCheckpoint &out)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return CheckpointError::kIoError;
    std::vector<unsigned char> blob(
        (std::istreambuf_iterator<char>(in)),
        std::istreambuf_iterator<char>());
    if (in.bad())
        return CheckpointError::kIoError;

    if (blob.size() < sizeof kMagic + 8)
        return CheckpointError::kTruncated;
    if (std::memcmp(blob.data(), kMagic, sizeof kMagic) != 0)
        return CheckpointError::kBadMagic;

    // Checksum covers every byte between the magic and the trailer.
    const std::size_t body_len = blob.size() - sizeof kMagic - 8;
    const unsigned char *body = blob.data() + sizeof kMagic;
    const std::uint64_t want = fnv1a(body, body_len);
    std::uint64_t got = 0;
    for (int i = 0; i < 8; ++i) {
        got |= std::uint64_t(blob[sizeof kMagic + body_len + i])
               << (8 * i);
    }
    if (want != got)
        return CheckpointError::kChecksum;

    Reader r(body, body_len);
    std::uint32_t version = 0;
    if (!r.getU32(version))
        return CheckpointError::kTruncated;
    if (version != kCheckpointVersion)
        return CheckpointError::kBadVersion;

    AgentCheckpoint c;
    std::uint64_t n = 0;
    if (!r.getU64(n) || !r.getU64(c.adam_t) || !r.getF64(c.alpha) ||
        !r.getU64(c.decisions)) {
        return CheckpointError::kTruncated;
    }
    for (std::uint64_t &w : c.policy_rng) {
        if (!r.getU64(w))
            return CheckpointError::kTruncated;
    }
    for (std::uint64_t &w : c.shuffle_rng) {
        if (!r.getU64(w))
            return CheckpointError::kTruncated;
    }
    if (!r.getVector(c.params, n) || !r.getVector(c.adam_m, n) ||
        !r.getVector(c.adam_v, n)) {
        return CheckpointError::kTruncated;
    }
    if (r.pos() != body_len)
        return CheckpointError::kTruncated;  // trailing garbage
    if (!c.wellFormed()) {
        // Sizes match by construction here, so the only wellFormed()
        // failure left is a non-finite value that slipped past the
        // checksum (i.e. was checkpointed while already corrupt).
        return CheckpointError::kNonFinite;
    }
    out = std::move(c);
    return CheckpointError::kOk;
}

CheckpointStore::CheckpointStore(std::string base_path)
    : base_(std::move(base_path))
{
}

bool
CheckpointStore::save(const AgentCheckpoint &ckpt)
{
    // Demote the current snapshot to last-good before overwriting.
    // rename() failure (e.g. no current file yet) is fine.
    const bool demoted =
        std::rename(base_.c_str(), prevPath().c_str()) == 0;
    if (failpointHit("post_demote")) {
        // Power died between the demote and the tmp write: the store
        // is left with only .prev — exactly what load()'s fallback
        // exists for.
        return false;
    }
    if (!writeCheckpoint(base_, ckpt)) {
        // An I/O failure must not leave the store without a current
        // snapshot when it had one: promote the demoted file back.
        if (demoted)
            std::rename(prevPath().c_str(), base_.c_str());
        return false;
    }
    ++saves_;
    return true;
}

CheckpointError
CheckpointStore::load(AgentCheckpoint &out)
{
    last_fallback_ = false;
    const CheckpointError cur = readCheckpoint(base_, out);
    if (cur == CheckpointError::kOk)
        return cur;
    if (readCheckpoint(prevPath(), out) == CheckpointError::kOk) {
        last_fallback_ = true;
        return CheckpointError::kOk;
    }
    return cur;
}

}  // namespace fleetio::rl
