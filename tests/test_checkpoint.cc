/** @file Tests for crash-safe agent checkpoints (DESIGN.md §8). */
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "src/core/agent.h"
#include "src/rl/checkpoint.h"
#include "src/sim/fnv.h"
#include "src/sim/rng.h"

namespace fleetio::rl {
namespace {

namespace fs = std::filesystem;

std::string
tempPath(const std::string &name)
{
    return (fs::temp_directory_path() / name).string();
}

AgentCheckpoint
sampleCheckpoint(std::size_t n = 64)
{
    AgentCheckpoint c;
    c.params.resize(n);
    c.adam_m.resize(n);
    c.adam_v.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
        c.params[i] = 0.01 * double(i) - 0.3;
        c.adam_m[i] = 1e-4 * double(i);
        c.adam_v[i] = 1e-8 * double(i * i);
    }
    c.adam_t = 17;
    c.alpha = 0.05;
    c.decisions = 12345;
    c.policy_rng = {1, 2, 3, 4};
    c.shuffle_rng = {5, 6, 7, 8};
    return c;
}

std::vector<unsigned char>
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return {std::istreambuf_iterator<char>(in),
            std::istreambuf_iterator<char>()};
}

void
writeFile(const std::string &path, const std::vector<unsigned char> &b)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char *>(b.data()),
              std::streamsize(b.size()));
}

void
resealChecksum(std::vector<unsigned char> &blob)
{
    const std::size_t body_len = blob.size() - 8 - 8;
    const std::uint64_t sum = fnv1a(blob.data() + 8, body_len);
    for (int i = 0; i < 8; ++i)
        blob[8 + body_len + i] = (unsigned char)((sum >> (8 * i)) & 0xff);
}

TEST(Checkpoint, WriteReadRoundTrip)
{
    const std::string path = tempPath("fio_ckpt_roundtrip.ckpt");
    const AgentCheckpoint in = sampleCheckpoint();
    ASSERT_TRUE(writeCheckpoint(path, in));

    AgentCheckpoint out;
    ASSERT_EQ(readCheckpoint(path, out), CheckpointError::kOk);
    EXPECT_EQ(out.params, in.params);
    EXPECT_EQ(out.adam_m, in.adam_m);
    EXPECT_EQ(out.adam_v, in.adam_v);
    EXPECT_EQ(out.adam_t, in.adam_t);
    EXPECT_DOUBLE_EQ(out.alpha, in.alpha);
    EXPECT_EQ(out.decisions, in.decisions);
    EXPECT_EQ(out.policy_rng, in.policy_rng);
    EXPECT_EQ(out.shuffle_rng, in.shuffle_rng);
    fs::remove(path);
}

TEST(Checkpoint, MissingFileIsIoError)
{
    AgentCheckpoint out;
    EXPECT_EQ(readCheckpoint(tempPath("fio_ckpt_nope.ckpt"), out),
              CheckpointError::kIoError);
}

TEST(Checkpoint, RejectsBadMagic)
{
    const std::string path = tempPath("fio_ckpt_magic.ckpt");
    ASSERT_TRUE(writeCheckpoint(path, sampleCheckpoint()));
    auto blob = readFile(path);
    blob[0] = 'X';
    writeFile(path, blob);
    AgentCheckpoint out;
    EXPECT_EQ(readCheckpoint(path, out), CheckpointError::kBadMagic);
    fs::remove(path);
}

TEST(Checkpoint, RejectsTruncation)
{
    const std::string path = tempPath("fio_ckpt_trunc.ckpt");
    ASSERT_TRUE(writeCheckpoint(path, sampleCheckpoint()));
    const auto blob = readFile(path);
    for (const std::size_t cut :
         {std::size_t(0), std::size_t(7), std::size_t(20),
          blob.size() / 2, blob.size() - 1}) {
        writeFile(path, {blob.begin(), blob.begin() + long(cut)});
        AgentCheckpoint out;
        out.adam_t = 999;
        EXPECT_NE(readCheckpoint(path, out), CheckpointError::kOk)
            << "cut at " << cut;
        EXPECT_EQ(out.adam_t, 999u) << "partial load at " << cut;
    }
    fs::remove(path);
}

TEST(Checkpoint, RejectsVersionMismatch)
{
    const std::string path = tempPath("fio_ckpt_version.ckpt");
    ASSERT_TRUE(writeCheckpoint(path, sampleCheckpoint()));
    auto blob = readFile(path);
    blob[8] = (unsigned char)(kCheckpointVersion + 1);  // version field
    resealChecksum(blob);  // so the version check is what fires
    writeFile(path, blob);
    AgentCheckpoint out;
    EXPECT_EQ(readCheckpoint(path, out), CheckpointError::kBadVersion);
    fs::remove(path);
}

TEST(Checkpoint, RejectsHugeCountWithoutAllocating)
{
    const std::string path = tempPath("fio_ckpt_huge.ckpt");
    ASSERT_TRUE(writeCheckpoint(path, sampleCheckpoint(4)));
    auto blob = readFile(path);
    // Param-count field sits right after the u32 version.
    for (int i = 0; i < 8; ++i)
        blob[12 + i] = 0xff;
    resealChecksum(blob);
    writeFile(path, blob);
    AgentCheckpoint out;
    EXPECT_EQ(readCheckpoint(path, out), CheckpointError::kTruncated);
    fs::remove(path);
}

TEST(Checkpoint, RejectsNonFiniteValues)
{
    const std::string path = tempPath("fio_ckpt_nan.ckpt");
    AgentCheckpoint bad = sampleCheckpoint();
    bad.params[3] = std::numeric_limits<double>::quiet_NaN();
    EXPECT_FALSE(bad.wellFormed());
    ASSERT_TRUE(writeCheckpoint(path, bad));
    AgentCheckpoint out;
    EXPECT_EQ(readCheckpoint(path, out), CheckpointError::kNonFinite);
    fs::remove(path);
}

TEST(Checkpoint, WellFormedRequiresMatchingMomentShapes)
{
    AgentCheckpoint c = sampleCheckpoint();
    EXPECT_TRUE(c.wellFormed());
    c.adam_m.resize(c.params.size() - 1);
    EXPECT_FALSE(c.wellFormed());
}

TEST(Checkpoint, StoreRotatesAndFallsBackToPrev)
{
    const std::string base = tempPath("fio_ckpt_store.ckpt");
    fs::remove(base);
    fs::remove(base + ".prev");
    CheckpointStore store(base);

    AgentCheckpoint first = sampleCheckpoint();
    first.decisions = 1;
    ASSERT_TRUE(store.save(first));
    AgentCheckpoint second = sampleCheckpoint();
    second.decisions = 2;
    ASSERT_TRUE(store.save(second));
    EXPECT_EQ(store.saves(), 2u);

    AgentCheckpoint out;
    ASSERT_EQ(store.load(out), CheckpointError::kOk);
    EXPECT_EQ(out.decisions, 2u);
    EXPECT_FALSE(store.lastFallback());

    // Corrupt the current file: load() must fall back to .prev.
    auto blob = readFile(base);
    blob[blob.size() / 2] ^= 0x5a;
    writeFile(base, blob);
    ASSERT_EQ(store.load(out), CheckpointError::kOk);
    EXPECT_EQ(out.decisions, 1u);
    EXPECT_TRUE(store.lastFallback());

    fs::remove(base);
    fs::remove(base + ".prev");
}

TEST(Checkpoint, ByteFlipFuzzNeverPartiallyLoads)
{
    const std::string path = tempPath("fio_ckpt_fuzz.ckpt");
    ASSERT_TRUE(writeCheckpoint(path, sampleCheckpoint(128)));
    const auto good = readFile(path);

    Rng rng(0xF1EE710u);
    const AgentCheckpoint sentinel = sampleCheckpoint(3);
    for (int iter = 0; iter < 300; ++iter) {
        auto blob = good;
        const int flips = 1 + int(rng.uniformInt(std::uint64_t(3)));
        for (int f = 0; f < flips; ++f) {
            const std::size_t at = rng.uniformInt(std::uint64_t(blob.size()));
            blob[at] ^= (unsigned char)(1u + rng.uniformInt(std::uint64_t(255)));
        }
        writeFile(path, blob);
        AgentCheckpoint out = sentinel;
        const CheckpointError err = readCheckpoint(path, out);
        if (err == CheckpointError::kOk) {
            // Only possible if the flips reconstructed a valid file;
            // the result must then be fully formed, never partial.
            EXPECT_TRUE(out.wellFormed());
        } else {
            EXPECT_EQ(out.params, sentinel.params) << "iter " << iter;
            EXPECT_EQ(out.adam_t, sentinel.adam_t) << "iter " << iter;
        }
    }
    fs::remove(path);
}

TEST(Checkpoint, AgentSnapshotRestoreResumesTrainingBitExact)
{
    FleetIoConfig cfg;
    cfg.decision_window = msec(100);
    const rl::Vector probe(cfg.stateDim(), 0.2);

    // Phase 1: train agent A a bit, snapshot, round-trip through disk.
    FleetIoAgent a(0, cfg, 42);
    for (std::size_t i = 0; i < cfg.ppo.minibatch; ++i) {
        a.decide(rl::Vector(cfg.stateDim(), 0.01 * double(i)));
        a.completeTransition(0.1 * double(i % 5));
    }
    a.train(probe);

    const std::string path = tempPath("fio_ckpt_agent.ckpt");
    ASSERT_TRUE(writeCheckpoint(path, a.snapshot()));
    AgentCheckpoint loaded;
    ASSERT_EQ(readCheckpoint(path, loaded), CheckpointError::kOk);
    FleetIoAgent b(1, cfg, 777);  // different seed, different init
    ASSERT_TRUE(b.restore(loaded));
    a.resetEpisode();  // align: restore() dropped b's rollout too

    // Phase 2: identical deterministic experience for both; resumed
    // training must stay bit-exact with the uninterrupted run.
    a.setDeterministic(true);
    b.setDeterministic(true);
    for (std::size_t i = 0; i < cfg.ppo.minibatch; ++i) {
        const rl::Vector s(cfg.stateDim(), 0.3 - 0.02 * double(i));
        a.decide(s);
        b.decide(s);
        a.completeTransition(0.5);
        b.completeTransition(0.5);
    }
    a.train(probe);
    b.train(probe);

    const auto &pa = a.policy().params().rawValues();
    const auto &pb = b.policy().params().rawValues();
    ASSERT_EQ(pa.size(), pb.size());
    for (std::size_t i = 0; i < pa.size(); ++i)
        ASSERT_EQ(pa[i], pb[i]) << "param " << i;
    fs::remove(path);
}

TEST(Checkpoint, AgentRejectsShapeMismatchedRestore)
{
    FleetIoConfig cfg;
    cfg.decision_window = msec(100);
    FleetIoAgent agent(0, cfg, 1);
    const double before = agent.policy().params().rawValues()[0];

    AgentCheckpoint wrong = sampleCheckpoint(8);
    EXPECT_FALSE(agent.restore(wrong));
    EXPECT_EQ(agent.policy().params().rawValues()[0], before);
}

}  // namespace
}  // namespace fleetio::rl
