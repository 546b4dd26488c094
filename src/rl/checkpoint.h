/**
 * @file
 * Crash-safe agent checkpoints: versioned, checksummed binary
 * serialization of the full learning state of one FleetIO agent —
 * policy + value parameters, Adam moments, the reward alpha, the step
 * counters, and both RNG streams. Readers validate everything (magic, version, sizes,
 * checksum, finiteness) before touching the caller's state, so a
 * corrupt or truncated file can never partially load; writers go
 * through a temp-file + rename so a crash mid-write never destroys the
 * previous snapshot.
 */
#pragma once

#include <array>
#include <cstdint>
#include <string>

#include "src/rl/matrix.h"

namespace fleetio::rl {

/** On-disk format version written by this build. */
constexpr std::uint32_t kCheckpointVersion = 1;

/**
 * The full restorable learning state of one agent. Everything PPO
 * resumption depends on — including both RNG streams (action sampling
 * and minibatch shuffling) — so restoring a checkpoint into an
 * identically-shaped agent and continuing training is bit-exact with
 * the uninterrupted run.
 */
struct AgentCheckpoint
{
    Vector params;        ///< policy + value nets (flat ParameterStore)
    Vector adam_m;        ///< Adam first moments (same length as params)
    Vector adam_v;        ///< Adam second moments
    std::uint64_t adam_t = 0;     ///< optimizer steps taken
    double alpha = 0.0;           ///< reward trade-off coefficient
    std::uint64_t decisions = 0;  ///< lifetime decision counter
    /// Agent's action-sampling RNG; all-zero means "not captured" and
    /// restore() leaves the live generator untouched.
    std::array<std::uint64_t, 4> policy_rng{};
    /// PPO trainer's minibatch-shuffle RNG (same convention).
    std::array<std::uint64_t, 4> shuffle_rng{};

    /** Shape sanity: moments match params and every value is finite. */
    bool wellFormed() const;
};

/** Why a checkpoint failed to load. */
enum class CheckpointError {
    kOk = 0,
    kIoError,       ///< cannot open / short read
    kBadMagic,      ///< not a FleetIO checkpoint
    kBadVersion,    ///< written by an unknown format version
    kTruncated,     ///< payload shorter than the header promises
    kChecksum,      ///< payload bytes fail the checksum
    kShapeMismatch, ///< moment lengths disagree with the param count
    kNonFinite,     ///< NaN/inf in params, moments, or alpha
};

/**
 * Serialize @p ckpt to @p path atomically (write to "<path>.tmp", then
 * rename over @p path). @return false on any I/O failure; the previous
 * file at @p path survives a failed or interrupted write.
 */
bool writeCheckpoint(const std::string &path,
                     const AgentCheckpoint &ckpt);

/**
 * Test-only crash-point injection into the write path (one-shot): arm
 * with "tmp_open", "tmp_partial", or "pre_rename" (writeCheckpoint) or
 * "post_demote" (CheckpointStore::save), and the next write fails at
 * exactly that point — leaving behind whatever a power loss there
 * would (a torn .tmp, an un-renamed .tmp, a demoted-only store). The
 * failpoint disarms once consumed; nullptr/"" disarms explicitly.
 */
void setCheckpointFailpoint(const char *name);

/**
 * Deserialize @p path into @p out. @p out is written only when the
 * whole file validates (all-or-nothing); on any error it is left
 * untouched.
 */
CheckpointError readCheckpoint(const std::string &path,
                               AgentCheckpoint &out);

/**
 * A rotating two-deep checkpoint slot: save() atomically replaces the
 * current snapshot while demoting it to "<base>.prev", and load()
 * falls back to the previous snapshot when the current one is corrupt
 * — the last-good checkpoint survives both crashes mid-write and
 * on-disk corruption of the newest file. One thread uses a store at
 * a time; it has no locks.
 */
class CheckpointStore
{
  public:
    explicit CheckpointStore(std::string base_path);

    const std::string &path() const { return base_; }
    std::string prevPath() const { return base_ + ".prev"; }

    /** Rotate current -> .prev, then write @p ckpt as current. */
    bool save(const AgentCheckpoint &ckpt);

    /**
     * Load the newest valid snapshot. Tries current, then .prev.
     * @return kOk on success; otherwise the current file's error
     * (lastFallback() tells whether .prev was used).
     */
    CheckpointError load(AgentCheckpoint &out);

    /** True when the last successful load() came from .prev. */
    bool lastFallback() const { return last_fallback_; }

    /** Snapshots successfully written through this store. */
    std::uint64_t saves() const { return saves_; }

  private:
    std::string base_;
    bool last_fallback_ = false;
    std::uint64_t saves_ = 0;
};

}  // namespace fleetio::rl
