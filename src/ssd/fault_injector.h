/**
 * @file
 * Deterministic, seeded NAND fault injection: read retries, program and
 * erase failures with wear-scaled error growth, and chip slow-down
 * windows. With every probability at zero the injector is inert — it
 * draws no random numbers and changes no behaviour, so fault-free runs
 * stay bit-identical to a build without it.
 */
#pragma once

#include <cstdint>

#include "src/sim/rng.h"
#include "src/sim/types.h"
#include "src/ssd/flash_chip.h"

namespace fleetio {

/**
 * Fault-model knobs. Probabilities are per operation (per page read,
 * per page program, per block erase); wear growth raises each of them
 * linearly in the target block's erase_count, modelling the bit-error
 * rate growth of aging NAND.
 */
struct FaultConfig
{
    std::uint64_t seed = 0xFA17FA17ull;

    /** Base probability that a page read needs at least one retry. */
    double read_retry_prob = 0.0;

    /** Base probability that a page program fails (block must be
     *  closed; the FTL re-allocates and remaps the LPA). */
    double program_fail_prob = 0.0;

    /** Base probability that a block erase fails (block is retired). */
    double erase_fail_prob = 0.0;

    /**
     * Wear scaling: effective probability = base + growth * erase_count,
     * clamped to [0, 0.95]. At the default 0 wear has no effect.
     */
    double wear_error_growth = 0.0;

    /** Retry bound per read; each retry re-runs the array read with
     *  escalating latency (retry k costs (k+1) x read_latency). */
    std::uint32_t max_read_retries = 8;

    /** Probability (per chip operation) that the chip enters a
     *  slow-down window, e.g. internal calibration or read-disturb
     *  refresh stealing the die. A window lasts 5 ms and slows the
     *  operations started in it 4x (FlashDevice, FlashChip). */
    double chip_slowdown_prob = 0.0;

    /** True when any fault path can fire. */
    bool enabled() const
    {
        return read_retry_prob > 0.0 || program_fail_prob > 0.0 ||
               erase_fail_prob > 0.0 || wear_error_growth > 0.0 ||
               chip_slowdown_prob > 0.0;
    }
};

/** Lifetime fault telemetry, surfaced through Testbed/reporting. */
struct FaultCounters
{
    std::uint64_t read_retries = 0;      ///< extra read attempts issued
    std::uint64_t reads_retried = 0;     ///< reads needing >= 1 retry
    std::uint64_t program_failures = 0;  ///< page programs that failed
    std::uint64_t erase_failures = 0;    ///< block erases that failed
    std::uint64_t slowdown_windows = 0;  ///< chip slow-down windows begun

    std::uint64_t total() const
    {
        return read_retries + program_failures + erase_failures +
               slowdown_windows;
    }
};

/**
 * The fault oracle consulted by the device timing layer (reads,
 * slow-downs), the FTL (program failures) and GC (erase failures).
 *
 * Decisions are drawn from a private xoshiro256** stream seeded from
 * FaultConfig::seed, so a fixed seed yields the same fault sequence
 * for the same sequence of queries regardless of wall clock. Disabled
 * paths (probability zero) never draw, keeping per-path sequences
 * independent of which other paths are enabled.
 */
class FaultInjector
{
  public:
    explicit FaultInjector(const FaultConfig &cfg = FaultConfig{});

    bool enabled() const { return cfg_.enabled(); }

    /**
     * Number of retries a page read of @p blk needs (0 = clean read).
     * Bounded by max_read_retries; a maxed-out read models the drive
     * falling back to its strongest ECC step, still returning data.
     */
    std::uint32_t readRetries(const FlashBlock &blk);

    /** Does the next page program into @p blk fail? */
    bool programFails(const FlashBlock &blk);

    /** Does the next erase of @p blk fail (block must be retired)? */
    bool eraseFails(const FlashBlock &blk);

    /** Does the chip enter a slow-down window at this operation? */
    bool chipSlowdownBegins();

    const FaultCounters &counters() const { return counters_; }

  private:
    /** Wear-scaled effective probability for @p blk. */
    double effective(double base, const FlashBlock &blk) const;

    FaultConfig cfg_;
    Rng rng_;
    FaultCounters counters_;
};

}  // namespace fleetio
