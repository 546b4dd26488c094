/**
 * @file
 * Log-bucketed latency histogram (HDR-histogram style) for cheap
 * per-window percentile queries without retaining every sample.
 */
#pragma once

#include <cstdint>
#include <vector>

namespace fleetio {

/**
 * Fixed-memory histogram over positive 64-bit values.
 *
 * Values are bucketed by (exponent, sub-bucket) with @p sub_bits bits of
 * sub-bucket resolution, bounding relative quantile error to
 * 2^-sub_bits (~1.6% at the default 6 bits).
 */
class Histogram
{
  public:
    explicit Histogram(int sub_bits = 6);

    /** Record one observation of @p value (0 is clamped to 1). */
    void record(std::uint64_t value);

    /** Number of recorded observations. */
    std::uint64_t count() const { return count_; }

    /** Arithmetic mean, or 0 when empty. */
    double mean() const { return count_ ? double(sum_) / double(count_) : 0.0; }

    /** Largest recorded value (bucket upper bound). */
    std::uint64_t max() const { return max_; }

    /**
     * Value at quantile @p q in [0, 1]. Returns a representative value of
     * the bucket containing the q-th observation; 0 when empty.
     */
    std::uint64_t quantile(double q) const;

    /** Forget all observations. */
    void reset();

  private:
    std::size_t bucketIndex(std::uint64_t value) const;
    std::uint64_t bucketValue(std::size_t index) const;

    int sub_bits_;
    std::uint64_t sub_count_;   // 1 << sub_bits_
    std::vector<std::uint64_t> buckets_;
    std::uint64_t count_ = 0;
    std::uint64_t sum_ = 0;
    std::uint64_t max_ = 0;
};

}  // namespace fleetio
