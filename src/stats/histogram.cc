#include "src/stats/histogram.h"

#include <algorithm>
#include <bit>
#include <cassert>

namespace fleetio {

Histogram::Histogram(int sub_bits)
    : sub_bits_(sub_bits), sub_count_(1ull << sub_bits)
{
    assert(sub_bits >= 1 && sub_bits <= 16);
    // 64 possible exponents, sub_count_ sub-buckets each.
    buckets_.assign(std::size_t(64 - sub_bits) * sub_count_, 0);
}

std::size_t
Histogram::bucketIndex(std::uint64_t value) const
{
    if (value == 0)
        value = 1;
    const int msb = 63 - std::countl_zero(value);
    if (msb < sub_bits_) {
        // Values below 2^sub_bits map 1:1 into the first group.
        return std::size_t(value);
    }
    const int shift = msb - sub_bits_;
    const std::uint64_t sub = (value >> shift) - sub_count_;
    const std::size_t group = std::size_t(msb - sub_bits_);
    std::size_t idx = (group + 1) * sub_count_ + std::size_t(sub);
    return std::min(idx, buckets_.size() - 1);
}

std::uint64_t
Histogram::bucketValue(std::size_t index) const
{
    if (index < 2 * sub_count_)
        return std::uint64_t(index);
    const std::size_t group = index / sub_count_ - 1;
    const std::uint64_t sub = index % sub_count_ + sub_count_;
    return sub << group;
}

void
Histogram::record(std::uint64_t value)
{
    ++buckets_[bucketIndex(value)];
    if (value > max_)
        max_ = value;
    ++count_;
    sum_ += value;
}

std::uint64_t
Histogram::quantile(double q) const
{
    if (count_ == 0)
        return 0;
    q = std::clamp(q, 0.0, 1.0);
    if (q >= 1.0)
        return max_;
    // Rank of the target observation (1-based, ceil as in HDR).
    const std::uint64_t target =
        std::max<std::uint64_t>(1, std::uint64_t(q * double(count_) + 0.5));
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < buckets_.size(); ++i) {
        seen += buckets_[i];
        if (seen >= target)
            return std::min(bucketValue(i), max_);
    }
    return max_;
}

void
Histogram::reset()
{
    std::fill(buckets_.begin(), buckets_.end(), 0);
    count_ = sum_ = max_ = 0;
}

}  // namespace fleetio
