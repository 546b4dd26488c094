/**
 * @file
 * Two-lane doubles for the RL kernels (internal to src/rl). A V2 is a
 * GCC vector of two doubles: one SSE2 register on x86-64, a pair of
 * scalars elsewhere. Its arithmetic is element-wise, so each lane
 * rounds exactly as the scalar operation would, and code that runs
 * independent sums or elements side by side in lanes gives the same
 * bits as a scalar loop (DESIGN.md §7). The helpers take T = V2 or
 * T = double, so one template covers a vector body and its scalar tail.
 */
#pragma once

#include <cmath>
#include <cstddef>
#include <cstring>

namespace fleetio::rl {

using V2 = double __attribute__((vector_size(16)));

/** Lanes of T: 2 for V2, 1 for double. */
template <typename T>
constexpr std::size_t kLanes = sizeof(T) / sizeof(double);

template <typename T>
T
load(const double *p)
{
    T v;
    std::memcpy(&v, p, sizeof v);
    return v;
}

template <typename T>
void
store(double *p, T v)
{
    std::memcpy(p, &v, sizeof v);
}

/** @p v in every lane (a copy, not `T{} + v`, which turns -0.0 into
 *  +0.0). */
template <typename T>
T
splat(double v)
{
    if constexpr (kLanes<T> == 1)
        return v;
    else
        return T{v, v};
}

/** std::sqrt of each lane. */
template <typename T>
T
sqrtLanes(T v)
{
    if constexpr (kLanes<T> == 1)
        return std::sqrt(v);
    else
        return T{std::sqrt(v[0]), std::sqrt(v[1])};
}

}  // namespace fleetio::rl
