/**
 * @file
 * 64-bit FNV-1a (Fowler/Noll/Vo), the one byte checksum of the
 * simulator: RL checkpoint files, the durability model's checkpoint
 * slots and journal records, and the tests' output digests all use it.
 */
#pragma once

#include <cstddef>
#include <cstdint>

namespace fleetio {

/** FNV-1a-64 offset basis, 14695981039346656037. */
inline constexpr std::uint64_t kFnv1aOffset = 0xcbf29ce484222325ull;

/** FNV-1a-64 of @p n bytes at @p data, continuing from hash @p h. */
inline std::uint64_t
fnv1a(const void *data, std::size_t n, std::uint64_t h = kFnv1aOffset)
{
    const auto *p = static_cast<const unsigned char *>(data);
    for (std::size_t i = 0; i < n; ++i) {
        h ^= p[i];
        h *= 0x100000001b3ull;
    }
    return h;
}

}  // namespace fleetio
