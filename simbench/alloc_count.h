/**
 * @file
 * Heap-allocation counter of the driver binary (see alloc_count.cc).
 */
#pragma once

#include <cstdint>

namespace simbench {

/** Global operator new calls since process start. */
std::uint64_t heapAllocations();

}  // namespace simbench
