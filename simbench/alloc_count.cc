/**
 * @file
 * Counting replacement of the global allocation functions, linked into
 * the driver binary only. The simulator is single-threaded, so a plain
 * counter suffices; the driver reads it at span boundaries to report
 * heap allocations per request, per window and per call.
 */
#include <cstdlib>
#include <new>

#include "simbench/alloc_count.h"

namespace {

std::uint64_t g_allocs = 0;

void *
countedAlloc(std::size_t n)
{
    ++g_allocs;
    if (void *p = std::malloc(n != 0 ? n : 1))
        return p;
    throw std::bad_alloc();
}

void *
countedAlignedAlloc(std::size_t n, std::align_val_t al)
{
    ++g_allocs;
    const std::size_t a = std::size_t(al);
    // aligned_alloc wants a size that is a multiple of the alignment.
    const std::size_t sz = ((n != 0 ? n : 1) + a - 1) / a * a;
    if (void *p = std::aligned_alloc(a, sz))
        return p;
    throw std::bad_alloc();
}

}  // namespace

namespace simbench {

std::uint64_t
heapAllocations()
{
    return g_allocs;
}

}  // namespace simbench

void *operator new(std::size_t n) { return countedAlloc(n); }
void *operator new[](std::size_t n) { return countedAlloc(n); }
void *operator new(std::size_t n, std::align_val_t al)
{
    return countedAlignedAlloc(n, al);
}
void *operator new[](std::size_t n, std::align_val_t al)
{
    return countedAlignedAlloc(n, al);
}
void *operator new(std::size_t n, const std::nothrow_t &) noexcept
{
    ++g_allocs;
    return std::malloc(n != 0 ? n : 1);
}
void *operator new[](std::size_t n, const std::nothrow_t &) noexcept
{
    ++g_allocs;
    return std::malloc(n != 0 ? n : 1);
}
void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }
void operator delete(void *p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void *p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}
void operator delete[](void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}
