/**
 * @file
 * Logical address-pattern generation for synthetic workloads: mixed
 * sequential streams and Zipf-scattered random access over a working
 * set, producing the locality (LPA entropy) signatures the clustering
 * module separates workload types by.
 */
#pragma once

#include <cstdint>
#include <vector>

#include "src/sim/rng.h"
#include "src/sim/types.h"

namespace fleetio {

/**
 * Generates logical page addresses within a working set of a vSSD's
 * logical space. Random accesses draw a Zipf rank and scatter it with a
 * multiplicative hash (so the hot set is spread over the space, as in
 * real key-value stores); sequential accesses advance per-stream
 * cursors that wrap within per-stream regions.
 */
class AddressSpace
{
  public:
    /**
     * @param total_pages  vSSD logical pages
     * @param working_set  fraction of the space the workload touches
     * @param num_streams  sequential stream count (>= 1)
     * @param zipf_skew    skew of random accesses (0 = uniform)
     */
    AddressSpace(std::uint64_t total_pages, double working_set,
                 std::uint32_t num_streams, double zipf_skew);

    /** Pages in the working set. */
    std::uint64_t workingSetPages() const { return ws_pages_; }

    /** Draw a random (Zipf-scattered) page address. */
    Lpa randomPage(Rng &rng);

    /**
     * Next address of stream @p s for a request of @p npages; the
     * cursor advances and wraps within the stream's region.
     */
    Lpa streamNext(std::uint32_t s, std::uint32_t npages);

    /** Pick a stream uniformly. */
    std::uint32_t pickStream(Rng &rng);

  private:
    std::uint64_t ws_pages_;
    double zipf_skew_;
    std::vector<std::uint64_t> cursors_;   ///< per-stream offsets
    std::vector<std::uint64_t> regions_;   ///< per-stream region starts
    std::uint64_t region_len_;
};

}  // namespace fleetio
