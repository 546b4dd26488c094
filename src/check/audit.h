/**
 * @file
 * The invariant auditor: one entry point per family of global
 * invariants over the device and its FTLs. Tests call it after
 * randomized operation sequences and benches after every run, so each
 * invariant is walked by one piece of code.
 *
 * Each entry point returns the first violation it finds as text naming
 * where it broke, or "" when the state is consistent. The audits only
 * read; they are safe on any quiescent state (between events).
 */
#pragma once

#include <string>

#include "src/ssd/flash_device.h"
#include "src/ssd/ftl.h"

namespace fleetio::check {

/**
 * L2P <-> reverse map <-> valid bit for one tenant: every LPA @p ftl
 * maps resolves to a valid page of a non-retired block whose reverse
 * map names this tenant and LPA, and the mapped count equals
 * ftl.livePages().
 */
std::string auditMappings(const FlashDevice &dev, const Ftl &ftl);

/**
 * Block and free-block counters, device-wide: each chip's freeBlocks()
 * equals its number of kFree blocks, every block's valid_count equals
 * the popcount of its valid bitmap, and free blocks hold no valid page
 * and have no owner.
 */
std::string auditBlocks(const FlashDevice &dev);

}  // namespace fleetio::check
