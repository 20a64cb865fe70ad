// Per-processor physical page map.
//
// PLATINUM gives every processor a *private* Pmap per address space (unlike
// Mach's single shared Pmap) so that replicated pages can map to different
// physical copies on different nodes, and so shootdowns need not stall other
// processors (paper Section 3.1). A Pmap is only a cache of valid
// virtual-to-physical translations — it holds the processor's working set,
// not the whole address space. It addresses a slice of its address space's
// Cmap mapping (src/mem/cmap.h), so the host supplies memory only for the
// pages of entries the processor has translated.
#ifndef SRC_HW_PMAP_H_
#define SRC_HW_PMAP_H_

#include <cstdint>
#include <span>

#include "src/base/check.h"
#include "src/hw/rights.h"

namespace platinum::hw {

// One translation. `rights == kNone` is the one "no translation" value, and
// an entry of zero bytes, which an untouched page of the mapping holds, has
// it.
struct PmapEntry {
  uint32_t frame = 0;
  int16_t module = 0;
  Rights rights = Rights::kNone;
};

class Pmap {
 public:
  // A Pmap over `entries`, which must start out with no translation.
  explicit Pmap(std::span<PmapEntry> entries) : entries_(entries) {}

  const PmapEntry& entry(uint32_t vpn) const {
    PLAT_CHECK_LT(vpn, entries_.size());
    return entries_[vpn];
  }
  // Installs or replaces the translation for `vpn`.
  void Enter(uint32_t vpn, int16_t module, uint32_t frame, Rights rights);
  // Removes the translation for `vpn`; no-op if not present.
  void Remove(uint32_t vpn);
  // Lowers a read-write translation for `vpn` to read-only; no-op otherwise.
  void RestrictToRead(uint32_t vpn);

 private:
  std::span<PmapEntry> entries_;
};

}  // namespace platinum::hw

#endif  // SRC_HW_PMAP_H_
