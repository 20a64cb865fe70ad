// Per-processor physical page map.
//
// PLATINUM gives every processor a *private* Pmap per address space (unlike
// Mach's single shared Pmap) so that replicated pages can map to different
// physical copies on different nodes, and so shootdowns need not stall other
// processors (paper Section 3.1). A Pmap is only a cache of valid
// virtual-to-physical translations — it holds the processor's working set,
// not the whole address space. Its entries live in a base::AnonymousMapping,
// so the host supplies memory only for the pages of entries the processor has
// translated.
#ifndef SRC_HW_PMAP_H_
#define SRC_HW_PMAP_H_

#include <cstdint>
#include <span>

#include "src/base/anonymous_mapping.h"
#include "src/base/check.h"
#include "src/hw/rights.h"

namespace platinum::hw {

// One translation. An entry of all zero bytes, which is what PmapEntry{} and
// an untouched page of a Pmap's mapping both hold, means no translation.
struct PmapEntry {
  uint32_t frame = 0;
  int16_t module = 0;
  Rights rights = Rights::kNone;
  bool valid = false;
};

class Pmap {
 public:
  explicit Pmap(uint32_t num_pages);

  uint32_t num_pages() const { return static_cast<uint32_t>(entries_.size()); }

  const PmapEntry& entry(uint32_t vpn) const {
    PLAT_CHECK_LT(vpn, entries_.size());
    return entries_[vpn];
  }
  // Installs or replaces the translation for `vpn`.
  void Enter(uint32_t vpn, int16_t module, uint32_t frame, Rights rights);
  // Removes the translation for `vpn`; no-op if not present.
  void Remove(uint32_t vpn);
  // Lowers the rights of an existing translation to at most `rights`; no-op
  // if not present.
  void Restrict(uint32_t vpn, Rights rights);

 private:
  base::AnonymousMapping mapping_;
  std::span<PmapEntry> entries_;
};

}  // namespace platinum::hw

#endif  // SRC_HW_PMAP_H_
