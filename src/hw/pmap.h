// Per-processor physical page map.
//
// PLATINUM gives every processor a *private* Pmap per address space (unlike
// Mach's single shared Pmap) so that replicated pages can map to different
// physical copies on different nodes, and so shootdowns need not stall other
// processors (paper Section 3.1). A Pmap is only a cache of valid
// virtual-to-physical translations — it holds the processor's working set,
// not the whole address space.
#ifndef SRC_HW_PMAP_H_
#define SRC_HW_PMAP_H_

#include <cstdint>
#include <vector>

#include "src/base/check.h"
#include "src/hw/rights.h"

namespace platinum::hw {

struct PmapEntry {
  uint32_t frame = 0;
  int16_t module = -1;
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

  // Number of valid entries (for tests and reports).
  uint32_t valid_count() const { return valid_count_; }

 private:
  std::vector<PmapEntry> entries_;
  uint32_t valid_count_ = 0;
};

}  // namespace platinum::hw

#endif  // SRC_HW_PMAP_H_
