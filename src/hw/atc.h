// Address-translation cache (TLB) of one processor's MMU.
//
// Models the MC68851's ATC as a direct-mapped cache of Pmap entries tagged by
// (address space, virtual page). The shootdown mechanism must flush these
// cached translations in addition to updating Pmaps (paper Section 3.1).
#ifndef SRC_HW_ATC_H_
#define SRC_HW_ATC_H_

#include <cstdint>
#include <vector>

#include "src/base/check.h"
#include "src/hw/pmap.h"
#include "src/hw/rights.h"

namespace platinum::hw {

class Atc {
 public:
  explicit Atc(uint32_t num_entries);

  // Returns the cached translation for (as_id, vpn), or nullptr on miss.
  const PmapEntry* Lookup(uint32_t as_id, uint32_t vpn) const {
    const Slot& slot = slots_[IndexOf(vpn)];
    if (slot.valid && slot.as_id == as_id && slot.vpn == vpn) {
      return &slot.entry;
    }
    return nullptr;
  }
  // Installs a translation, evicting whatever shared its slot.
  void Fill(uint32_t as_id, uint32_t vpn, const PmapEntry& entry) {
    PLAT_CHECK(entry.valid);
    Slot& slot = slots_[IndexOf(vpn)];
    slot.valid = true;
    slot.as_id = as_id;
    slot.vpn = vpn;
    slot.entry = entry;
  }
  // Drops the translation for one page, if cached.
  void FlushPage(uint32_t as_id, uint32_t vpn);
  // Drops every translation for one address space.
  void FlushAddressSpace(uint32_t as_id);
  void FlushAll();

 private:
  struct Slot {
    bool valid = false;
    uint32_t as_id = 0;
    uint32_t vpn = 0;
    PmapEntry entry;
  };

  uint32_t IndexOf(uint32_t vpn) const { return vpn & mask_; }

  std::vector<Slot> slots_;
  uint32_t mask_;
};

}  // namespace platinum::hw

#endif  // SRC_HW_ATC_H_
