#include "src/hw/pmap.h"

#include "src/base/check.h"

namespace platinum::hw {

void Pmap::Enter(uint32_t vpn, int16_t module, uint32_t frame, Rights rights) {
  PLAT_CHECK_LT(vpn, entries_.size());
  PLAT_CHECK(rights != Rights::kNone);
  entries_[vpn] = PmapEntry{frame, module, rights};
}

void Pmap::Remove(uint32_t vpn) {
  PLAT_CHECK_LT(vpn, entries_.size());
  entries_[vpn] = PmapEntry{};
}

void Pmap::RestrictToRead(uint32_t vpn) {
  PLAT_CHECK_LT(vpn, entries_.size());
  PmapEntry& e = entries_[vpn];
  if (e.rights == Rights::kReadWrite) {
    e.rights = Rights::kRead;
  }
}

}  // namespace platinum::hw
