#include "src/hw/pmap.h"

#include "src/base/check.h"

namespace platinum::hw {

Pmap::Pmap(uint32_t num_pages) : entries_(num_pages) {}

void Pmap::Enter(uint32_t vpn, int16_t module, uint32_t frame, Rights rights) {
  PLAT_CHECK_LT(vpn, entries_.size());
  PLAT_CHECK(rights != Rights::kNone);
  PmapEntry& e = entries_[vpn];
  if (!e.valid) {
    ++valid_count_;
  }
  e.frame = frame;
  e.module = module;
  e.rights = rights;
  e.valid = true;
}

void Pmap::Remove(uint32_t vpn) {
  PLAT_CHECK_LT(vpn, entries_.size());
  PmapEntry& e = entries_[vpn];
  if (e.valid) {
    --valid_count_;
    e = PmapEntry{};
  }
}

void Pmap::Restrict(uint32_t vpn, Rights rights) {
  PLAT_CHECK_LT(vpn, entries_.size());
  PmapEntry& e = entries_[vpn];
  if (!e.valid) {
    return;
  }
  auto have = static_cast<uint8_t>(e.rights);
  auto cap = static_cast<uint8_t>(rights);
  e.rights = static_cast<Rights>(have & cap);
  if (e.rights == Rights::kNone) {
    --valid_count_;
    e = PmapEntry{};
  }
}

}  // namespace platinum::hw
