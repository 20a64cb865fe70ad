#include "src/hw/atc.h"

#include "src/base/check.h"

namespace platinum::hw {

Atc::Atc(uint32_t num_entries) : slots_(num_entries), mask_(num_entries - 1) {
  PLAT_CHECK_GT(num_entries, 0u);
  PLAT_CHECK_EQ(num_entries & mask_, 0u) << "ATC size must be a power of two";
}

void Atc::FlushPage(uint32_t as_id, uint32_t vpn) {
  Slot& slot = slots_[IndexOf(vpn)];
  if (slot.valid && slot.as_id == as_id && slot.vpn == vpn) {
    slot.valid = false;
  }
}

}  // namespace platinum::hw
