// Page-aligned allocation zones (Section 6).
//
// "A run-time library for defining disjoint memory allocation zones and for
// specifying page-aligned allocation helps PLATINUM programmers [separate
// data with different access patterns] with a minimum of effort." Every
// allocation gets its own memory object and starts on a fresh page, so
// private data, read-mostly data and synchronization variables never share a
// page unless the programmer asks them to.
#ifndef SRC_RUNTIME_ZONE_ALLOCATOR_H_
#define SRC_RUNTIME_ZONE_ALLOCATOR_H_

#include <cstdint>
#include <string>

#include "src/hw/rights.h"
#include "src/kernel/kernel.h"

namespace platinum::rt {

class ZoneAllocator {
 public:
  // Manages the virtual address space of `space` starting at page
  // `first_vpn` (low pages are left unmapped to catch null-ish accesses).
  ZoneAllocator(kernel::Kernel* kernel, vm::AddressSpace* space, uint32_t first_vpn = 16);

  kernel::Kernel& kernel() { return *kernel_; }
  vm::AddressSpace* space() { return space_; }

  // Allocates `words` 32-bit words in a fresh page-aligned zone backed by its
  // own memory object. Returns the base byte address. `home_module` places
  // the pages' kernel structures.
  uint32_t AllocWords(const std::string& name, size_t words,
                      hw::Rights rights = hw::Rights::kReadWrite, int home_module = -1);

  // Pages handed out so far.
  uint32_t pages_allocated() const { return next_vpn_ - first_vpn_; }

 private:
  kernel::Kernel* kernel_;
  vm::AddressSpace* space_;
  const uint32_t first_vpn_;
  uint32_t next_vpn_;
};

}  // namespace platinum::rt

#endif  // SRC_RUNTIME_ZONE_ALLOCATOR_H_
