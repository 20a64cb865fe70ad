#include "src/runtime/zone_allocator.h"

#include "src/base/check.h"

namespace platinum::rt {

ZoneAllocator::ZoneAllocator(kernel::Kernel* kernel, vm::AddressSpace* space, uint32_t first_vpn)
    : kernel_(kernel), space_(space), first_vpn_(first_vpn), next_vpn_(first_vpn) {
  PLAT_CHECK(kernel != nullptr);
  PLAT_CHECK(space != nullptr);
}

uint32_t ZoneAllocator::AllocWords(const std::string& name, size_t words, hw::Rights rights,
                                   int home_module) {
  PLAT_CHECK_GT(words, size_t{0});
  uint32_t page_words = kernel_->page_size() / 4;
  uint32_t pages = static_cast<uint32_t>((words + page_words - 1) / page_words);
  PLAT_CHECK_LE(next_vpn_ + pages, space_->num_pages())
      << "address space '" << space_->name() << "' exhausted allocating '" << name << "'";

  vm::MemoryObject* object = kernel_->CreateMemoryObject(name, pages, home_module);
  uint32_t vpn = next_vpn_;
  next_vpn_ += pages;
  kernel_->Map(space_, object, 0, pages, vpn, rights);
  return vpn * kernel_->page_size();
}

}  // namespace platinum::rt
