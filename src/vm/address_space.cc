#include "src/vm/address_space.h"

#include <algorithm>

#include "src/base/check.h"
#include "src/vm/memory_object.h"

namespace platinum::vm {

void AddressSpace::AddBinding(const Binding& binding) {
  PLAT_CHECK(binding.object != nullptr);
  PLAT_CHECK_GT(binding.num_pages, 0u);
  PLAT_CHECK_LE(binding.object_page + binding.num_pages, binding.object->num_pages());
  PLAT_CHECK_LE(binding.vpn + binding.num_pages, num_pages_);
  PLAT_CHECK(binding.rights != hw::Rights::kNone);
  // Bindings may not overlap in virtual space.
  for (const Binding& existing : bindings_) {
    bool disjoint = binding.vpn + binding.num_pages <= existing.vpn ||
                    existing.vpn + existing.num_pages <= binding.vpn;
    PLAT_CHECK(disjoint) << "overlapping binding at vpn " << binding.vpn << " in space " << name_;
  }
  bindings_.push_back(binding);
}

void AddressSpace::RemoveBinding(uint32_t vpn, uint32_t num_pages) {
  auto it = std::find_if(bindings_.begin(), bindings_.end(), [&](const Binding& binding) {
    return binding.vpn == vpn && binding.num_pages == num_pages;
  });
  PLAT_CHECK(it != bindings_.end()) << "no binding spans exactly vpns [" << vpn << ", "
                                    << vpn + num_pages << ") in space " << name_;
  bindings_.erase(it);
}

const Binding* AddressSpace::FindBinding(uint32_t vpn) const {
  for (const Binding& binding : bindings_) {
    if (vpn >= binding.vpn && vpn < binding.vpn + binding.num_pages) {
      return &binding;
    }
  }
  return nullptr;
}

}  // namespace platinum::vm
