// Address spaces (Section 1.1).
//
// An address space is a list of bindings of memory objects (with access
// rights) to virtual address ranges; it defines the environment in which one
// or more threads execute. Neither the virtual range nor the rights need be
// the same in every space that maps an object.
#ifndef SRC_VM_ADDRESS_SPACE_H_
#define SRC_VM_ADDRESS_SPACE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/hw/rights.h"

namespace platinum::vm {

class MemoryObject;

// One mapping of a range of object pages into the space.
struct Binding {
  MemoryObject* object = nullptr;
  uint32_t object_page = 0;  // first object page mapped
  uint32_t num_pages = 0;
  uint32_t vpn = 0;  // first virtual page
  hw::Rights rights = hw::Rights::kNone;
};

class AddressSpace {
 public:
  AddressSpace(uint32_t id, std::string name, uint32_t num_pages)
      : id_(id), name_(std::move(name)), num_pages_(num_pages) {}

  uint32_t id() const { return id_; }
  const std::string& name() const { return name_; }
  // Capacity of the space in virtual pages.
  uint32_t num_pages() const { return num_pages_; }

  void AddBinding(const Binding& binding);
  // Removes the binding that starts at `vpn` and spans exactly `num_pages`;
  // aborts if there is none.
  void RemoveBinding(uint32_t vpn, uint32_t num_pages);
  // Returns the binding covering `vpn`, or nullptr.
  const Binding* FindBinding(uint32_t vpn) const;

 private:
  const uint32_t id_;
  const std::string name_;
  const uint32_t num_pages_;
  std::vector<Binding> bindings_;
};

}  // namespace platinum::vm

#endif  // SRC_VM_ADDRESS_SPACE_H_
