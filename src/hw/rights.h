// Access rights for virtual-to-coherent and virtual-to-physical mappings.
//
// Mirroring the paper, the rights in a processor's Pmap entry may be *more
// restrictive* than what the virtual memory layer granted: the coherency
// protocol restricts physical mappings to force the traps that drive it.
#ifndef SRC_HW_RIGHTS_H_
#define SRC_HW_RIGHTS_H_

#include <cstdint>

namespace platinum::hw {

enum class Rights : uint8_t {
  kNone = 0,
  kRead = 1,
  kReadWrite = 3,
};

// True if a mapping with rights `have` satisfies an access needing `need`.
inline bool Allows(Rights have, Rights need) {
  return (static_cast<uint8_t>(have) & static_cast<uint8_t>(need)) ==
         static_cast<uint8_t>(need);
}

}  // namespace platinum::hw

#endif  // SRC_HW_RIGHTS_H_
