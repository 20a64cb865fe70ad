// Host memory that reads as zero and is paid for only where it is touched.
//
// An anonymous private mapping: the host kernel supplies a zeroed page the
// first time each page is touched, so a mapping of simulated memory costs no
// set-up work and no resident memory beyond what the simulation uses. It
// holds the machine's frames, the UMA machine's shared memory, each fiber
// stack, and each address space's Cmap entries with its Pmaps' entries.
// MAP_NORESERVE keeps untouched pages out of the commit charge, except on
// hosts with strict overcommit (vm.overcommit_memory=2), which charge the
// whole mapping as an allocation of the same size would.
#ifndef SRC_BASE_ANONYMOUS_MAPPING_H_
#define SRC_BASE_ANONYMOUS_MAPPING_H_

#include <cstddef>

namespace platinum::base {

class AnonymousMapping {
 public:
  // Maps `bytes` of zeroed, readable and writable memory; a mapping the host
  // cannot provide fails a PLAT_CHECK naming the size and the reason.
  explicit AnonymousMapping(size_t bytes);
  ~AnonymousMapping();

  AnonymousMapping(AnonymousMapping&& other) noexcept;
  AnonymousMapping(const AnonymousMapping&) = delete;
  AnonymousMapping& operator=(const AnonymousMapping&) = delete;
  AnonymousMapping& operator=(AnonymousMapping&&) = delete;

  // Page-aligned start of the mapping.
  void* data() const { return data_; }

 private:
  void* data_;
  size_t size_;
};

}  // namespace platinum::base

#endif  // SRC_BASE_ANONYMOUS_MAPPING_H_
