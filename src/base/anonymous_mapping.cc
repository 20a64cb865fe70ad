#include "src/base/anonymous_mapping.h"

#include <sys/mman.h>

#include <cerrno>
#include <cstring>

#include "src/base/check.h"

namespace platinum::base {

AnonymousMapping::AnonymousMapping(size_t bytes)
    : data_(mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                 MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0)),
      size_(bytes) {
  const int mmap_error = errno;
  PLAT_CHECK(data_ != MAP_FAILED) << "cannot map " << bytes
                                  << " bytes: " << std::strerror(mmap_error);
  // Simulated frames are hashed across a module, so with transparent huge
  // pages one touched frame would make a whole 2 MB host page resident. A
  // host kernel built without them rejects the advice, which is harmless.
  madvise(data_, bytes, MADV_NOHUGEPAGE);
}

AnonymousMapping::AnonymousMapping(AnonymousMapping&& other) noexcept
    : data_(other.data_), size_(other.size_) {
  other.data_ = nullptr;
}

AnonymousMapping::~AnonymousMapping() {
  if (data_ != nullptr) {
    PLAT_CHECK_EQ(munmap(data_, size_), 0) << std::strerror(errno);
  }
}

}  // namespace platinum::base
