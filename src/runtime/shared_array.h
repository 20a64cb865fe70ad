// Typed views over coherent memory.
//
// SharedArray<T> wraps a word-aligned region of an address space; every
// element access goes through the kernel's coherent-memory path, so it is
// charged simulated time and can fault, replicate, migrate or freeze pages
// exactly as a load/store on the real machine would.
#ifndef SRC_RUNTIME_SHARED_ARRAY_H_
#define SRC_RUNTIME_SHARED_ARRAY_H_

#include <bit>
#include <cstdint>
#include <string>
#include <type_traits>

#include "src/base/check.h"
#include "src/runtime/zone_allocator.h"

namespace platinum::rt {

template <typename T>
class SharedArray {
  static_assert(sizeof(T) == 4 && std::is_trivially_copyable_v<T>,
                "coherent memory is accessed in 32-bit words");

 public:
  SharedArray() = default;

  SharedArray(kernel::Kernel* kernel, vm::AddressSpace* space, uint32_t base_va, size_t count)
      : kernel_(kernel), space_(space), base_va_(base_va), count_(count) {}

  // Allocates a fresh page-aligned zone holding `count` elements.
  static SharedArray Create(ZoneAllocator& zone, const std::string& name, size_t count,
                            hw::Rights rights = hw::Rights::kReadWrite, int home_module = -1) {
    uint32_t base = zone.AllocWords(name, count, rights, home_module);
    return SharedArray(&zone.kernel(), zone.space(), base, count);
  }

  bool valid() const { return kernel_ != nullptr; }
  size_t size() const { return count_; }
  uint32_t base_va() const { return base_va_; }
  uint32_t va(size_t index) const {
    PLAT_DCHECK(index < count_);
    return base_va_ + static_cast<uint32_t>(index) * 4;
  }
  vm::AddressSpace* space() const { return space_; }

  T Get(size_t index) const {
    PLAT_DCHECK(valid()) << "Get on a default-constructed rt::SharedArray";
    return std::bit_cast<T>(kernel_->ReadWord(space_, va(index)));
  }
  void Set(size_t index, T value) {
    PLAT_DCHECK(valid()) << "Set on a default-constructed rt::SharedArray";
    kernel_->WriteWord(space_, va(index), std::bit_cast<uint32_t>(value));
  }

  // A view of `count` elements starting at `first` (e.g. one matrix row).
  SharedArray Slice(size_t first, size_t count) const {
    PLAT_CHECK_LE(first + count, count_);
    return SharedArray(kernel_, space_, va(first), count);
  }

 private:
  kernel::Kernel* kernel_ = nullptr;
  vm::AddressSpace* space_ = nullptr;
  uint32_t base_va_ = 0;
  size_t count_ = 0;
};

// A matrix whose rows are page-aligned — the allocation discipline Section 6
// recommends so rows with different sharing patterns never share a page.
template <typename T>
class SharedMatrix {
 public:
  SharedMatrix() = default;

  static SharedMatrix Create(ZoneAllocator& zone, const std::string& name, size_t rows,
                             size_t cols) {
    SharedMatrix m;
    m.cols_ = cols;
    uint32_t page_words = zone.kernel().page_size() / 4;
    m.row_stride_ = (cols + page_words - 1) / page_words * page_words;
    uint32_t base = zone.AllocWords(name, m.row_stride_ * rows);
    m.data_ = SharedArray<T>(&zone.kernel(), zone.space(), base, m.row_stride_ * rows);
    return m;
  }

  T Get(size_t r, size_t c) const { return data_.Get(r * row_stride_ + c); }
  void Set(size_t r, size_t c, T value) { data_.Set(r * row_stride_ + c, value); }
  SharedArray<T> Row(size_t r) const { return data_.Slice(r * row_stride_, cols_); }

 private:
  SharedArray<T> data_;
  size_t cols_ = 0;
  size_t row_stride_ = 0;
};

}  // namespace platinum::rt

#endif  // SRC_RUNTIME_SHARED_ARRAY_H_
