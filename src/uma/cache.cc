#include "src/uma/cache.h"

#include "src/base/check.h"

namespace platinum::uma {

Cache::Cache(uint32_t cache_bytes, uint32_t line_bytes) {
  PLAT_CHECK_GT(line_bytes, 0u);
  PLAT_CHECK_EQ(line_bytes % 4, 0u);
  PLAT_CHECK((line_bytes & (line_bytes - 1)) == 0) << "line size must be a power of two";
  PLAT_CHECK((cache_bytes & (cache_bytes - 1)) == 0) << "cache size must be a power of two";
  PLAT_CHECK_GE(cache_bytes, line_bytes);
  words_per_line_ = line_bytes / 4;
  size_t num_lines = cache_bytes / line_bytes;
  index_mask_ = num_lines - 1;
  lines_.resize(num_lines);
}

bool Cache::Contains(size_t word_addr) const {
  size_t line = LineNumber(word_addr);
  const Line& slot = lines_[IndexOf(line)];
  return slot.valid && slot.tag == line;
}

void Cache::Fill(size_t word_addr) {
  size_t line = LineNumber(word_addr);
  Line& slot = lines_[IndexOf(line)];
  slot.valid = true;
  slot.tag = line;
}

bool Cache::Invalidate(size_t word_addr) {
  size_t line = LineNumber(word_addr);
  Line& slot = lines_[IndexOf(line)];
  if (slot.valid && slot.tag == line) {
    slot.valid = false;
    return true;
  }
  return false;
}

}  // namespace platinum::uma
