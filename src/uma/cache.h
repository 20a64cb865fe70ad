// A direct-mapped write-through data cache (one per UMA processor).
#ifndef SRC_UMA_CACHE_H_
#define SRC_UMA_CACHE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace platinum::uma {

class Cache {
 public:
  // `cache_bytes` total capacity, `line_bytes` per line; both powers of two.
  Cache(uint32_t cache_bytes, uint32_t line_bytes);

  // True if the line holding `word_addr` is present.
  bool Contains(size_t word_addr) const;
  // Installs the line holding `word_addr` (read-miss fill).
  void Fill(size_t word_addr);
  // Drops the line holding `word_addr` if present (snoop invalidation).
  // Returns true if something was invalidated.
  bool Invalidate(size_t word_addr);

 private:
  struct Line {
    bool valid = false;
    size_t tag = 0;
  };

  size_t LineNumber(size_t word_addr) const { return word_addr / words_per_line_; }
  size_t IndexOf(size_t line_number) const { return line_number & index_mask_; }

  uint32_t words_per_line_;
  size_t index_mask_;
  std::vector<Line> lines_;
};

}  // namespace platinum::uma

#endif  // SRC_UMA_CACHE_H_
