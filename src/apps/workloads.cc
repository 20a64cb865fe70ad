#include "src/apps/workloads.h"

#include <algorithm>

namespace platinum::apps {

uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

int32_t GaussInitialValue(uint64_t seed, int n, int i, int j) {
  (void)n;
  uint64_t h = Mix64(seed ^ Mix64(static_cast<uint64_t>(i) * 1315423911u + j));
  int32_t value = static_cast<int32_t>(h % 63) + 1;  // [1, 63]
  if (i == j) {
    value += 4096;  // diagonal dominance keeps multipliers small
  }
  return value;
}

uint64_t GaussReferenceChecksum(uint64_t seed, int n) {
  std::vector<int32_t> a(static_cast<size_t>(n) * n);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      a[static_cast<size_t>(i) * n + j] = GaussInitialValue(seed, n, i, j);
    }
  }
  for (int i = 0; i < n; ++i) {
    int32_t a_ii = a[static_cast<size_t>(i) * n + i];
    for (int j = i + 1; j < n; ++j) {
      int32_t m = GaussMultiplier(a[static_cast<size_t>(j) * n + i], a_ii);
      for (int k = i; k < n; ++k) {
        size_t jk = static_cast<size_t>(j) * n + k;
        a[jk] = GaussEliminateElement(a[jk], m, a[static_cast<size_t>(i) * n + k]);
      }
    }
  }
  Checksum sum;
  for (int32_t v : a) {
    sum.Add(static_cast<uint32_t>(v));
  }
  return sum.value();
}

uint32_t SortInputValue(uint64_t seed, size_t index) {
  return static_cast<uint32_t>(Mix64(seed ^ (index * 2654435761ull)));
}

uint64_t SortReferenceChecksum(uint64_t seed, size_t count) {
  // A counting sort on the top 12 bits, fed twice by the generator so the
  // output is the only copy of the input; std::sort then finishes each
  // bucket (about 64 values at the default size). The order, and so the
  // checksum, is that of one std::sort over the whole input, in about half
  // its host time. A two-pass LSD radix sort is faster still, but its
  // second copy of the input raised the sort benchmark's peak resident
  // memory by 12%.
  constexpr int kBucketBits = 12;
  std::vector<size_t> cursor(size_t{1} << kBucketBits, 0);
  for (size_t i = 0; i < count; ++i) {
    ++cursor[SortInputValue(seed, i) >> (32 - kBucketBits)];
  }
  size_t next = 0;
  for (size_t& c : cursor) {
    size_t n = c;
    c = next;
    next += n;
  }
  std::vector<uint32_t> values(count);
  for (size_t i = 0; i < count; ++i) {
    uint32_t v = SortInputValue(seed, i);
    values[cursor[v >> (32 - kBucketBits)]++] = v;
  }
  // Each cursor now sits at the end of its bucket.
  size_t begin = 0;
  for (size_t end : cursor) {
    std::sort(values.begin() + begin, values.begin() + end);
    begin = end;
  }
  Checksum sum;
  for (uint32_t v : values) {
    sum.Add(v);
  }
  return sum.value();
}

}  // namespace platinum::apps
