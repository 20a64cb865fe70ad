// Parallel merge sort (paper Section 5.2 and Figure 5).
//
// A simple tree of merge operations, each performed by a single thread:
// every thread bottom-up merge-sorts its contiguous chunk, then pairs of
// threads merge their runs up a binary tree. On PLATINUM, the merging
// thread's linear pass over its partner's (remote) run is exactly the access
// pattern page replication prefetches well; on the Sequent-style UMA
// machine the same program is limited by its small write-through caches and
// the shared bus — the comparison of Figure 5.
#ifndef SRC_APPS_MERGESORT_H_
#define SRC_APPS_MERGESORT_H_

#include <algorithm>
#include <cstdint>

#include "src/apps/workloads.h"
#include "src/kernel/kernel.h"
#include "src/uma/uma_machine.h"

namespace platinum::apps {

struct SortConfig {
  size_t count = size_t{1} << 16;  // elements; power of two
  int processors = 4;              // power of two
  uint64_t seed = 7;
  // Compare + move per merged element.
  sim::SimTime compute_per_element_ns = 800;
  bool verify = true;
};

struct SortResult {
  sim::SimTime sort_ns = 0;
  uint64_t checksum = 0;
  bool verified = false;
};

SortResult RunMergeSortPlatinum(kernel::Kernel& kernel, const SortConfig& config);
SortResult RunMergeSortUma(uma::UmaMachine& machine, const SortConfig& config);

// --- Generic core, shared by both drivers -----------------------------------

// Writes the generated input run a[lo..lo+n) = SortInputValue(seed, index).
template <typename Array>
void GenerateRun(Array& a, size_t lo, size_t n, uint64_t seed) {
  for (size_t i = 0; i < n; ++i) {
    a.Set(lo + i, SortInputValue(seed, lo + i));
  }
}

// Merges src[lo1..lo1+n1) and src[lo2..lo2+n2) (both sorted) into
// dst[out..). `compute` is charged once per element moved, just before its
// copy, tails included: moving the charges would reorder the reference
// stream that concurrent protocol decisions (freezes, defrosts on other
// processors) can observe.
template <typename Array, typename ComputeFn>
void MergeRuns(Array& src, Array& dst, size_t lo1, size_t n1, size_t lo2, size_t n2, size_t out,
               ComputeFn&& compute) {
  size_t i = 0;
  size_t j = 0;
  uint32_t a = n1 > 0 ? src.Get(lo1) : 0;
  uint32_t b = n2 > 0 ? src.Get(lo2) : 0;
  while (i < n1 && j < n2) {
    compute();
    if (a <= b) {
      dst.Set(out++, a);
      if (++i < n1) {
        a = src.Get(lo1 + i);
      }
    } else {
      dst.Set(out++, b);
      if (++j < n2) {
        b = src.Get(lo2 + j);
      }
    }
  }
  while (i < n1) {
    compute();
    dst.Set(out++, src.Get(lo1 + i));
    ++i;
  }
  while (j < n2) {
    compute();
    dst.Set(out++, src.Get(lo2 + j));
    ++j;
  }
}

// Bottom-up merge sort of a[lo..lo+len) using b as scratch. Returns the
// number of passes performed; the sorted run is in `a` when the count is
// even, in `b` when odd.
template <typename Array, typename ComputeFn>
int SortChunkBottomUp(Array& a, Array& b, size_t lo, size_t len, ComputeFn&& compute) {
  int passes = 0;
  Array* src = &a;
  Array* dst = &b;
  for (size_t width = 1; width < len; width *= 2) {
    for (size_t start = 0; start < len; start += 2 * width) {
      size_t n1 = std::min(width, len - start);
      size_t n2 = std::min(width, len - std::min(len, start + width));
      MergeRuns(*src, *dst, lo + start, n1, lo + start + width, n2, lo + start, compute);
    }
    std::swap(src, dst);
    ++passes;
  }
  return passes;
}

}  // namespace platinum::apps

#endif  // SRC_APPS_MERGESORT_H_
