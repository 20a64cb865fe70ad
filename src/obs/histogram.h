// Log-bucketed latency histograms over virtual time.
//
// The paper's instrumentation interface (Sections 1.1, 9) reports only event
// counts; a latency *distribution* is what separates "faults are slow" from
// "most faults are fast but the pivot-row burst queues behind one module".
// Buckets are powers of two of nanoseconds, so the histogram covers the whole
// simulated range (320 ns local references to multi-millisecond shootdown
// storms) in 64 fixed counters with no allocation on the record path.
#ifndef SRC_OBS_HISTOGRAM_H_
#define SRC_OBS_HISTOGRAM_H_

#include <array>
#include <bit>
#include <cstdint>
#include <string>

#include "src/sim/time.h"

namespace platinum::obs {

class LatencyHistogram {
 public:
  // Bucket b >= 1 holds values v with bit_width(v) == b, i.e. the half-open
  // range [2^(b-1), 2^b); bucket 0 holds exactly the value 0.
  static constexpr int kBuckets = 64;

  void Record(sim::SimTime value_ns) {
    ++buckets_[static_cast<size_t>(BucketIndex(value_ns))];
    if (count_ == 0 || value_ns < min_) {
      min_ = value_ns;
    }
    if (value_ns > max_) {
      max_ = value_ns;
    }
    sum_ += value_ns;
    ++count_;
  }
  // Records `n` zeros at once. A histogram does not depend on the order of
  // its records, so this equals `n` calls of Record(0).
  void AddZeros(uint64_t n) {
    if (n == 0) {
      return;
    }
    buckets_[0] += n;
    min_ = 0;
    count_ += n;
  }

  uint64_t count() const { return count_; }
  sim::SimTime sum() const { return sum_; }
  sim::SimTime min() const { return count_ > 0 ? min_ : 0; }
  sim::SimTime max() const { return max_; }
  double Mean() const;

  // Nearest-rank percentile estimate, `p` in [0, 100]. The target rank is
  // ceil(p/100 * count); the estimate interpolates linearly inside the bucket
  // where the cumulative count reaches that rank (so a rank at the end of its
  // bucket returns the bucket's upper bound), then clamps to [min, max].
  // Returns 0 on an empty histogram.
  sim::SimTime Percentile(double p) const;

  const std::array<uint64_t, kBuckets>& buckets() const { return buckets_; }
  static int BucketIndex(sim::SimTime value_ns) {
    if (value_ns == 0) {
      return 0;
    }
    int b = std::bit_width(value_ns);
    return b < kBuckets ? b : kBuckets - 1;
  }
  // Inclusive bounds of bucket `b`.
  static sim::SimTime BucketLower(int b);
  static sim::SimTime BucketUpper(int b);

  // Compact text rendering: summary line plus one row per non-empty bucket.
  std::string ToString() const;

 private:
  std::array<uint64_t, kBuckets> buckets_{};
  uint64_t count_ = 0;
  sim::SimTime sum_ = 0;
  sim::SimTime min_ = 0;
  sim::SimTime max_ = 0;
};

}  // namespace platinum::obs

#endif  // SRC_OBS_HISTOGRAM_H_
