#include "src/obs/histogram.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>

namespace platinum::obs {

sim::SimTime LatencyHistogram::BucketLower(int b) {
  if (b <= 0) {
    return 0;
  }
  return sim::SimTime{1} << (b - 1);
}

sim::SimTime LatencyHistogram::BucketUpper(int b) {
  if (b <= 0) {
    return 0;
  }
  if (b >= kBuckets - 1) {
    return ~sim::SimTime{0};
  }
  return (sim::SimTime{1} << b) - 1;
}

double LatencyHistogram::Mean() const {
  return count_ > 0 ? static_cast<double>(sum_) / static_cast<double>(count_) : 0.0;
}

sim::SimTime LatencyHistogram::Percentile(double p) const {
  if (count_ == 0) {
    return 0;
  }
  p = std::clamp(p, 0.0, 100.0);
  uint64_t rank = static_cast<uint64_t>(std::ceil(p / 100.0 * static_cast<double>(count_)));
  rank = std::clamp<uint64_t>(rank, 1, count_);

  uint64_t cumulative = 0;
  for (int b = 0; b < kBuckets; ++b) {
    if (buckets_[static_cast<size_t>(b)] == 0) {
      continue;
    }
    uint64_t in_bucket = buckets_[static_cast<size_t>(b)];
    if (cumulative + in_bucket < rank) {
      cumulative += in_bucket;
      continue;
    }
    double lo = static_cast<double>(BucketLower(b));
    double hi = static_cast<double>(BucketUpper(b));
    double pos = static_cast<double>(rank - cumulative) / static_cast<double>(in_bucket);
    auto estimate = static_cast<sim::SimTime>(lo + (hi - lo) * pos);
    return std::clamp(estimate, min(), max());
  }
  return max_;
}

std::string LatencyHistogram::ToString() const {
  std::ostringstream out;
  char line[160];
  std::snprintf(line, sizeof(line),
                "count %llu, mean %.1f us, p50 %.1f us, p90 %.1f us, p99 %.1f us, max %.1f us\n",
                static_cast<unsigned long long>(count_), Mean() / 1000.0,
                sim::ToMicroseconds(Percentile(50)), sim::ToMicroseconds(Percentile(90)),
                sim::ToMicroseconds(Percentile(99)), sim::ToMicroseconds(max_));
  out << line;
  uint64_t peak = 0;
  for (uint64_t c : buckets_) {
    peak = std::max(peak, c);
  }
  for (int b = 0; b < kBuckets; ++b) {
    uint64_t c = buckets_[static_cast<size_t>(b)];
    if (c == 0) {
      continue;
    }
    int bar = peak > 0 ? static_cast<int>(c * 40 / peak) : 0;
    std::snprintf(line, sizeof(line), "  [%11.1f us, %11.1f us] %10llu %.*s\n",
                  sim::ToMicroseconds(BucketLower(b)),
                  b >= kBuckets - 1 ? 1e12 : sim::ToMicroseconds(BucketUpper(b)),
                  static_cast<unsigned long long>(c), bar,
                  "****************************************");
    out << line;
  }
  return out.str();
}

}  // namespace platinum::obs
