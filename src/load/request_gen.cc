#include "src/load/request_gen.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <map>
#include <utility>

#include "src/apps/trie.h"
#include "src/apps/workloads.h"
#include "src/base/check.h"

namespace platinum::load {
namespace {

// Distinct SplitMix64 stream per worker; draws are indexed, not chained, so
// a request's randomness is addressable by (worker, request, slot).
uint64_t StreamSeed(uint64_t seed, uint32_t worker) {
  return apps::Mix64(seed ^ (0x9E3779B97F4A7C15ull * (worker + 1)));
}

uint64_t Draw(uint64_t stream, uint64_t index) { return apps::Mix64(stream + index); }

}  // namespace

double UnitDraw(uint64_t draw) {
  return static_cast<double>(draw >> 11) * (1.0 / 9007199254740992.0);  // 2^-53
}

uint32_t RankToKey(uint32_t rank, uint32_t keys) {
  return (rank * 2654435761u) & (keys - 1);
}

ZipfSampler::ZipfSampler(uint32_t n, double s) {
  PLAT_CHECK_GE(n, 1u);
  cdf_.resize(n);
  double total = 0.0;
  for (uint32_t r = 0; r < n; ++r) {
    total += std::pow(static_cast<double>(r) + 1.0, -s);
    cdf_[r] = total;
  }
  for (uint32_t r = 0; r < n; ++r) {
    cdf_[r] /= total;
  }
  // A draw's top bucket_bits bits name its bucket. Bucket j's lower edge
  // j / buckets is exact in a double and is the UnitDraw of the bucket's
  // first draw, so every draw in the bucket has u >= edge and a rank at
  // least the bucket's entry. At least two buckets keep the shift below 64.
  const uint32_t buckets = std::bit_ceil(std::max(n, 2u));
  const int bucket_bits = std::countr_zero(buckets);
  guide_shift_ = 64 - bucket_bits;
  guide_.resize(buckets);
  uint32_t rank = 0;
  for (uint32_t j = 0; j < buckets; ++j) {
    const double edge = std::ldexp(static_cast<double>(j), -bucket_bits);
    while (rank < n && cdf_[rank] <= edge) {
      ++rank;
    }
    guide_[j] = rank;
  }
}

uint32_t ZipfSampler::Sample(uint64_t draw) const {
  const double u = UnitDraw(draw);
  const uint32_t n = static_cast<uint32_t>(cdf_.size());
  uint32_t rank = guide_[draw >> guide_shift_];
  while (rank < n && cdf_[rank] <= u) {
    ++rank;
  }
  return rank < n ? rank : n - 1;
}

uint32_t RequestScript::PreloadValue(uint64_t seed, uint32_t key) {
  return static_cast<uint32_t>(apps::Mix64(seed ^ (0xC2B2AE3D27D4EB4Full + key)));
}

RequestScript RequestScript::Generate(const WorkloadSpec& spec, uint32_t workers) {
  PLAT_CHECK_GE(workers, 1u);
  PLAT_CHECK_GE(spec.keys, workers);
  PLAT_CHECK((spec.keys & (spec.keys - 1)) == 0) << "key universe must be a power of two";

  RequestScript script;
  script.seed_ = spec.seed;
  script.preload_.resize(workers);
  script.requests_.resize(workers);

  // Each owner's key list, hottest first: walk global ranks and deal keys to
  // their owners, so owner hotness order is the global order filtered.
  std::vector<std::vector<uint32_t>> owned(workers);
  for (uint32_t rank = 0; rank < spec.keys; ++rank) {
    uint32_t key = RankToKey(rank, spec.keys);
    owned[key % workers].push_back(key);
  }

  ZipfSampler global(spec.keys, spec.zipf_s);
  // Owner list lengths differ by at most one; share samplers per length.
  std::map<size_t, ZipfSampler> by_length;
  for (uint32_t p = 0; p < workers; ++p) {
    size_t n = owned[p].size();
    PLAT_CHECK_GE(n, size_t{1});
    if (by_length.find(n) == by_length.end()) {
      by_length.emplace(n, ZipfSampler(static_cast<uint32_t>(n), spec.zipf_s));
    }
    size_t preload =
        static_cast<size_t>(std::llround(static_cast<double>(n) * spec.preload_fraction));
    preload = std::min(preload, n);
    script.preload_[p].assign(owned[p].begin(),
                              owned[p].begin() + static_cast<ptrdiff_t>(preload));
  }

  const double write_fraction = 1.0 - spec.read_fraction;
  const double insert_edge = spec.read_fraction + write_fraction * (1.0 - spec.churn);
  for (uint32_t p = 0; p < workers; ++p) {
    uint64_t count = spec.ops / workers + (p < spec.ops % workers ? 1 : 0);
    const ZipfSampler& owner_zipf = by_length.find(owned[p].size())->second;
    uint64_t stream = StreamSeed(spec.seed, p);
    script.requests_[p].reserve(count);
    for (uint64_t i = 0; i < count; ++i) {
      double u = UnitDraw(Draw(stream, i * 3));
      uint64_t key_draw = Draw(stream, i * 3 + 1);
      Request req;
      if (u < spec.read_fraction) {
        req.op = OpKind::kLookup;
        req.key = RankToKey(global.Sample(key_draw), spec.keys);
        req.value = 0;
      } else {
        req.key = owned[p][owner_zipf.Sample(key_draw)];
        if (u < insert_edge) {
          req.op = OpKind::kInsert;
          req.value = static_cast<uint32_t>(Draw(stream, i * 3 + 2));
        } else {
          req.op = OpKind::kErase;
          req.value = 0;
        }
      }
      script.requests_[p].push_back(req);
    }
  }
  return script;
}

RequestScript::Reference RequestScript::ReplayReference() const {
  // Owners write disjoint key sets, so replaying owner streams one after
  // another in program order yields the unique final contents of any
  // correctly synchronized run, whatever the interleaving or protocol.
  std::map<uint32_t, uint32_t> contents;
  for (uint32_t p = 0; p < workers(); ++p) {
    for (uint32_t key : preload_[p]) {
      contents[key] = PreloadValue(seed_, key);
    }
  }
  for (uint32_t p = 0; p < workers(); ++p) {
    for (const Request& req : requests_[p]) {
      if (req.op == OpKind::kInsert) {
        contents[req.key] = req.value;
      } else if (req.op == OpKind::kErase) {
        contents.erase(req.key);
      }
    }
  }
  std::vector<std::pair<uint32_t, uint32_t>> pairs(contents.begin(), contents.end());
  std::sort(pairs.begin(), pairs.end(), [](const auto& a, const auto& b) {
    return apps::TrieVisitRank(a.first) < apps::TrieVisitRank(b.first);
  });
  Reference ref;
  apps::Checksum sum;
  for (const auto& [key, value] : pairs) {
    sum.Add(key);
    sum.Add(value);
  }
  ref.checksum = sum.value();
  ref.entries = pairs.size();
  return ref;
}

}  // namespace platinum::load
