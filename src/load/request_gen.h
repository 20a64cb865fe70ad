// Deterministic request generation for the serving workload.
//
// Everything here is host-side and seeded: the Zipf key distribution, the
// read/insert/delete mix, and the per-worker request scripts are fully
// materialized before the simulated machine starts, so a run's request
// stream is a pure function of (seed, keys, ops, mix, workers) — never of
// simulated timing. Two design rules make runs verifiable:
//
//   * Writes are sharded by owner: worker p only inserts or erases keys with
//     key % workers == p. Reads are global. Per-owner write streams to
//     disjoint key sets, applied in program order, make the final trie
//     contents independent of protocol timing — the foundation of both the
//     reference replay and the directory-vs-tardis differential test.
//   * Hotness is aligned across readers and writers: ranks map to keys
//     through one fixed bijection, and an owner's write traffic follows the
//     global hotness order filtered to its owned keys. Globally read-hot
//     leaves are also write-hot for their owner — the freeze-vs-replicate
//     tension the workload exists to produce.
#ifndef SRC_LOAD_REQUEST_GEN_H_
#define SRC_LOAD_REQUEST_GEN_H_

#include <cstdint>
#include <vector>

namespace platinum::load {

struct WorkloadSpec {
  uint64_t seed = 1;
  // Key universe [0, keys), a power of two; sizes the trie's node pools.
  uint32_t keys = 1u << 14;
  // Total requests, split round-robin across workers.
  uint64_t ops = 1u << 20;
  // Zipf exponent for key popularity (0 = uniform).
  double zipf_s = 0.99;
  // Fraction of requests that are lookups.
  double read_fraction = 0.90;
  // Of the non-read requests, the fraction that are erases; 0.5 keeps the
  // live-entry count roughly stationary, 0 grows, 1 drains.
  double churn = 0.5;
  // The hottest fraction of each owner's keys preinserted before the timed
  // phase, so early reads can hit.
  double preload_fraction = 0.5;
};

enum class OpKind : uint8_t { kLookup = 0, kInsert = 1, kErase = 2 };

struct Request {
  OpKind op;
  uint32_t key;
  uint32_t value;  // inserts only
};

// Inverse-CDF Zipf sampling over ranks [0, n), rank 0 hottest. Host-side
// doubles: deterministic on one host, which is all the byte-identity checks
// compare (run vs rerun, trie vs reference, protocol vs protocol).
//
// Sample is O(1) on average through a guide table: a power-of-two number of
// buckets splits [0, 1) evenly, and a draw's top bits name its bucket. Each
// bucket holds the first rank whose cdf exceeds the bucket's lower edge,
// and a short forward scan from there finds the draw's rank, exactly the
// rank a binary search over the CDF finds.
class ZipfSampler {
 public:
  ZipfSampler() = default;
  ZipfSampler(uint32_t n, double s);
  // The first rank whose cdf exceeds UnitDraw(draw), or the last rank when
  // rounding leaves none that does.
  uint32_t Sample(uint64_t draw) const;

  // cdf()[r] is the probability of a rank <= r.
  const std::vector<double>& cdf() const { return cdf_; }
  // Guide-table buckets, a power of two; bucket j covers draws whose
  // UnitDraw lies in [j / buckets(), (j + 1) / buckets()).
  uint32_t buckets() const { return static_cast<uint32_t>(guide_.size()); }

 private:
  std::vector<double> cdf_;
  std::vector<uint32_t> guide_;
  // Right shift from a draw to its bucket index.
  int guide_shift_ = 0;
};

// The fixed rank -> key bijection (odd-multiplier hash on a power-of-two
// universe), so popular ranks scatter across the key space instead of
// clustering in one subtree.
uint32_t RankToKey(uint32_t rank, uint32_t keys);

// Maps a 64-bit draw to [0, 1).
double UnitDraw(uint64_t draw);

class RequestScript {
 public:
  // Materializes per-worker preload sets and request streams. Requires
  // power-of-two `spec.keys` and keys >= workers.
  static RequestScript Generate(const WorkloadSpec& spec, uint32_t workers);

  uint32_t workers() const { return static_cast<uint32_t>(requests_.size()); }
  const std::vector<uint32_t>& PreloadFor(uint32_t worker) const {
    return preload_[worker];
  }
  const std::vector<Request>& ForWorker(uint32_t worker) const {
    return requests_[worker];
  }
  // The value a preloaded key starts with (shared with the reference).
  static uint32_t PreloadValue(uint64_t seed, uint32_t key);

  // Replays every owner's preload + write stream in program order against a
  // host map and folds the surviving entries in trie-visit order — the
  // checksum and entry count a correct trie must report, independent of how
  // the simulated run interleaved.
  struct Reference {
    uint64_t checksum = 0;
    uint64_t entries = 0;
  };
  Reference ReplayReference() const;

 private:
  std::vector<std::vector<uint32_t>> preload_;
  std::vector<std::vector<Request>> requests_;
  uint64_t seed_ = 0;
};

}  // namespace platinum::load

#endif  // SRC_LOAD_REQUEST_GEN_H_
