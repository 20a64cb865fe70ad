// A concurrent radix trie in coherent memory — the serving workload's data
// structure (docs/WORKLOADS.md).
//
// Modeled on the Linux fib_trie: fixed-stride radix nodes, lock-free lookups
// that validate leaves with per-node version words (seqlock style), and
// writers serialized per top-level subtree. Every word of the trie lives in
// a rt::SharedArray, so traversals issue real coherent-memory references:
// interior nodes are read by everyone and written only during structural
// growth (read-mostly — the pages the replication policy should replicate),
// while hot leaves are rewritten by their owner under concurrent readers
// (write-shared — the pages that freeze). This is the pointer-chasing,
// hot-key-skewed access pattern none of the dense-numeric apps exhibit.
//
// Concurrency design, and how the race detector sees it:
//   * Lookups take no locks. They chase child words (single-word atomic, so
//     a reader sees either the old or the new child — both valid), then
//     validate the leaf's key/value pair against its version word: odd means
//     "mid-update or free", a changed version means "reused or rewritten";
//     either way the whole descent restarts. Version words are registered as
//     synchronization words (release on the writer's closing increment,
//     acquire on the reader's check), so the detector sees the happens-before
//     edge a successful validation implies. The key/value/child words
//     themselves are intentionally shared — a racing reader is detected and
//     retried by the version protocol, not forbidden — and are annotated as
//     such, exactly like neural's chaotic relaxation.
//   * Writers (insert / erase) hold the rt::SpinLock of the key's top-level
//     chunk, so the subtrees under different root slots mutate in parallel.
//     Node allocation takes a second, inner lock (slice -> allocator, one
//     fixed order). Interior nodes are never freed or reused; freed leaves go
//     on a freelist with an odd (unstable) version until reinitialized.
#ifndef SRC_APPS_TRIE_H_
#define SRC_APPS_TRIE_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "src/kernel/kernel.h"
#include "src/runtime/shared_array.h"
#include "src/runtime/sync.h"
#include "src/runtime/zone_allocator.h"

namespace platinum::apps {

class SharedTrie {
 public:
  // 4-bit chunks, consumed low bits first so dense key universes spread
  // across all 16 root slots (and therefore across all 16 writer locks).
  static constexpr int kStrideBits = 4;
  static constexpr uint32_t kFanout = 1u << kStrideBits;
  static constexpr int kMaxLevels = 32 / kStrideBits;

  struct Options {
    // Upper bound on distinct keys ever inserted; sizes the node pools.
    // The pools are exact for any key universe [0, max_keys), max_keys a
    // power of two (interior nodes are never freed, but a dense universe
    // bounds the set of distinct prefixes and thus the pool).
    uint32_t max_keys = 1u << 14;
    // Replication advice on the node pools: interior pages are read-mostly,
    // leaf pages write-shared. Off by default — the point of the serving
    // workload is to watch the policy discover this by itself.
    bool advise = false;
  };

  // Allocates the node pools, locks and allocator state from `zone` and
  // registers the version/sync words with the kernel. Call before spawning
  // the threads that will use the trie (annotations replay into a race
  // detector enabled later, as with every app).
  static SharedTrie Create(rt::ZoneAllocator& zone, const Options& options);

  // --- Operations (callable from any simulated thread) -----------------------
  // Lock-free versioned read; returns true on hit and fills `value`.
  bool Lookup(uint32_t key, uint32_t* value);
  // Inserts or overwrites; returns true when `key` was newly inserted,
  // false when an existing leaf's value was updated in place.
  bool Insert(uint32_t key, uint32_t value);
  // Removes `key`; returns true when it was present.
  bool Erase(uint32_t key);

  // --- Post-run introspection (simulated reads; call from one thread) --------
  // Visits every (key, value) pair in chunk-lexicographic key order — a
  // total order on keys independent of insertion history.
  void Visit(const std::function<void(uint32_t key, uint32_t value)>& fn);
  // Live entries (walks the trie).
  uint64_t CountEntries();

  // --- Host-side counters (deterministic; cost nothing in simulated time) ----
  struct HostStats {
    uint64_t inserts_new = 0;
    uint64_t inserts_update = 0;
    uint64_t erases_hit = 0;
    uint64_t erases_miss = 0;
    uint64_t lookup_retries = 0;  // versioned-read validation failures
    uint64_t interior_allocated = 0;
    uint64_t leaf_allocated = 0;  // fresh slots from the bump pointer
    uint64_t leaf_reused = 0;     // slots recycled through the freelist
    uint64_t max_depth = 0;       // deepest leaf level reached by an insert
  };
  const HostStats& host_stats() const { return host_stats_; }

  // Pool geometry, for page-level forensics (tests map these VA ranges to
  // coherent pages and check the detectors attribute them correctly).
  uint32_t interior_base_va() const { return interior_.base_va(); }
  uint32_t interior_words() const { return static_cast<uint32_t>(interior_.size()); }
  uint32_t leaf_base_va() const { return leaf_.base_va(); }
  uint32_t leaf_words() const { return static_cast<uint32_t>(leaf_.size()); }
  vm::AddressSpace* space() const { return interior_.space(); }
  uint32_t interior_slots() const { return interior_slots_; }
  uint32_t leaf_slots() const { return leaf_slots_; }
  // VAs of the trie's internal synchronization words (slice locks, allocator
  // lock, allocator state) — these live on dedicated pages that legitimately
  // ping-pong, and page-forensics tests must attribute them as such.
  std::vector<uint32_t> sync_vas() const {
    std::vector<uint32_t> vas;
    for (const rt::SpinLock& lock : slice_locks_) {
      vas.push_back(lock.va());
    }
    vas.push_back(alloc_lock_.va());
    vas.push_back(alloc_state_.base_va());
    return vas;
  }

 private:
  // Node layout, in 32-bit words.
  //   interior slot: [version, child[0] .. child[kFanout-1]]
  //   leaf slot:     [version, key, value, pad]
  // A child word is 0 (empty) or ((slot + 1) << 1) | is_leaf.
  static constexpr uint32_t kInteriorWords = 1 + kFanout;
  static constexpr uint32_t kLeafWords = 4;
  static constexpr uint32_t kRootSlot = 0;

  static uint32_t Chunk(uint32_t key, int level) {
    return (key >> (level * kStrideBits)) & (kFanout - 1);
  }
  static uint32_t MakeRef(uint32_t slot, bool is_leaf) {
    return ((slot + 1) << 1) | (is_leaf ? 1u : 0u);
  }
  static uint32_t RefSlot(uint32_t ref) { return (ref >> 1) - 1; }
  static bool RefIsLeaf(uint32_t ref) { return (ref & 1) != 0; }

  // Word indices into the pools.
  size_t InteriorWord(uint32_t slot, uint32_t word) const {
    return static_cast<size_t>(slot) * kInteriorWords + word;
  }
  size_t LeafWord(uint32_t slot, uint32_t word) const {
    return static_cast<size_t>(slot) * kLeafWords + word;
  }

  uint32_t GetChild(uint32_t interior_slot, uint32_t idx) {
    return interior_.Get(InteriorWord(interior_slot, 1 + idx));
  }
  void SetChild(uint32_t interior_slot, uint32_t idx, uint32_t ref);

  // Allocation (caller holds the slice lock; these take the allocator lock).
  uint32_t AllocInterior();
  uint32_t AllocLeaf(uint32_t key, uint32_t value);  // published with an even version
  void FreeLeaf(uint32_t slot);                      // caller already unlinked it

  void VisitNode(uint32_t interior_slot,
                 const std::function<void(uint32_t, uint32_t)>& fn);

  kernel::Kernel* kernel_ = nullptr;
  rt::SharedArray<uint32_t> interior_;
  rt::SharedArray<uint32_t> leaf_;
  // [0] interior bump, [1] leaf bump, [2] leaf freelist head (slot + 1; 0 =
  // empty). Mutated only under alloc_lock_.
  rt::SharedArray<uint32_t> alloc_state_;
  std::vector<rt::SpinLock> slice_locks_;  // one per root slot
  rt::SpinLock alloc_lock_;
  uint32_t interior_slots_ = 0;
  uint32_t leaf_slots_ = 0;
  HostStats host_stats_;
};

// The number of interior slots a dense universe [0, max_keys) can ever need:
// one per distinct low-bit prefix shared by at least two keys,
// sum of 16^l over levels l with 16^l < max_keys (see SharedTrie::Create).
uint32_t TrieInteriorSlotsFor(uint32_t max_keys);

// The rank of `key` in SharedTrie::Visit order. Visit is chunk-lexicographic
// with the low nibble consumed first, so the rank is the key with its eight
// nibbles reversed; a host reference can reproduce the visit stream by
// sorting on this.
uint32_t TrieVisitRank(uint32_t key);

}  // namespace platinum::apps

#endif  // SRC_APPS_TRIE_H_
