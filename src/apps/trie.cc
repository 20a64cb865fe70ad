#include "src/apps/trie.h"

#include <string>

#include "src/base/check.h"

namespace platinum::apps {

uint32_t TrieInteriorSlotsFor(uint32_t max_keys) {
  // A level-l interior node exists only when two distinct keys of the dense
  // universe [0, max_keys) share their low l chunks, i.e. when 16^l <
  // max_keys; there are then exactly 16^l distinct prefixes at that level.
  uint64_t slots = 0;
  for (uint64_t level_nodes = 1; level_nodes < max_keys; level_nodes *= SharedTrie::kFanout) {
    slots += level_nodes;
  }
  // Small slack so an off-by-one in a future key-universe tweak aborts in
  // AllocInterior with a clear message instead of corrupting a neighbor zone.
  return static_cast<uint32_t>(slots) + 8;
}

uint32_t TrieVisitRank(uint32_t key) {
  key = ((key & 0x0F0F0F0Fu) << 4) | ((key >> 4) & 0x0F0F0F0Fu);
  key = ((key & 0x00FF00FFu) << 8) | ((key >> 8) & 0x00FF00FFu);
  return (key << 16) | (key >> 16);
}

SharedTrie SharedTrie::Create(rt::ZoneAllocator& zone, const Options& options) {
  PLAT_CHECK_GE(options.max_keys, 2u);
  PLAT_CHECK((options.max_keys & (options.max_keys - 1)) == 0)
      << "trie key universe must be a power of two";

  SharedTrie t;
  t.kernel_ = &zone.kernel();
  t.interior_slots_ = TrieInteriorSlotsFor(options.max_keys);
  // At most max_keys live leaves; freed slots recycle through the freelist.
  t.leaf_slots_ = options.max_keys + 8;
  t.interior_ = rt::SharedArray<uint32_t>::Create(
      zone, "trie-interior", static_cast<size_t>(t.interior_slots_) * kInteriorWords);
  t.leaf_ = rt::SharedArray<uint32_t>::Create(
      zone, "trie-leaf", static_cast<size_t>(t.leaf_slots_) * kLeafWords);
  t.alloc_state_ = rt::SharedArray<uint32_t>::Create(zone, "trie-alloc", 3);
  t.slice_locks_.reserve(kFanout);
  for (uint32_t s = 0; s < kFanout; ++s) {
    t.slice_locks_.emplace_back(zone, "trie-slice-lock-" + std::to_string(s));
  }
  t.alloc_lock_ = rt::SpinLock(zone, "trie-alloc-lock");

  kernel::Kernel& kernel = zone.kernel();
  vm::AddressSpace* space = zone.space();
  // Version words synchronize (release on the writer's closing increment,
  // acquire on a reader's validation); the node payloads are shared
  // intentionally — the version protocol detects and retries racing reads.
  for (uint32_t slot = 0; slot < t.interior_slots_; ++slot) {
    kernel.RegisterSyncWords(space, t.interior_.va(t.InteriorWord(slot, 0)), 1);
    kernel.AnnotateIntentionalSharing(space, t.interior_.va(t.InteriorWord(slot, 1)),
                                      kFanout * 4);
  }
  for (uint32_t slot = 0; slot < t.leaf_slots_; ++slot) {
    kernel.RegisterSyncWords(space, t.leaf_.va(t.LeafWord(slot, 0)), 1);
    kernel.AnnotateIntentionalSharing(space, t.leaf_.va(t.LeafWord(slot, 1)),
                                      (kLeafWords - 1) * 4);
  }
  if (options.advise) {
    kernel.AdviseMemory(space, t.interior_.base_va(),
                        static_cast<uint32_t>(t.interior_.size()) * 4,
                        mem::MemoryAdvice::kReadMostly);
    kernel.AdviseMemory(space, t.leaf_.base_va(), static_cast<uint32_t>(t.leaf_.size()) * 4,
                        mem::MemoryAdvice::kWriteShared);
  }

  // No simulated writes here: Create runs during machine setup, outside any
  // fiber. Fresh zone pages are zero-filled, and the allocator words are
  // encoded so all-zeros is the initial state — the root's children start
  // empty, every version word starts even (stable), the leaf bump and
  // freelist start at zero, and the interior bump counts allocations
  // *beyond* the root (slot 0 is taken at birth).
  return t;
}

void SharedTrie::SetChild(uint32_t interior_slot, uint32_t idx, uint32_t ref) {
  // Bump the interior version around the single-word child swap. Lookups do
  // not validate interior nodes (the swap is atomic and interiors are never
  // recycled, the fib_trie argument); the version still brackets every
  // structural mutation for forensics and future node contraction.
  uint32_t version = interior_.Get(InteriorWord(interior_slot, 0));
  interior_.Set(InteriorWord(interior_slot, 0), version + 1);
  interior_.Set(InteriorWord(interior_slot, 1 + idx), ref);
  interior_.Set(InteriorWord(interior_slot, 0), version + 2);
}

uint32_t SharedTrie::AllocInterior() {
  alloc_lock_.Acquire();
  uint32_t slot = alloc_state_.Get(0) + 1;  // slot 0 is the root, taken at birth
  PLAT_CHECK_LT(slot, interior_slots_)
      << "trie interior pool exhausted; keys outside [0, max_keys)?";
  alloc_state_.Set(0, slot);
  alloc_lock_.Release();
  ++host_stats_.interior_allocated;
  return slot;
}

uint32_t SharedTrie::AllocLeaf(uint32_t key, uint32_t value) {
  alloc_lock_.Acquire();
  uint32_t slot;
  uint32_t free_head = alloc_state_.Get(2);
  if (free_head != 0) {
    slot = free_head - 1;
    alloc_state_.Set(2, leaf_.Get(LeafWord(slot, 1)));  // next link lives in the key word
    ++host_stats_.leaf_reused;
  } else {
    slot = alloc_state_.Get(1);
    PLAT_CHECK_LT(slot, leaf_slots_) << "trie leaf pool exhausted";
    alloc_state_.Set(1, slot + 1);
    ++host_stats_.leaf_allocated;
  }
  alloc_lock_.Release();
  // Initialize before publication. A recycled slot's version is odd (made so
  // by FreeLeaf), so a reader still holding the stale child reference keeps
  // retrying; the closing increment below returns it to even = stable.
  leaf_.Set(LeafWord(slot, 1), key);
  leaf_.Set(LeafWord(slot, 2), value);
  uint32_t version = leaf_.Get(LeafWord(slot, 0));
  if ((version & 1) != 0) {
    leaf_.Set(LeafWord(slot, 0), version + 1);
  }
  return slot;
}

void SharedTrie::FreeLeaf(uint32_t slot) {
  // The caller already unlinked the leaf from its parent; mark it unstable
  // so readers that raced the unlink discard what they read.
  uint32_t version = leaf_.Get(LeafWord(slot, 0));
  leaf_.Set(LeafWord(slot, 0), version + 1);
  alloc_lock_.Acquire();
  leaf_.Set(LeafWord(slot, 1), alloc_state_.Get(2));
  alloc_state_.Set(2, slot + 1);
  alloc_lock_.Release();
}

bool SharedTrie::Lookup(uint32_t key, uint32_t* value) {
  rt::SpinBackoff backoff;
  for (;;) {
    uint32_t node = kRootSlot;
    int level = 0;
    for (;;) {
      uint32_t ref = GetChild(node, Chunk(key, level));
      if (ref == 0) {
        return false;
      }
      if (!RefIsLeaf(ref)) {
        node = RefSlot(ref);
        ++level;
        PLAT_DCHECK(level < kMaxLevels);
        continue;
      }
      // Versioned leaf read: version, payload, version again. An odd or
      // changed version means the leaf was rewritten, freed or recycled
      // underneath us; restart the descent from the root (the path itself
      // may have changed).
      uint32_t slot = RefSlot(ref);
      uint32_t v1 = leaf_.Get(LeafWord(slot, 0));
      if ((v1 & 1) != 0) {
        break;
      }
      uint32_t leaf_key = leaf_.Get(LeafWord(slot, 1));
      uint32_t leaf_value = leaf_.Get(LeafWord(slot, 2));
      uint32_t v2 = leaf_.Get(LeafWord(slot, 0));
      if (v1 != v2) {
        break;
      }
      if (leaf_key != key) {
        return false;
      }
      *value = leaf_value;
      return true;
    }
    ++host_stats_.lookup_retries;
    kernel_->machine().scheduler().Sleep(backoff.Next());
  }
}

bool SharedTrie::Insert(uint32_t key, uint32_t value) {
  rt::SpinLock& lock = slice_locks_[Chunk(key, 0)];
  lock.Acquire();
  bool inserted = false;
  uint32_t node = kRootSlot;
  int level = 0;
  for (;;) {
    uint32_t idx = Chunk(key, level);
    uint32_t ref = GetChild(node, idx);
    if (ref == 0) {
      SetChild(node, idx, MakeRef(AllocLeaf(key, value), true));
      inserted = true;
      break;
    }
    if (!RefIsLeaf(ref)) {
      node = RefSlot(ref);
      ++level;
      PLAT_CHECK_LT(level, kMaxLevels);
      continue;
    }
    uint32_t slot = RefSlot(ref);
    uint32_t existing_key = leaf_.Get(LeafWord(slot, 1));  // stable under the slice lock
    if (existing_key == key) {
      // In-place overwrite under the version protocol.
      uint32_t version = leaf_.Get(LeafWord(slot, 0));
      leaf_.Set(LeafWord(slot, 0), version + 1);
      leaf_.Set(LeafWord(slot, 2), value);
      leaf_.Set(LeafWord(slot, 0), version + 2);
      ++host_stats_.inserts_update;
      lock.Release();
      return false;
    }
    // Two keys collide on this slot: grow a chain of interior nodes down to
    // their first differing chunk, off to the side, then publish the chain
    // head with one child swap. Readers see the old leaf or the whole chain.
    int depth = level + 1;
    uint32_t chain_head = AllocInterior();
    uint32_t chain_tail = chain_head;
    while (Chunk(existing_key, depth) == Chunk(key, depth)) {
      PLAT_CHECK_LT(depth, kMaxLevels - 1);
      uint32_t next = AllocInterior();
      SetChild(chain_tail, Chunk(key, depth), MakeRef(next, false));
      chain_tail = next;
      ++depth;
    }
    SetChild(chain_tail, Chunk(existing_key, depth), ref);
    SetChild(chain_tail, Chunk(key, depth), MakeRef(AllocLeaf(key, value), true));
    SetChild(node, idx, MakeRef(chain_head, false));
    level = depth;
    inserted = true;
    break;
  }
  if (static_cast<uint64_t>(level) > host_stats_.max_depth) {
    host_stats_.max_depth = static_cast<uint64_t>(level);
  }
  ++host_stats_.inserts_new;
  lock.Release();
  return inserted;
}

bool SharedTrie::Erase(uint32_t key) {
  rt::SpinLock& lock = slice_locks_[Chunk(key, 0)];
  lock.Acquire();
  uint32_t node = kRootSlot;
  int level = 0;
  for (;;) {
    uint32_t idx = Chunk(key, level);
    uint32_t ref = GetChild(node, idx);
    if (ref == 0) {
      ++host_stats_.erases_miss;
      lock.Release();
      return false;
    }
    if (!RefIsLeaf(ref)) {
      node = RefSlot(ref);
      ++level;
      PLAT_CHECK_LT(level, kMaxLevels);
      continue;
    }
    uint32_t slot = RefSlot(ref);
    if (leaf_.Get(LeafWord(slot, 1)) != key) {
      ++host_stats_.erases_miss;
      lock.Release();
      return false;
    }
    // Unlink first, then destabilize: a reader that fetched the child word
    // before the unlink validates against the odd version and retries.
    // Interior chains are deliberately not contracted (fib_trie resizes
    // lazily too); the pool bound is the dense-universe prefix count, which
    // deletion cannot grow.
    SetChild(node, idx, 0);
    FreeLeaf(slot);
    ++host_stats_.erases_hit;
    lock.Release();
    return true;
  }
}

void SharedTrie::VisitNode(uint32_t interior_slot,
                           const std::function<void(uint32_t, uint32_t)>& fn) {
  for (uint32_t idx = 0; idx < kFanout; ++idx) {
    uint32_t ref = GetChild(interior_slot, idx);
    if (ref == 0) {
      continue;
    }
    if (RefIsLeaf(ref)) {
      uint32_t slot = RefSlot(ref);
      fn(leaf_.Get(LeafWord(slot, 1)), leaf_.Get(LeafWord(slot, 2)));
    } else {
      VisitNode(RefSlot(ref), fn);
    }
  }
}

void SharedTrie::Visit(const std::function<void(uint32_t, uint32_t)>& fn) {
  VisitNode(kRootSlot, fn);
}

uint64_t SharedTrie::CountEntries() {
  uint64_t count = 0;
  Visit([&count](uint32_t, uint32_t) { ++count; });
  return count;
}

}  // namespace platinum::apps
