// User-level synchronization on coherent memory.
//
// Spin locks, event counts and barriers built from shared words, each
// allocated in its own page-aligned zone (Section 6: fine-grain modifiable
// synchronization variables must not share pages with other data — the
// paper's Gaussian-elimination anecdote shows what happens when they do).
// Spinning threads really issue coherent-memory reads, so a frozen
// synchronization page produces exactly the remote-reference traffic the
// paper describes.
#ifndef SRC_RUNTIME_SYNC_H_
#define SRC_RUNTIME_SYNC_H_

#include <cstdint>
#include <string>
#include <unordered_map>

#include "src/base/thread_annotations.h"
#include "src/runtime/shared_array.h"
#include "src/runtime/zone_allocator.h"

namespace platinum::rt {

// Bounded exponential backoff between polls of a spun-on location.
struct SpinBackoff {
  sim::SimTime current = 2 * sim::kMicrosecond;
  sim::SimTime max = 64 * sim::kMicrosecond;

  sim::SimTime Next() {
    sim::SimTime d = current;
    current = current * 2 > max ? max : current * 2;
    return d;
  }
};

// Test-and-set spin lock in a private page.
//
// A *simulated* lock: the lock word lives in coherent memory, acquiring it
// issues real test-and-set references (charged simulated time), and a thread
// holding it may be preempted at a quantum boundary exactly as on the real
// machine. The capability annotations give clang's -Wthread-safety analysis
// acquire/release balance checking; critical sections under a SpinLock are
// *not* no-yield regions (src/base/thread_annotations.h explains the
// asymmetry with base::DisciplineLock).
class CAPABILITY("simulated spin lock") SpinLock {
 public:
  // Default-constructed locks are placeholders (e.g. members initialized
  // later); using one before assignment aborts with a clear message.
  SpinLock() = default;
  SpinLock(ZoneAllocator& zone, const std::string& name);

  void Acquire() ACQUIRE() PLATINUM_MAY_YIELD;  // spins with backoff sleeps
  void Release() RELEASE();
  uint32_t va() const { return va_; }

 private:
  kernel::Kernel* kernel_ = nullptr;
  vm::AddressSpace* space_ = nullptr;
  uint32_t va_ = 0;
};

// An array of event counts (monotone counters); the synchronization
// structure the paper's Gaussian elimination uses to announce pivot rows.
class EventCountArray {
 public:
  EventCountArray() = default;
  EventCountArray(ZoneAllocator& zone, const std::string& name, size_t count);

  void Advance(size_t index);
  uint32_t Read(size_t index) const;
  // Spins (with backoff) until counter `index` reaches at least `value`.
  void AwaitAtLeast(size_t index, uint32_t value) const;

 private:
  SharedArray<uint32_t> counts_;
  kernel::Kernel* kernel_ = nullptr;
};

// Centralized sense-reversing barrier. The arrival counter and sense word
// live on one (synchronization) page; per-thread sense is thread-private.
class Barrier {
 public:
  Barrier() = default;
  Barrier(ZoneAllocator& zone, const std::string& name, uint32_t parties);

  void Wait();
  // VA of the barrier's synchronization page (arrivals/sense words), for
  // attributing page-level telemetry.
  uint32_t base_va() const { return state_.base_va(); }

 private:
  kernel::Kernel* kernel_ = nullptr;
  SharedArray<uint32_t> state_;  // [0] arrivals, [1] sense
  uint32_t parties_ = 0;
  // Thread-private sense flags, keyed by thread id. Host-side state: on the
  // real machine this is a register/private variable and costs nothing.
  mutable std::unordered_map<uint32_t, uint32_t> local_sense_;
};

}  // namespace platinum::rt

#endif  // SRC_RUNTIME_SYNC_H_
