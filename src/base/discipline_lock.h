// Zero-cost lock models for host-side kernel structures.
//
// The simulator is single-threaded: fibers interleave only at explicit
// scheduler switch points, so host C++ structures need no real locking.  But
// the structures *model* kernel data the real PLATINUM kernel protects with
// spin locks — the per-module inverted page table of Section 2.3, the port
// message queues, the defrost list — and the timing model assumes their
// critical sections are atomic.  DisciplineLock makes those critical
// sections explicit without adding run-time cost:
//
//   * clang's -Wthread-safety analysis proves every GUARDED_BY field is
//     touched only between Acquire() and Release();
//   * tools/platlint's `yield-under-lock` rule proves no scheduler switch
//     point is reachable while the lock is held (a switch inside a critical
//     section would let another fiber observe torn state — a bug class the
//     real machine expresses as corruption, and the simulator must not).
//
// Contrast with rt::SpinLock, which is a *simulated* lock living in coherent
// memory: acquiring it costs simulated time and can fault, and holding it
// across a quantum preemption is legal (real machines preempt user threads
// holding user spin locks).
#ifndef SRC_BASE_DISCIPLINE_LOCK_H_
#define SRC_BASE_DISCIPLINE_LOCK_H_

#include "src/base/thread_annotations.h"

namespace platinum::base {

// A compile-time-only capability. Acquire/Release are const so that const
// accessors (e.g. CoherentMemory::frozen_count) can enter the critical
// section.
class CAPABILITY("discipline lock") DisciplineLock {
 public:
  constexpr DisciplineLock() = default;

  DisciplineLock(const DisciplineLock&) = delete;
  DisciplineLock& operator=(const DisciplineLock&) = delete;

  // Stateless, so owners that live in vectors (MemoryModule) stay movable.
  DisciplineLock(DisciplineLock&&) noexcept {}
  DisciplineLock& operator=(DisciplineLock&&) noexcept { return *this; }

  void Acquire() const ACQUIRE() {}
  void Release() const RELEASE() {}
  void AssertHeld() const ASSERT_CAPABILITY(this) {}
};

// RAII holder, for scopes with early returns. tools/platlint treats the
// guard's scope as the critical section.
class SCOPED_CAPABILITY DisciplineGuard {
 public:
  explicit DisciplineGuard(const DisciplineLock& lock) ACQUIRE(lock) : lock_(lock) {
    lock_.Acquire();
  }
  ~DisciplineGuard() RELEASE() { lock_.Release(); }

  DisciplineGuard(const DisciplineGuard&) = delete;
  DisciplineGuard& operator=(const DisciplineGuard&) = delete;

 private:
  const DisciplineLock& lock_;
};

}  // namespace platinum::base

#endif  // SRC_BASE_DISCIPLINE_LOCK_H_
