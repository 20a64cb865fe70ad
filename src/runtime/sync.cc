#include "src/runtime/sync.h"

#include "src/base/check.h"
#include "src/kernel/thread.h"

namespace platinum::rt {

SpinLock::SpinLock(ZoneAllocator& zone, const std::string& name)
    : kernel_(&zone.kernel()), space_(zone.space()) {
  va_ = zone.AllocWords(name, 1);
  // The lock word synchronizes: test-and-set acquires, the release write
  // publishes (src/check/race_detector.h).
  kernel_->RegisterSyncWords(space_, va_, 1);
}

void SpinLock::Acquire() {
  PLAT_CHECK(kernel_ != nullptr)
      << "Acquire on a default-constructed rt::SpinLock; build it from a "
         "ZoneAllocator (or an existing word) before use";
  SpinBackoff backoff;
  for (;;) {
    if (kernel_->AtomicTestAndSet(space_, va_) == 0) {
      return;
    }
    kernel_->machine().scheduler().Sleep(backoff.Next());
  }
}

void SpinLock::Release() {
  PLAT_CHECK(kernel_ != nullptr)
      << "Release on a default-constructed rt::SpinLock; build it from a "
         "ZoneAllocator (or an existing word) before use";
  kernel_->WriteWord(space_, va_, 0);
}

EventCountArray::EventCountArray(ZoneAllocator& zone, const std::string& name, size_t count)
    : counts_(SharedArray<uint32_t>::Create(zone, name, count)), kernel_(&zone.kernel()) {
  // Advancing a count is a release, awaiting it an acquire.
  kernel_->RegisterSyncWords(counts_.space(), counts_.base_va(),
                             static_cast<uint32_t>(count));
}

void EventCountArray::Advance(size_t index) {
  PLAT_CHECK(kernel_ != nullptr)
      << "Advance on a default-constructed rt::EventCountArray; build it from "
         "a ZoneAllocator before use";
  kernel_->AtomicFetchAdd(counts_.space(), counts_.va(index), 1);
}

uint32_t EventCountArray::Read(size_t index) const {
  PLAT_CHECK(kernel_ != nullptr)
      << "Read on a default-constructed rt::EventCountArray; build it from a "
         "ZoneAllocator before use";
  return counts_.Get(index);
}

void EventCountArray::AwaitAtLeast(size_t index, uint32_t value) const {
  PLAT_CHECK(kernel_ != nullptr)
      << "AwaitAtLeast on a default-constructed rt::EventCountArray; build it "
         "from a ZoneAllocator before use";
  SpinBackoff backoff;
  while (counts_.Get(index) < value) {
    kernel_->machine().scheduler().Sleep(backoff.Next());
  }
}

Barrier::Barrier(ZoneAllocator& zone, const std::string& name, uint32_t parties)
    : kernel_(&zone.kernel()),
      state_(SharedArray<uint32_t>::Create(zone, name, 2)),
      parties_(parties) {
  PLAT_CHECK_GT(parties, 0u);
  // The arrival counter collects every arriver's clock; the sense word
  // redistributes the releaser's (which by then dominates them all).
  kernel_->RegisterSyncWords(state_.space(), state_.base_va(), 2);
}

void Barrier::Wait() {
  PLAT_CHECK(kernel_ != nullptr)
      << "Wait on a default-constructed rt::Barrier; build it from a "
         "ZoneAllocator before use";
  kernel::Thread* thread = kernel_->CurrentThread();
  PLAT_CHECK(thread != nullptr) << "Barrier::Wait outside a thread";
  uint32_t& sense = local_sense_[thread->id()];
  uint32_t waiting_for = 1 - sense;
  sense = waiting_for;

  uint32_t arrived = kernel_->AtomicFetchAdd(state_.space(), state_.va(0), 1) + 1;
  if (arrived == parties_) {
    state_.Set(0, 0);
    state_.Set(1, waiting_for);  // release everyone
    return;
  }
  SpinBackoff backoff;
  while (state_.Get(1) != waiting_for) {
    kernel_->machine().scheduler().Sleep(backoff.Next());
  }
}

}  // namespace platinum::rt
