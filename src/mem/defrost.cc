// The defrost daemon (Section 4.2).
//
// A clock-driven kernel daemon that periodically invalidates all mappings to
// every frozen Cpage and thaws it, so subsequent faults can re-evaluate the
// replication decision — the mechanism that lets the memory system react to
// program phase changes and recover from accidentally frozen pages.
#include <algorithm>
#include <vector>

#include "src/base/check.h"
#include "src/mem/coherent_memory.h"
#include "src/mem/protocol.h"

namespace platinum::mem {

void CoherentMemory::StartDefrostDaemon() {
  if (defrost_daemon_started_) {
    return;
  }
  defrost_daemon_started_ = true;
  machine_->scheduler().Spawn(
      machine_->params().defrost_processor, "defrost-daemon",
      [this] {
        sim::Scheduler& sched = machine_->scheduler();
        const sim::MachineParams& params = machine_->params();
        const sim::SimTime t2 = params.t2_defrost_period_ns;
        for (;;) {
          // The periodic daemon wakes every t2; the adaptive variant wakes at
          // the earliest per-page thaw deadline.
          sim::SimTime now = sched.now();
          sim::SimTime wake = now + t2;
          if (params.adaptive_defrost) {
            // The deadline scan is a critical section; the sleep that follows
            // must happen outside it (release-before-block discipline).
            frozen_lock_.Acquire();
            for (uint32_t id : frozen_list_) {
              sim::SimTime deadline = cpages_.at(id).freeze_time() + t2;
              wake = std::min(wake, std::max(deadline, now + sim::kMillisecond));
            }
            frozen_lock_.Release();
          }
          sched.Sleep(wake - now);
          size_t thawed = params.adaptive_defrost ? ThawExpired(t2) : ThawAllFrozen();
          Trace(TraceEventType::kDefrostScan, kTraceNoCpage, params.defrost_processor,
                static_cast<uint32_t>(thawed));
        }
      },
      /*daemon=*/true);
}

size_t CoherentMemory::ThawExpired(sim::SimTime min_age) {
  sim::SimTime now = machine_->scheduler().now();
  std::vector<uint32_t> expired;
  frozen_lock_.Acquire();
  for (uint32_t id : frozen_list_) {
    const Cpage& page = cpages_.at(id);
    if (now >= page.freeze_time() && now - page.freeze_time() >= min_age) {
      expired.push_back(id);
    }
  }
  frozen_lock_.Release();
  for (uint32_t id : expired) {
    Thaw(id);
  }
  return expired.size();
}

size_t CoherentMemory::ThawAllFrozen() {
  // Thaw the pages frozen when the pass starts. Each stays on the list until
  // Thaw's Unfreeze removes it, so the list matches the frozen flags at every
  // transition hook. Thaw blocks on shootdowns and faults run meanwhile: a
  // page a fault freezes is appended to the list and waits for the next
  // period (unless it is a batch page the pass has not reached yet), and a
  // batch page a fault thaws leaves the list then and is skipped here.
  frozen_lock_.Acquire();
  std::vector<uint32_t> batch = frozen_list_;
  frozen_lock_.Release();
  size_t thawed = 0;
  for (uint32_t id : batch) {
    if (!cpages_.at(id).frozen()) {
      continue;
    }
    Thaw(id);
    ++thawed;
  }
  return thawed;
}

void CoherentMemory::Thaw(uint32_t cpage_id) {
  Cpage& page = cpages_.at(cpage_id);
  if (!page.frozen()) {
    return;
  }
  int initiator =
      machine_->scheduler().current_processor_or(machine_->params().defrost_processor);

  // Invalidate every translation so the next access faults and the policy
  // decides afresh. This is *not* a coherence invalidation: it must not
  // update the page's interference history, or frozen pages would refreeze
  // on their next fault.
  TakeAway(page, Release::kAllMappings, initiator);
  PLAT_CHECK_EQ(page.write_mappings(), 0u);
  if (page.state() == CpageState::kModified) {
    page.SetState(CpageState::kPresent1);  // protocol: thaw-downgrade modified -> present1
  }
  Unfreeze(page);
  NotifyTransition(ProtocolTrigger::kThaw);
}

}  // namespace platinum::mem
