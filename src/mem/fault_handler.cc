// The coherent page fault handler (Sections 3.2 and 3.3).
//
// Every transition of the data-coherency protocol is initiated here, by an
// address-translation or protection fault. On each fault with no local copy
// the replication policy chooses between caching the page locally
// (replicate on a read miss, migrate on a write miss) and creating a mapping
// to an existing remote copy — the mechanism that selectively disables
// caching for actively write-shared pages.
#include <algorithm>
#include <cstring>

#include "src/base/check.h"
#include "src/mem/coherent_memory.h"
#include "src/mem/protocol.h"

namespace platinum::mem {

AccessOutcome CoherentMemory::HandleFault(uint32_t as_id, uint32_t vpn, sim::AccessKind kind) {
  sim::Scheduler& sched = machine_->scheduler();
  const sim::MachineParams& params = machine_->params();
  int processor = sched.current_processor();
  Cmap& cm = cmap(as_id);
  CmapEntry& entry = cm.entry(vpn);

  sim::SimTime fault_entered = sched.now();

  // Trap entry, Cmap lookup, and the fixed handler overhead (Section 4).
  machine_->Compute(params.fault_fixed_ns);
  ++machine_->stats().faults;
  obs::ProcessorCounters& cpu = machine_->obs().cpu(processor);
  ++cpu.faults;
  if (kind == sim::AccessKind::kWrite) {
    ++machine_->stats().write_faults;
    ++cpu.write_faults;
  } else {
    ++machine_->stats().read_faults;
    ++cpu.read_faults;
  }

  if (!entry.bound()) {
    return AccessOutcome::kNoMapping;
  }
  hw::Rights needed =
      kind == sim::AccessKind::kWrite ? hw::Rights::kReadWrite : hw::Rights::kRead;
  if (!Allows(entry.rights, needed)) {
    return AccessOutcome::kProtection;
  }

  Cpage& page = cpages_.at(entry.cpage);
  page.stats().faults += 1;
  if (kind == sim::AccessKind::kWrite) {
    ++page.stats().write_faults;
  } else {
    ++page.stats().read_faults;
  }
  ChargeCpageStructures(page, processor);
  Trace(TraceEventType::kFault, page, processor,
        kind == sim::AccessKind::kWrite ? 1 : 0);

  // Faults on the same Cpage serialize in the handler; this is the contention
  // the paper's post-mortem reports surface for the Gauss pivot rows.
  sim::SimTime now = sched.now();
  if (page.handler_busy_until > now) {
    sim::SimTime wait = page.handler_busy_until - now;
    sched.AdvanceTo(page.handler_busy_until);
    machine_->stats().fault_handler_wait_ns += wait;
    ++page.stats().handler_waits;
    page.stats().handler_wait_ns += wait;
  }

  fault_copy_ns_ = 0;
  AccessOutcome outcome = HandleFaultLocked(cm, entry, page, vpn, kind, processor);
  // The block-transfer portion of the fault runs outside the per-Cpage
  // critical section; concurrent faults on the same page serialize only on
  // the handler bookkeeping (and on the source module's bus, via the
  // interconnect model).
  sim::SimTime handler_end = sched.now();
  page.handler_busy_until =
      handler_end - (fault_copy_ns_ < handler_end ? fault_copy_ns_ : handler_end);
  // Service time as the faulting thread experienced it: trap to resolution,
  // including handler serialization and the block-transfer portion.
  machine_->obs().RecordLatency(obs::HistKind::kFaultService, handler_end - fault_entered);
  PLAT_DCHECK([&] {
    page.CheckInvariants();
    return true;
  }());
  NotifyTransition(kind == sim::AccessKind::kWrite ? "write-fault" : "read-fault");
  return outcome;
}

AccessOutcome CoherentMemory::HandleFaultLocked(Cmap& cm, CmapEntry& entry, Cpage& page,
                                                uint32_t vpn, sim::AccessKind kind,
                                                int processor) {
  // Fault resolution — which copies to make, which to destroy, and what the
  // page's state becomes — belongs to the coherence protocol. The handler
  // above owns everything protocol-independent: trap cost, per-page
  // serialization, tracing, invariant checks.
  if (kind == sim::AccessKind::kRead) {
    protocol_->OnReadFault(cm, entry, page, vpn, processor);
  } else {
    protocol_->OnWriteFault(cm, entry, page, vpn, processor);
  }
  return AccessOutcome::kOk;
}

std::optional<PhysicalCopy> CoherentMemory::AllocateFrame(Cpage& page, int preferred_module) {
  const sim::MachineParams& params = machine_->params();
  int current = machine_->scheduler().current() != nullptr
                    ? machine_->scheduler().current_processor()
                    : preferred_module;

  auto try_module = [&](int module) -> std::optional<PhysicalCopy> {
    if (page.HasCopyOn(module)) {
      return std::nullopt;  // one frame per cpage per module
    }
    auto result = machine_->module(module).AllocFrame(page.id());
    if (!result.has_value()) {
      return std::nullopt;
    }
    // Probing the inverted page table: local references when allocating on
    // the faulting node, remote otherwise.
    sim::SimTime per_probe =
        module == current ? params.local_read_ns : params.remote_read_ns;
    machine_->Compute(static_cast<sim::SimTime>(result->probes) * per_probe);
    ++machine_->obs().module(module).frames_allocated;
    return PhysicalCopy{static_cast<int16_t>(module), result->frame};
  };

  if (auto copy = try_module(preferred_module)) {
    return copy;
  }
  if (page.home_module() != preferred_module) {
    if (auto copy = try_module(page.home_module())) {
      return copy;
    }
  }
  for (int module = 0; module < machine_->num_nodes(); ++module) {
    if (module == preferred_module || module == page.home_module()) {
      continue;
    }
    if (auto copy = try_module(module)) {
      return copy;
    }
  }
  return std::nullopt;
}

PhysicalCopy CoherentMemory::InitialFill(Cpage& page, int processor) {
  std::optional<PhysicalCopy> copy = AllocateFrame(page, processor);
  PLAT_CHECK(copy.has_value()) << "out of physical memory filling cpage " << page.id();
  // A frame freed by another cpage still holds that page's bytes, so zero it;
  // zero-fill is not charged.
  std::memset(machine_->module(copy->module).FrameData(copy->frame), 0,
              machine_->params().page_size_bytes);
  return *copy;
}

void CoherentMemory::CopyInto(Cpage& page, const PhysicalCopy& dst) {
  // "The handler then performs a block transfer from another physical copy"
  // (Section 3.3) — any copy in the directory is a valid source. Picking the
  // least-busy source spreads a burst of replications (all 15 readers of a
  // Gauss pivot row) across the existing replicas instead of serializing
  // every transfer at the original.
  PLAT_CHECK(!page.copies().empty());
  const PhysicalCopy* src = nullptr;
  sim::SimTime best = 0;
  for (const PhysicalCopy& copy : page.copies()) {
    PLAT_CHECK_NE(copy.module, dst.module);
    sim::SimTime busy = machine_->module(copy.module).bus_busy_until;
    if (src == nullptr || busy < best) {
      src = &copy;
      best = busy;
    }
  }
  sim::SimTime before = machine_->scheduler().now();
  machine_->BlockTransferPage(src->module, src->frame, dst.module, dst.frame);
  fault_copy_ns_ += machine_->scheduler().now() - before;
}

void CoherentMemory::FreeCopy(Cpage& page, int module) {
  PhysicalCopy copy = page.RemoveCopy(module);
  machine_->module(module).FreeFrame(copy.frame);
  machine_->Compute(machine_->params().page_free_ns);
  ++machine_->stats().pages_freed;
  ++machine_->obs().module(module).frames_freed;
  int processor = machine_->scheduler().current() != nullptr
                      ? machine_->scheduler().current_processor()
                      : -1;
  if (processor >= 0) {
    ++machine_->obs().cpu(processor).pages_freed;
  }
  Trace(TraceEventType::kPageFree, page, processor, static_cast<uint32_t>(module));
}

bool CoherentMemory::DecideCache(Cpage& page, const FaultInfo& fault, sim::SimTime now) {
  switch (page.advice()) {
    case MemoryAdvice::kReadMostly:
      if (!fault.is_write) {
        return true;
      }
      break;  // writes to read-mostly data fall back to the policy
    case MemoryAdvice::kWriteShared:
      return false;
    case MemoryAdvice::kPrivate:
      return true;
    case MemoryAdvice::kDefault:
      break;
  }
  return policy_->ShouldCache(page, fault, now);
}

void CoherentMemory::MaybeFreeze(Cpage& page) {
  if (!protocol_->UsesFreezing()) {
    return;
  }
  bool wants_freeze =
      policy_->FreezeOnDecline() || page.advice() == MemoryAdvice::kWriteShared;
  if (!wants_freeze || page.frozen()) {
    return;
  }
  // Freezing only makes sense with a single physical copy (Section 4.2:
  // "there can only be one physical page backing a frozen Cpage").
  if (page.copies().size() > 1) {
    return;
  }
  page.SetFrozen(true);
  page.SetFreezeTime(machine_->scheduler().now());
  frozen_lock_.Acquire();
  frozen_list_.push_back(page.id());
  frozen_lock_.Release();
  ++page.stats().freezes;
  ++machine_->stats().freezes;
  int processor = machine_->scheduler().current() != nullptr
                      ? machine_->scheduler().current_processor()
                      : -1;
  Trace(TraceEventType::kFreeze, page, processor, 0);
}

void CoherentMemory::Unfreeze(Cpage& page) {
  PLAT_CHECK(page.frozen());
  page.SetFrozen(false);
  frozen_lock_.Acquire();
  auto it = std::find(frozen_list_.begin(), frozen_list_.end(), page.id());
  PLAT_CHECK(it != frozen_list_.end());
  frozen_list_.erase(it);
  frozen_lock_.Release();
  ++page.stats().thaws;
  ++machine_->stats().thaws;
  int processor = machine_->scheduler().current() != nullptr
                      ? machine_->scheduler().current_processor()
                      : -1;
  Trace(TraceEventType::kThaw, page, processor, 0);
}

}  // namespace platinum::mem
