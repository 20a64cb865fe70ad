// The coherent page fault handler (Sections 3.2 and 3.3).
//
// Every transition of the data-coherency protocol is initiated here, by an
// address-translation or protection fault. On each fault with no local copy
// the replication policy chooses between caching the page locally
// (replicate on a read miss, migrate on a write miss) and creating a mapping
// to an existing remote copy — the mechanism that selectively disables
// caching for actively write-shared pages. This resolution is written once
// for every coherence protocol, and so is taking translations and copies
// away (shootdown.cc); the protocol (protocol.h) supplies only whether that
// waits out leases, what a granted mapping costs, and whether a remote
// reader may share a writer's copy. Each page move (fill, replicate,
// migrate, remote map) is written once below, with its counts and its trace
// event, and the Section 9 hooks (advice.cc) make the same moves.
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
  bool write = kind == sim::AccessKind::kWrite;

  sim::SimTime fault_entered = sched.now();

  // Trap entry, Cmap lookup, and the fixed handler overhead (Section 4).
  machine_->Compute(params.fault_fixed_ns);
  sim::MachineStats& counters = machine_->stats(processor);
  ++counters.faults;
  if (write) {
    ++counters.write_faults;
  } else {
    ++counters.read_faults;
  }

  if (!entry.bound()) {
    return AccessOutcome::kNoMapping;
  }
  hw::Rights needed = write ? hw::Rights::kReadWrite : hw::Rights::kRead;
  if (!Allows(entry.rights, needed)) {
    return AccessOutcome::kProtection;
  }

  Cpage& page = cpages_.at(entry.cpage);
  page.stats().faults += 1;
  if (write) {
    ++page.stats().write_faults;
  } else {
    ++page.stats().read_faults;
  }
  ChargeCpageStructures(page, processor);
  Trace(TraceEventType::kFault, page.id(), processor, write ? 1 : 0);

  // Faults on the same Cpage serialize in the handler; this is the contention
  // the paper's post-mortem reports surface for the Gauss pivot rows.
  sim::SimTime now = sched.now();
  if (page.handler_busy_until > now) {
    sim::SimTime wait = page.handler_busy_until - now;
    sched.AdvanceTo(page.handler_busy_until);
    counters.fault_handler_wait_ns += wait;
    ++page.stats().handler_waits;
    page.stats().handler_wait_ns += wait;
  }

  // Fault resolution decides which copies to make, which to take away and
  // what the page's state becomes; every branch ends in one mapping of the
  // copy it returns, granted by the protocol.
  fault_copy_ns_ = 0;
  PhysicalCopy copy =
      write ? ResolveWriteFault(page, processor) : ResolveReadFault(page, processor);
  EnterMapping(cm, entry, page, vpn, processor, copy, needed);
  protocol_->Granted(page, write);
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
  NotifyTransition(write ? ProtocolTrigger::kWrite : ProtocolTrigger::kRead);
  return AccessOutcome::kOk;
}

PhysicalCopy CoherentMemory::ResolveReadFault(Cpage& page, int processor) {
  if (page.state() == CpageState::kEmpty) {
    PhysicalCopy copy = Fill(page, AllocateFrame(page, processor), processor);
    page.SetState(CpageState::kPresent1);  // protocol: read-fill empty -> present1
    return copy;
  }

  if (page.HasCopyOn(processor)) {
    // A local copy already exists (e.g. through another address space). On
    // the writer's own node the read shares the single writable copy.
    return LocalCopy(page, processor);
  }

  bool cache = DecideCache(page, /*is_write=*/false, machine_->scheduler().now());
  std::optional<PhysicalCopy> frame = cache ? AllocateFrame(page, processor) : std::nullopt;
  if (frame.has_value()) {
    if (page.frozen()) {
      Unfreeze(page);
    }
    Replicate(page, *frame, processor);
    page.SetState(CpageState::kPresentPlus);  // protocol: replicate present1|present+ -> present+
    return *frame;
  }

  // Remote mapping to an existing copy. A read mapping never breaks
  // coherence, but a protocol whose readers may not run beside a live
  // writer downgrades the writer first.
  if (page.state() == CpageState::kModified && !protocol_->RemoteReadSharesWriter()) {
    DowngradeToRead(page, processor);
  }
  return MapRemote(page, processor, /*declined=*/!cache);
}

PhysicalCopy CoherentMemory::ResolveWriteFault(Cpage& page, int processor) {
  sim::Scheduler& sched = machine_->scheduler();

  if (page.state() == CpageState::kEmpty) {
    PhysicalCopy copy = Fill(page, AllocateFrame(page, processor), processor);
    page.SetState(CpageState::kModified);  // protocol: write-fill empty -> modified
    return copy;
  }

  if (page.HasCopyOn(processor)) {
    PhysicalCopy local = LocalCopy(page, processor);
    if (page.state() == CpageState::kPresentPlus) {
      // present+ -> modified: take away every remote copy and its
      // translations (Section 3.3) — coherence interference the replication
      // policy should know about.
      Collapse(page, processor, processor);
      page.RecordInvalidation(sched.now());
      ++page.stats().invalidation_rounds;
    }
    // present1 -> modified needs neither invalidation nor reclamation — the
    // reason the protocol distinguishes the two states (Section 3.2).
    page.SetState(CpageState::kModified);  // protocol: upgrade present1|modified -> modified
    return local;
  }

  // No local copy: migrate or map the remote copy for writing.
  bool cache = DecideCache(page, /*is_write=*/true, sched.now());
  std::optional<PhysicalCopy> frame = cache ? AllocateFrame(page, processor) : std::nullopt;
  if (frame.has_value()) {
    if (page.frozen()) {
      Unfreeze(page);
    }
    if (Migrate(page, *frame, processor) > 0) {
      // Someone else lost a translation: interprocessor interference the
      // replication policy should know about.
      page.RecordInvalidation(sched.now());
      ++page.stats().invalidation_rounds;
    }
    // protocol: migrate present1|present+|modified -> modified
    page.SetState(CpageState::kModified);
    return *frame;
  }

  // Remote write mapping. Writes require a single physical copy, so a
  // replicated page first collapses to one.
  if (page.state() == CpageState::kPresentPlus &&
      Collapse(page, page.PrimaryCopy().module, processor) > 0) {
    page.RecordInvalidation(sched.now());
    ++page.stats().invalidation_rounds;
  }
  page.SetState(CpageState::kModified);  // protocol: upgrade present1|modified -> modified
  return MapRemote(page, processor, /*declined=*/!cache);
}

PhysicalCopy CoherentMemory::Fill(Cpage& page, std::optional<PhysicalCopy> frame,
                                  int initiator) {
  PLAT_CHECK(frame.has_value()) << "out of physical memory filling cpage " << page.id();
  // A frame freed by another cpage still holds that page's bytes, so zero it;
  // zero-fill is not charged.
  std::memset(machine_->module(frame->module).FrameData(frame->frame), 0,
              machine_->params().page_size_bytes);
  page.AddCopy(*frame);
  ++machine_->stats(initiator).initial_fills;
  Trace(TraceEventType::kFill, page.id(), initiator, static_cast<uint32_t>(frame->module));
  return *frame;
}

void CoherentMemory::Replicate(Cpage& page, const PhysicalCopy& dst, int initiator) {
  // A modified source must first be restricted to read-only so the copy
  // cannot go stale mid-flight (modified -> present1 -> present+).
  if (page.state() == CpageState::kModified) {
    DowngradeToRead(page, initiator);
  }
  CopyInto(page, dst);
  page.AddCopy(dst);
  ++page.stats().replications;
  ++machine_->stats(initiator).replications;
  Trace(TraceEventType::kReplicate, page.id(), initiator, static_cast<uint32_t>(dst.module));
}

uint32_t CoherentMemory::Migrate(Cpage& page, const PhysicalCopy& dst, int initiator) {
  // Take away every translation to the old copies, block-transfer the data,
  // then reclaim the old frames.
  uint32_t released = TakeAway(page, Release::kAllMappings, initiator);
  PLAT_CHECK_EQ(page.write_mappings(), 0u);
  CopyInto(page, dst);
  while (!page.copies().empty()) {
    FreeCopy(page, page.copies().front().module);
  }
  page.AddCopy(dst);
  ++page.stats().migrations;
  ++machine_->stats(initiator).migrations;
  Trace(TraceEventType::kMigrate, page.id(), initiator, static_cast<uint32_t>(dst.module));
  return released;
}

PhysicalCopy CoherentMemory::MapRemote(Cpage& page, int processor, bool declined) {
  PhysicalCopy copy = page.PrimaryCopy();
  ++page.stats().remote_maps;
  ++machine_->stats(processor).remote_maps;
  Trace(TraceEventType::kRemoteMap, page.id(), processor, static_cast<uint32_t>(copy.module));
  if (declined) {
    MaybeFreeze(page);
  }
  return copy;
}

PhysicalCopy CoherentMemory::LocalCopy(const Cpage& page, int processor) {
  // The handler locates the copy through the local inverted page table —
  // strictly local references (Section 3.3).
  auto probe = machine_->module(processor).FindFrame(page.id());
  PLAT_CHECK(probe.has_value()) << "directory says module " << processor << " backs cpage "
                                << page.id() << " but no frame found";
  machine_->Compute(static_cast<sim::SimTime>(probe->probes) *
                    machine_->params().local_read_ns);
  return PhysicalCopy{static_cast<int16_t>(processor), probe->frame};
}

std::optional<PhysicalCopy> CoherentMemory::AllocateFrame(Cpage& page, int preferred_module) {
  int requester = machine_->scheduler().current_processor_or(preferred_module);
  if (auto copy = AllocateFrameOn(page, preferred_module, requester)) {
    return copy;
  }
  if (page.home_module() != preferred_module) {
    if (auto copy = AllocateFrameOn(page, page.home_module(), requester)) {
      return copy;
    }
  }
  for (int module = 0; module < machine_->num_nodes(); ++module) {
    if (module == preferred_module || module == page.home_module()) {
      continue;
    }
    if (auto copy = AllocateFrameOn(page, module, requester)) {
      return copy;
    }
  }
  return std::nullopt;
}

std::optional<PhysicalCopy> CoherentMemory::AllocateFrameOn(Cpage& page, int module,
                                                            int requester) {
  if (page.HasCopyOn(module)) {
    return std::nullopt;  // one frame per cpage per module
  }
  auto result = machine_->module(module).AllocFrame(page.id());
  if (!result.has_value()) {
    return std::nullopt;
  }
  // Probing the inverted page table: local references when allocating on the
  // requester's node, remote otherwise.
  const sim::MachineParams& params = machine_->params();
  sim::SimTime per_probe = module == requester ? params.local_read_ns : params.remote_read_ns;
  machine_->Compute(static_cast<sim::SimTime>(result->probes) * per_probe);
  ++machine_->obs().module(module).frames_allocated;
  return PhysicalCopy{static_cast<int16_t>(module), result->frame};
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
  int processor = machine_->scheduler().current_processor_or(-1);
  ++machine_->stats(processor).pages_freed;
  ++machine_->obs().module(module).frames_freed;
  Trace(TraceEventType::kPageFree, page.id(), processor, static_cast<uint32_t>(module),
        TakeCopyReads(module, copy.frame));
}

bool CoherentMemory::DecideCache(const Cpage& page, bool is_write, sim::SimTime now) {
  switch (page.advice()) {
    case MemoryAdvice::kReadMostly:
      if (!is_write) {
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
  return policy_->ShouldCache(page, is_write, now);
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
  Freeze(page, machine_->scheduler().current_processor_or(-1));
}

void CoherentMemory::Freeze(Cpage& page, int processor) {
  PLAT_CHECK(!page.frozen());
  page.SetFrozen(true);
  page.SetFreezeTime(machine_->scheduler().now());
  frozen_lock_.Acquire();
  frozen_list_.push_back(page.id());
  frozen_lock_.Release();
  ++page.stats().freezes;
  ++machine_->stats(processor).freezes;
  Trace(TraceEventType::kFreeze, page.id(), processor, 0);
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
  int processor = machine_->scheduler().current_processor_or(-1);
  ++machine_->stats(processor).thaws;
  Trace(TraceEventType::kThaw, page.id(), processor, 0);
}

}  // namespace platinum::mem
