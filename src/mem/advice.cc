// Non-transparent placement hooks (Section 9).
//
// "It is not hard to construct scenarios in which better performance could
// be obtained if the interface between the application and the memory
// management system were not so transparent. The kernel interface will be
// extended to support these... utilized primarily by programming languages
// and their run-time support." These are those hooks: per-page advice that
// overrides the fault-time replication decision, explicit pinning of
// write-shared data, and prefetch-style pre-replication of read-mostly data.
#include <cstring>

#include "src/base/check.h"
#include "src/mem/coherent_memory.h"
#include "src/mem/protocol.h"

namespace platinum::mem {

namespace {

// Resolves (as, vpn) to its coherent page; the binding must exist.
uint32_t BoundCpage(Cmap& cm, uint32_t vpn) {
  const CmapEntry& entry = cm.entry(vpn);
  PLAT_CHECK(entry.bound()) << "advice on unbound vpn " << vpn;
  return entry.cpage;
}

}  // namespace

void CoherentMemory::Advise(uint32_t as_id, uint32_t vpn, uint32_t npages,
                            MemoryAdvice advice) {
  Cmap& cm = cmap(as_id);
  for (uint32_t i = 0; i < npages; ++i) {
    cpages_.at(BoundCpage(cm, vpn + i)).SetAdvice(advice);
  }
}

void CoherentMemory::PinTo(uint32_t as_id, uint32_t vpn, int node) {
  PLAT_CHECK_GE(node, 0);
  PLAT_CHECK_LT(node, machine_->num_nodes());
  Cmap& cm = cmap(as_id);
  Cpage& page = cpages_.at(BoundCpage(cm, vpn));
  int initiator = machine_->scheduler().current_processor_or(node);

  std::optional<PhysicalCopy> copy;
  if (!page.HasCopyOn(node)) {
    copy = AllocateFrameOn(page, node, initiator);
    PLAT_CHECK(copy.has_value()) << "target module " << node << " full pinning cpage "
                                 << page.id();
  }
  if (page.state() == CpageState::kEmpty) {
    // Materialize the page directly on the target node.
    std::memset(machine_->module(copy->module).FrameData(copy->frame), 0,
                machine_->params().page_size_bytes);
    page.AddCopy(*copy);
    page.SetState(CpageState::kPresent1);  // protocol: pin-fill empty -> present1
    ++machine_->stats(initiator).initial_fills;
  } else if (copy.has_value()) {
    // Move the data: invalidate every translation, copy to the target,
    // reclaim the old frames. This is a deliberate placement change, not
    // coherence interference, so the invalidation history is untouched.
    TakeAway(page, Release::kAllMappings, initiator);
    CopyInto(page, *copy);
    while (!page.copies().empty()) {
      FreeCopy(page, page.copies().front().module);
    }
    page.AddCopy(*copy);
    page.ClearWriteMappings();
    // protocol: pin-migrate present1|present+|modified -> present1
    page.SetState(CpageState::kPresent1);
    ++page.stats().migrations;
    ++machine_->stats(initiator).migrations;
    Trace(TraceEventType::kMigrate, page, initiator, static_cast<uint32_t>(node));
  } else if (page.copies().size() > 1) {
    // Collapse to the copy already on the target node.
    Collapse(page, node, initiator);
  }

  if (protocol_->UsesFreezing() && !page.frozen()) {
    Freeze(page, initiator);
  }
  Trace(TraceEventType::kPin, page, initiator, static_cast<uint32_t>(node));
  NotifyTransition(ProtocolTrigger::kPin);
}

void CoherentMemory::ReplicateTo(uint32_t as_id, uint32_t vpn, int node) {
  PLAT_CHECK_GE(node, 0);
  PLAT_CHECK_LT(node, machine_->num_nodes());
  Cmap& cm = cmap(as_id);
  Cpage& page = cpages_.at(BoundCpage(cm, vpn));
  if (page.state() == CpageState::kEmpty || page.HasCopyOn(node) || page.frozen()) {
    return;
  }
  int initiator = machine_->scheduler().current_processor_or(node);
  std::optional<PhysicalCopy> copy = AllocateFrameOn(page, node, initiator);
  if (!copy.has_value()) {
    return;  // the target module is full
  }
  if (page.state() == CpageState::kModified) {
    DowngradeToRead(page, initiator);
  }
  CopyInto(page, *copy);
  page.AddCopy(*copy);
  page.SetState(CpageState::kPresentPlus);  // protocol: replicate present1|present+ -> present+
  ++page.stats().replications;
  ++machine_->stats(initiator).replications;
  Trace(TraceEventType::kReplicate, page, initiator, static_cast<uint32_t>(node));
  NotifyTransition(ProtocolTrigger::kReplicateTo);
}

}  // namespace platinum::mem
