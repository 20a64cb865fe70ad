// Non-transparent placement hooks (Section 9).
//
// "It is not hard to construct scenarios in which better performance could
// be obtained if the interface between the application and the memory
// management system were not so transparent. The kernel interface will be
// extended to support these... utilized primarily by programming languages
// and their run-time support." These are those hooks: per-page advice that
// overrides the fault-time replication decision, explicit pinning of
// write-shared data, and prefetch-style pre-replication of read-mostly data.
// Pinning and pre-replication make the fault handler's own page moves
// (fault_handler.cc) on request; each hook adds only its preconditions and
// the state it leaves the page in.
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
  Cpage& page = cpages_.at(BoundCpage(cmap(as_id), vpn));
  int initiator = machine_->scheduler().current_processor_or(node);

  std::optional<PhysicalCopy> copy;
  if (!page.HasCopyOn(node)) {
    copy = AllocateFrameOn(page, node, initiator);
    PLAT_CHECK(copy.has_value()) << "target module " << node << " full pinning cpage "
                                 << page.id();
  }
  if (page.state() == CpageState::kEmpty) {
    // Materialize the page directly on the target node.
    Fill(page, copy, initiator);
    page.SetState(CpageState::kPresent1);  // protocol: pin-fill empty -> present1
  } else if (copy.has_value()) {
    // Move the data to the target. This is a deliberate placement change,
    // not coherence interference, so the invalidation history is untouched.
    Migrate(page, *copy, initiator);
    // protocol: pin-migrate present1|present+|modified -> present1
    page.SetState(CpageState::kPresent1);
  } else if (page.copies().size() > 1) {
    // Collapse to the copy already on the target node.
    Collapse(page, node, initiator);
  }

  if (protocol_->UsesFreezing() && !page.frozen()) {
    Freeze(page, initiator);
  }
  Trace(TraceEventType::kPin, page.id(), initiator, static_cast<uint32_t>(node));
  NotifyTransition(ProtocolTrigger::kPin);
}

void CoherentMemory::ReplicateTo(uint32_t as_id, uint32_t vpn, int node) {
  PLAT_CHECK_GE(node, 0);
  PLAT_CHECK_LT(node, machine_->num_nodes());
  Cpage& page = cpages_.at(BoundCpage(cmap(as_id), vpn));
  if (page.state() == CpageState::kEmpty || page.HasCopyOn(node) || page.frozen()) {
    return;
  }
  int initiator = machine_->scheduler().current_processor_or(node);
  std::optional<PhysicalCopy> copy = AllocateFrameOn(page, node, initiator);
  if (!copy.has_value()) {
    return;  // the target module is full
  }
  Replicate(page, *copy, initiator);
  page.SetState(CpageState::kPresentPlus);  // protocol: replicate present1|present+ -> present+
  NotifyTransition(ProtocolTrigger::kReplicateTo);
}

}  // namespace platinum::mem
