#include "src/check/oracle.h"

#include "src/base/check.h"
#include "src/mem/protocol.h"

namespace platinum::check {

InvariantOracle::InvariantOracle(mem::CoherentMemory* memory)
    : memory_(memory), kind_(mem::ProtocolKind::kDirectory) {
  PLAT_CHECK(memory_ != nullptr);
  kind_ = memory_->protocol().kind();
  // Transitions completed before the oracle attached are not re-validated;
  // the shadow starts from the current directory state.
  const mem::CpageTable& pages = memory_->cpages();
  shadow_states_.reserve(pages.size());
  for (uint32_t id = 0; id < pages.size(); ++id) {
    shadow_states_.push_back(pages.at(id).state());
  }
  memory_->SetTransitionHook([this](mem::ProtocolTrigger trigger) {
    ++transitions_checked_;
    // The spec check runs first: an unknown (trigger, from, to) edge is
    // reported as a protocol-spec violation even when the resulting state
    // also breaks a structural invariant.
    CheckTransitionEdges(trigger);
    // PLAT_CHECK inside CheckInvariants aborts with the violated invariant;
    // the trigger locates the offending protocol step.
    memory_->CheckInvariants();
  });
}

InvariantOracle::~InvariantOracle() { memory_->SetTransitionHook(nullptr); }

void InvariantOracle::CheckNow() { memory_->CheckInvariants(); }

void InvariantOracle::CheckTransitionEdges(mem::ProtocolTrigger trigger) {
  const mem::CpageTable& pages = memory_->cpages();
  uint32_t n = pages.size();
  if (shadow_states_.size() < n) {
    // Cpages are created empty; transitions away from empty notify.
    shadow_states_.resize(n, mem::CpageState::kEmpty);
  }
  for (uint32_t id = 0; id < n; ++id) {
    mem::CpageState from = shadow_states_[id];
    mem::CpageState to = pages.at(id).state();
    if (from == to) {
      continue;
    }
    PLAT_CHECK(mem::ProtocolAllowsEdge(kind_, trigger, from, to))
        << "protocol-spec violation: cpage " << id << " moved " << mem::CpageStateName(from)
        << " -> " << mem::CpageStateName(to) << " under trigger '"
        << mem::ProtocolTriggerName(trigger) << "' but the "
        << mem::ProtocolKindName(kind_) << " spec has no such row";
    shadow_states_[id] = to;
  }
}

}  // namespace platinum::check
