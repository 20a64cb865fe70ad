#include "src/obs/scope.h"

#include <utility>

namespace platinum::obs {

ObsScope::ObsScope(sim::Machine& machine, std::string name)
    : machine_(machine), name_(std::move(name)) {
  const sim::Scheduler& sched = machine_.scheduler();
  processor_ = static_cast<int16_t>(sched.current_processor_or(-1));
  thread_ = sched.current() != nullptr ? sched.current()->id() : 0;
  begin_ = sched.now();
}

ObsScope::~ObsScope() {
  machine_.obs().RecordSpan(
      Span{std::move(name_), processor_, thread_, begin_, machine_.scheduler().now()});
}

PhaseMarker::PhaseMarker(sim::Machine& machine, std::string name) : machine_(machine) {
  machine_.obs().BeginPhase(std::move(name), machine_.scheduler().now(), machine_.stats());
}

PhaseMarker::~PhaseMarker() {
  machine_.obs().EndPhase(machine_.scheduler().now(), machine_.stats());
}

}  // namespace platinum::obs
