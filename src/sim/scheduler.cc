#include "src/sim/scheduler.h"

#include <algorithm>
#include <utility>

#include "src/base/check.h"

namespace platinum::sim {

thread_local Scheduler* Scheduler::active_ = nullptr;

Scheduler::Scheduler(int num_processors, SimTime quantum)
    : quantum_(quantum),
      processor_available_(num_processors, 0),
      pending_interrupt_cost_(num_processors, 0) {
  PLAT_CHECK_GT(num_processors, 0);
  PLAT_CHECK_GT(quantum, SimTime{0});
}

Scheduler::~Scheduler() = default;

Fiber* Scheduler::Spawn(int processor, std::string name, std::function<void()> body,
                        bool daemon) {
  PLAT_CHECK_GE(processor, 0);
  PLAT_CHECK_LT(processor, num_processors());
  auto fiber = std::make_unique<Fiber>(static_cast<uint32_t>(fibers_.size()), processor,
                                       std::move(name), std::move(body), daemon,
                                       &Scheduler::Trampoline);
  Fiber* raw = fiber.get();
  // A fiber spawned by a running fiber cannot begin before its spawner's
  // current virtual time.
  raw->clock_ = (current_ != nullptr) ? current_->clock_ : global_now_;
  fibers_.push_back(std::move(fiber));
  if (!daemon) {
    ++live_non_daemon_;
  }
  MakeReady(raw);
  return raw;
}

void Scheduler::MakeReady(Fiber* fiber) {
  fiber->state_ = Fiber::State::kReady;
  ready_.push(ReadyEntry{fiber->clock_, next_seq_++, fiber});
}

Fiber* Scheduler::PickNext() {
  if (live_non_daemon_ == 0) {
    return nullptr;
  }
  PLAT_CHECK(!ready_.empty()) << "deadlock: " << live_non_daemon_
                              << " non-daemon fibers alive but none runnable";
  Fiber* fiber = ready_.top().fiber;
  ready_.pop();
  PLAT_CHECK(fiber->state_ == Fiber::State::kReady);

  // Serialize fibers sharing a processor, and deliver any pending interrupt
  // handling cost to whoever occupies the node next.
  int processor = fiber->processor_;
  SimTime start = std::max(fiber->clock_, processor_available_[processor]);
  start += pending_interrupt_cost_[processor];
  pending_interrupt_cost_[processor] = 0;

  fiber->clock_ = start;
  fiber->resumed_at_ = start;
  fiber->state_ = Fiber::State::kRunning;
  BumpGlobalNow(start);
  ++switches_;
  return fiber;
}

void Scheduler::Run() {
  PLAT_CHECK(!running_) << "Run() is not reentrant";
  PLAT_CHECK(current_ == nullptr);
  running_ = true;
  Scheduler* previous_active = active_;
  active_ = this;

  // Start the first fiber; from then on the fibers hand the host thread to
  // each other, and the last one hands it back here.
  current_ = PickNext();
  if (current_ != nullptr) {
    SwitchContext(main_context_, current_->context_);
  }

  active_ = previous_active;
  running_ = false;
}

void Scheduler::Trampoline() {
  PLAT_CHECK(active_ != nullptr);
  active_->RunFiberBody();
}

void Scheduler::RunFiberBody() {
  Fiber* self = current_;
  PLAT_CHECK(self != nullptr);
  self->body_();
  FinishCurrent();
  PLAT_CHECK(false) << "resumed a finished fiber";
}

void Scheduler::FinishCurrent() {
  Fiber* self = current_;
  self->state_ = Fiber::State::kDone;
  if (!self->daemon_) {
    --live_non_daemon_;
  }
  for (Fiber* joiner : self->joiners_) {
    Wake(joiner, self->clock_);
  }
  self->joiners_.clear();
  HandOff(self->processor_, self->clock_, /*exits=*/true);
}

void Scheduler::AdvanceTo(SimTime t) {
  if (current_ == nullptr) {
    return;
  }
  current_->clock_ = std::max(current_->clock_, t);
}

void Scheduler::Yield() {
  Fiber* self = current_;
  PLAT_CHECK(self != nullptr);
  MakeReady(self);
  HandOff(self->processor_, self->clock_);
}

void Scheduler::Sleep(SimTime duration) {
  Fiber* self = current_;
  PLAT_CHECK(self != nullptr);
  // The processor is free while this fiber sleeps.
  SimTime release = self->clock_;
  self->clock_ += duration;
  MakeReady(self);
  HandOff(self->processor_, release);
}

void Scheduler::Block() {
  Fiber* self = current_;
  PLAT_CHECK(self != nullptr);
  self->state_ = Fiber::State::kBlocked;
  HandOff(self->processor_, self->clock_);
  PLAT_CHECK(self->state_ == Fiber::State::kRunning);
}

void Scheduler::Wake(Fiber* fiber, SimTime not_before) {
  PLAT_CHECK(fiber != nullptr);
  PLAT_CHECK(fiber->state_ == Fiber::State::kBlocked)
      << "Wake on fiber '" << fiber->name() << "' in state " << static_cast<int>(fiber->state_);
  fiber->clock_ = std::max(fiber->clock_, not_before);
  MakeReady(fiber);
}

void Scheduler::Join(Fiber* fiber) {
  Fiber* self = current_;
  PLAT_CHECK(self != nullptr) << "Join must be called from a fiber";
  PLAT_CHECK(fiber != self);
  if (fiber->state_ == Fiber::State::kDone) {
    self->clock_ = std::max(self->clock_, fiber->clock_);
    return;
  }
  fiber->joiners_.push_back(self);
  Block();
}

void Scheduler::MigrateCurrent(int new_processor) {
  Fiber* self = current_;
  PLAT_CHECK(self != nullptr);
  PLAT_CHECK_GE(new_processor, 0);
  PLAT_CHECK_LT(new_processor, num_processors());
  if (new_processor == self->processor_) {
    return;
  }
  // Leave the old node and re-enter the run queue. The new node is not held
  // meanwhile: the arrival serializes against it when it is dispatched there.
  int old_processor = self->processor_;
  self->processor_ = new_processor;
  MakeReady(self);
  HandOff(old_processor, self->clock_);
}

void Scheduler::AddInterruptCost(int processor, SimTime cost) {
  PLAT_CHECK_GE(processor, 0);
  PLAT_CHECK_LT(processor, num_processors());
  pending_interrupt_cost_[processor] += cost;
}

void Scheduler::HandOff(int release_processor, SimTime release_at, bool exits) {
  Fiber* self = current_;
  processor_available_[release_processor] =
      std::max(processor_available_[release_processor], release_at);
  // Record only time actually executed: a sleeping fiber's clock already
  // points at its future wake-up and must not drag global_now forward.
  BumpGlobalNow(release_at);
  Fiber* next = PickNext();
  if (next == self) {
    return;  // still first in line: keep running, no switch
  }
  current_ = next;
  SwitchContext(self->context_, (next != nullptr) ? next->context_ : main_context_, exits);
}

void Scheduler::BumpGlobalNow(SimTime t) {
  if (t <= global_now_) {
    return;
  }
  global_now_ = t;
  if (time_observer_ != nullptr) [[unlikely]] {
    time_observer_->OnTimeAdvance(t);
  }
}

}  // namespace platinum::sim
