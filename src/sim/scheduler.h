// Deterministic virtual-time scheduler.
//
// The scheduler owns all fibers and always resumes the runnable fiber with
// the smallest virtual clock (ties broken by spawn order), bounded by a yield
// quantum. Fibers bound to the same simulated processor are serialized: a
// fiber cannot start running on processor P before the previous occupant of P
// released it, which models kernel threads timesharing a node.
//
// Run() starts the first fiber. After that, a fiber that yields, sleeps,
// blocks or finishes picks the next fiber itself and switches straight to
// it, one switch per dispatch; the last one hands the host thread back to
// Run().
#ifndef SRC_SIM_SCHEDULER_H_
#define SRC_SIM_SCHEDULER_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <queue>
#include <string>
#include <vector>

#include "src/base/check.h"
#include "src/base/thread_annotations.h"
#include "src/sim/fiber.h"
#include "src/sim/time.h"

namespace platinum::sim {

// Passive observer of the global virtual-time high-water mark. Fired from
// the switch points and dispatch whenever global_now() actually moves
// forward, so a consumer (the obs-layer epoch sampler) can close
// simulated-time epochs without owning a fiber — observing never perturbs
// the schedule. Callbacks run on the stack of the fiber that is switching
// out (kFiberStackBytes, with a guard page; only Run()'s first dispatch runs
// them on its caller's stack), so they must fit in a fiber stack. They must
// not yield and must not call back into the scheduler's switching
// primitives.
class TimeObserver {
 public:
  virtual ~TimeObserver() = default;
  // `now` is the new (strictly increased) value of global_now().
  virtual void OnTimeAdvance(SimTime now) = 0;
};

class Scheduler {
 public:
  // `quantum` bounds how far a fiber may run ahead before yielding; it is the
  // maximum clock skew between concurrently simulated processors.
  Scheduler(int num_processors, SimTime quantum);
  ~Scheduler();

  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  // Creates a fiber bound to `processor`. Daemon fibers do not keep Run()
  // alive. May be called from inside or outside a fiber; a fiber spawned from
  // another starts no earlier than its spawner's current clock. Only enqueues
  // the new fiber; the spawner keeps running.
  Fiber* Spawn(int processor, std::string name, std::function<void()> body, bool daemon = false)
      PLATINUM_NO_YIELD;

  // Runs until every non-daemon fiber has finished. Aborts on deadlock
  // (non-daemon fibers alive but nothing runnable). Daemon fibers still alive
  // stay suspended, and a later Run() resumes them.
  void Run() PLATINUM_MAY_YIELD;

  // --- Introspection ---------------------------------------------------------
  Fiber* current() const { return current_; }
  // Virtual time at the calling context: the current fiber's clock, or the
  // global high-water mark when called outside any fiber.
  SimTime now() const { return (current_ != nullptr) ? current_->clock_ : global_now_; }
  SimTime global_now() const { return global_now_; }
  int current_processor() const {
    PLAT_CHECK(current_ != nullptr) << "no fiber is running";
    return current_->processor_;
  }
  // The current fiber's processor, or `outside` when no fiber is running.
  int current_processor_or(int outside) const {
    return current_ != nullptr ? current_->processor_ : outside;
  }
  int num_processors() const { return static_cast<int>(processor_available_.size()); }
  uint64_t context_switches() const { return switches_; }

  // --- Time accounting (current fiber) --------------------------------------
  // Charges `duration` of computation/latency to the current fiber. Never a
  // switch point: clock advances are atomic with respect to other fibers.
  void Advance(SimTime duration) PLATINUM_NO_YIELD {
    if (current_ == nullptr) {
      return;  // machine setup before Run(); costs nothing in virtual time
    }
    current_->clock_ += duration;
  }
  // Moves the current fiber's clock forward to at least `t` (waiting on an
  // external resource). No-op if already past `t`.
  void AdvanceTo(SimTime t) PLATINUM_NO_YIELD;

  // --- Cooperative scheduling ------------------------------------------------
  // Every switch point of the simulation is one of the PLATINUM_MAY_YIELD
  // functions below; tools/platlint proves none is reachable from a kernel
  // critical section (docs/STATIC_ANALYSIS.md).
  //
  // Yields if the current fiber has exceeded its quantum. Returns true if a
  // switch happened.
  bool MaybeYield() PLATINUM_MAY_YIELD {
    if (current_ == nullptr || current_->clock_ - current_->resumed_at_ < quantum_) {
      return false;
    }
    Yield();
    return true;
  }
  void Yield() PLATINUM_MAY_YIELD;
  // Advances the clock by `duration` without occupying the processor, letting
  // other fibers bound to the same processor run meanwhile.
  void Sleep(SimTime duration) PLATINUM_MAY_YIELD;
  // Parks the current fiber until another fiber calls Wake on it.
  void Block() PLATINUM_MAY_YIELD;
  // Makes `fiber` runnable again, no earlier than virtual time `not_before`.
  // Only enqueues; the caller keeps the processor.
  void Wake(Fiber* fiber, SimTime not_before) PLATINUM_NO_YIELD;
  // Blocks the current fiber until `fiber` finishes. Returns immediately if it
  // already has; the caller's clock is advanced to at least the finish time.
  void Join(Fiber* fiber) PLATINUM_MAY_YIELD;
  // Rebinds the current fiber to another processor (thread migration). The
  // fiber waits for the target processor to become available.
  void MigrateCurrent(int new_processor) PLATINUM_MAY_YIELD;

  // --- Interrupt modeling -----------------------------------------------------
  // Charges `cost` to whichever fiber next occupies `processor` (the
  // interrupted node spends this time in its IPI handler).
  void AddInterruptCost(int processor, SimTime cost) PLATINUM_NO_YIELD;

  // --- Time observation --------------------------------------------------------
  // Installs the observer notified whenever global_now() moves forward (one
  // slot; pass nullptr to detach). Costs one branch per dispatch when empty.
  void SetTimeObserver(TimeObserver* observer) { time_observer_ = observer; }

 private:
  struct ReadyEntry {
    SimTime key;
    uint64_t seq;
    Fiber* fiber;
    bool operator>(const ReadyEntry& other) const {
      if (key != other.key) {
        return key > other.key;
      }
      return seq > other.seq;
    }
  };

  void MakeReady(Fiber* fiber) PLATINUM_NO_YIELD;
  // Raises global_now_ to at least `t`, notifying the time observer on any
  // actual increase. The only writer of global_now_.
  void BumpGlobalNow(SimTime t) PLATINUM_NO_YIELD;
  // Dispatches the runnable fiber with the smallest (clock, spawn order):
  // starts its clock once its processor is free and pending interrupt cost
  // is paid, and counts the dispatch. Returns null once no non-daemon fiber
  // is left. Aborts on deadlock.
  Fiber* PickNext() PLATINUM_NO_YIELD;
  // The primitive switch point. The current fiber, which must already have
  // updated its state, releases `release_processor` at `release_at`; then
  // the next fiber runs. That is the caller itself (no switch), another
  // fiber (switched to directly) or, when none is left, the context that
  // called Run(). `exits` marks the final switch of a finished fiber.
  void HandOff(int release_processor, SimTime release_at, bool exits = false)
      PLATINUM_MAY_YIELD;
  static void Trampoline();
  void RunFiberBody();
  void FinishCurrent() PLATINUM_MAY_YIELD;

  const SimTime quantum_;

  std::vector<std::unique_ptr<Fiber>> fibers_;
  std::priority_queue<ReadyEntry, std::vector<ReadyEntry>, std::greater<ReadyEntry>> ready_;
  std::vector<SimTime> processor_available_;
  std::vector<SimTime> pending_interrupt_cost_;

  Fiber* current_ = nullptr;
  // The context that called Run(), suspended while fibers run.
  FiberContext main_context_;
  SimTime global_now_ = 0;
  TimeObserver* time_observer_ = nullptr;
  int live_non_daemon_ = 0;
  uint64_t next_seq_ = 0;
  uint64_t switches_ = 0;
  bool running_ = false;

  // The scheduler whose Run() owns the calling host thread. thread_local
  // so independent machines can be simulated concurrently on different host
  // threads (bench::SweepRunner); fibers never migrate across host threads.
  static thread_local Scheduler* active_;
};

}  // namespace platinum::sim

#endif  // SRC_SIM_SCHEDULER_H_
