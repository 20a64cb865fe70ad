// Cooperative fibers for the virtual-time simulation.
//
// Every simulated thread of control (application thread, kernel daemon) is a
// fiber with its own stack and its own virtual clock. Fibers never run
// concurrently: the scheduler resumes exactly one at a time, always the
// runnable fiber with the smallest virtual clock, so simulated executions are
// deterministic and data structures need no host-level locking.
//
// On x86-64 a switch is a few instructions of assembly that save what the
// System V ABI makes a callee preserve: rbx, rbp, r12-r15, the stack pointer,
// MXCSR and the x87 control word. It makes no system call. The signal mask is
// not switched: nothing in the simulator changes it. Other architectures
// switch with ucontext. Each fiber stack is mapped on demand, so only the
// stack pages a fiber touches take host memory, and has a PROT_NONE guard
// page below it, so an overflow faults instead of corrupting the heap.
#ifndef SRC_SIM_FIBER_H_
#define SRC_SIM_FIBER_H_

#if !defined(__x86_64__)
#include <ucontext.h>
#endif

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "src/base/anonymous_mapping.h"
#include "src/base/thread_annotations.h"
#include "src/sim/time.h"

namespace platinum::sim {

class Scheduler;

// Usable stack of every fiber, above its guard page.
inline constexpr size_t kFiberStackBytes = 256 * 1024;

// Where a switch leaves and later resumes execution: a fiber, or the host
// thread inside Scheduler::Run(), which fibers switch back to once none is
// left to run.
struct FiberContext {
#if defined(__x86_64__)
  // The suspended stack; the saved registers sit on it.
  void* sp = nullptr;
#else
  ucontext_t uc;
#endif
  // What a fiber runs first; null for the host thread.
  void (*entry)() = nullptr;
  // For AddressSanitizer: the stack this context runs on (the host thread's
  // is learned at its first switch away), ASan's fake stack while switched
  // out, and who switched to it last.
  const void* stack_bottom = nullptr;
  size_t stack_size = 0;
  void* fake_stack = nullptr;
  FiberContext* resumer = nullptr;
};

// Saves the calling context in `from` and resumes `to`, starting it at its
// entry if it never ran. Returns when a later switch resumes `from`.
// `from_exits` marks the final switch away from a finished fiber.
void SwitchContext(FiberContext& from, FiberContext& to, bool from_exits = false)
    PLATINUM_MAY_YIELD;

class Fiber {
 public:
  enum class State : uint8_t {
    kReady,    // in the scheduler's run queue
    kRunning,  // currently executing
    kBlocked,  // waiting for an explicit Wake
    kDone,     // body returned
  };

  // The first switch to the fiber calls `entry` on its own stack.
  Fiber(uint32_t id, int processor, std::string name, std::function<void()> body, bool daemon,
        void (*entry)());
  ~Fiber();

  Fiber(const Fiber&) = delete;
  Fiber& operator=(const Fiber&) = delete;

  uint32_t id() const { return id_; }
  int processor() const { return processor_; }
  const std::string& name() const { return name_; }
  State state() const { return state_; }
  bool daemon() const { return daemon_; }
  // This fiber's virtual clock: the simulated time it has reached.
  SimTime clock() const { return clock_; }

 private:
  friend class Scheduler;

  const uint32_t id_;
  int processor_;
  const std::string name_;
  std::function<void()> body_;
  const bool daemon_;

  State state_ = State::kReady;
  SimTime clock_ = 0;
  // Virtual time at which this fiber was last resumed; used for quantum
  // accounting.
  SimTime resumed_at_ = 0;
  // Fibers waiting in Join() on this fiber.
  std::vector<Fiber*> joiners_;

  // The mapping: one guard page, then kFiberStackBytes of stack.
  base::AnonymousMapping mapping_;
  FiberContext context_;
};

}  // namespace platinum::sim

#endif  // SRC_SIM_FIBER_H_
