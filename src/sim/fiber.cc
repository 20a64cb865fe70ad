#include "src/sim/fiber.h"

#include <sanitizer/asan_interface.h>
#include <sys/mman.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <new>
#include <utility>

#include "src/base/check.h"

#if defined(__SANITIZE_ADDRESS__)
#define PLATINUM_FIBER_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define PLATINUM_FIBER_ASAN 1
#endif
#endif

#if defined(__x86_64__)
// platinum_sim_fiber_switch(save_sp, load_sp) pushes a SwitchFrame, stores
// the stack pointer in *save_sp, then pops the SwitchFrame that load_sp
// points to and returns on that stack. platinum_sim_fiber_entry is where the
// first switch into a fiber returns: it calls r13(r12) on a 16-byte aligned
// stack as the outermost frame.
asm(".pushsection .text\n"
    ".p2align 4\n"
    ".type platinum_sim_fiber_switch, @function\n"
    "platinum_sim_fiber_switch:\n"
    "  .cfi_startproc\n"
    "  pushq %rbp; .cfi_adjust_cfa_offset 8\n"
    "  pushq %rbx; .cfi_adjust_cfa_offset 8\n"
    "  pushq %r12; .cfi_adjust_cfa_offset 8\n"
    "  pushq %r13; .cfi_adjust_cfa_offset 8\n"
    "  pushq %r14; .cfi_adjust_cfa_offset 8\n"
    "  pushq %r15; .cfi_adjust_cfa_offset 8\n"
    "  subq $8, %rsp; .cfi_adjust_cfa_offset 8\n"
    "  stmxcsr 4(%rsp)\n"
    "  fnstcw (%rsp)\n"
    "  movq %rsp, (%rdi)\n"
    "  movq %rsi, %rsp\n"
    "  ldmxcsr 4(%rsp)\n"
    "  fldcw (%rsp)\n"
    "  addq $8, %rsp; .cfi_adjust_cfa_offset -8\n"
    "  popq %r15; .cfi_adjust_cfa_offset -8\n"
    "  popq %r14; .cfi_adjust_cfa_offset -8\n"
    "  popq %r13; .cfi_adjust_cfa_offset -8\n"
    "  popq %r12; .cfi_adjust_cfa_offset -8\n"
    "  popq %rbx; .cfi_adjust_cfa_offset -8\n"
    "  popq %rbp; .cfi_adjust_cfa_offset -8\n"
    "  ret\n"
    "  .cfi_endproc\n"
    ".size platinum_sim_fiber_switch, .-platinum_sim_fiber_switch\n"
    ".p2align 4\n"
    ".type platinum_sim_fiber_entry, @function\n"
    "platinum_sim_fiber_entry:\n"
    "  .cfi_startproc\n"
    "  .cfi_undefined rip\n"
    "  movq %r12, %rdi\n"
    "  callq *%r13\n"
    "  ud2\n"
    "  .cfi_endproc\n"
    ".size platinum_sim_fiber_entry, .-platinum_sim_fiber_entry\n"
    ".popsection\n");

extern "C" void platinum_sim_fiber_switch(void** save_sp, void* load_sp);
extern "C" void platinum_sim_fiber_entry();
#endif

namespace platinum::sim {
namespace {

#if PLATINUM_FIBER_ASAN
// Announces the stack `to` runs on before the switch. An exiting context
// keeps no fake stack, so ASan frees it.
void StartSwitch(FiberContext& from, FiberContext& to, bool from_exits) {
  to.resumer = &from;
  __sanitizer_start_switch_fiber(from_exits ? nullptr : &from.fake_stack, to.stack_bottom,
                                 to.stack_size);
}

// Runs first on the stack that became current. Records the stack the switch
// came from: that is how the host thread's context learns its own.
void FinishSwitch(FiberContext& self) {
  __sanitizer_finish_switch_fiber(self.fake_stack, &self.resumer->stack_bottom,
                                  &self.resumer->stack_size);
}
#else
void StartSwitch(FiberContext&, FiberContext&, bool) {}
void FinishSwitch(FiberContext&) {}
#endif

// The first code a fiber runs on its own stack.
void StartFiber(FiberContext* self) {
  FinishSwitch(*self);
  self->entry();
}

#if defined(__x86_64__)
// What platinum_sim_fiber_switch leaves on a suspended stack, lowest address
// first.
struct SwitchFrame {
  uint16_t x87_control;
  uint16_t unused;
  uint32_t mxcsr;
  void* r15;
  void* r14;
  void (*r13)(FiberContext*);  // a fresh fiber's start function
  FiberContext* r12;           // and its argument
  void* rbx;
  void* rbp;
  void (*return_address)();
};
static_assert(sizeof(SwitchFrame) == 64);
#endif

size_t GuardBytes() { return static_cast<size_t>(sysconf(_SC_PAGESIZE)); }

}  // namespace

void SwitchContext(FiberContext& from, FiberContext& to, bool from_exits) {
  StartSwitch(from, to, from_exits);
#if defined(__x86_64__)
  platinum_sim_fiber_switch(&from.sp, to.sp);
#else
  PLAT_CHECK_EQ(swapcontext(&from.uc, &to.uc), 0);
#endif
  FinishSwitch(from);
}

Fiber::Fiber(uint32_t id, int processor, std::string name, std::function<void()> body,
             bool daemon, void (*entry)())
    : id_(id),
      processor_(processor),
      name_(std::move(name)),
      body_(std::move(body)),
      daemon_(daemon),
      mapping_(GuardBytes() + kFiberStackBytes) {
  PLAT_CHECK(body_ != nullptr);
  const size_t guard = GuardBytes();
  PLAT_CHECK_EQ(mprotect(mapping_.data(), guard, PROT_NONE), 0) << std::strerror(errno);
  char* stack = static_cast<char*>(mapping_.data()) + guard;
  context_.entry = entry;
  context_.stack_bottom = stack;
  context_.stack_size = kFiberStackBytes;
#if defined(__x86_64__)
  // The stack top is page-aligned, so the frame and, after its return, the
  // call into StartFiber are 16-byte aligned. The fiber starts with its
  // creator's floating-point control state, as getcontext would give it.
  auto* frame = new (stack + kFiberStackBytes - sizeof(SwitchFrame)) SwitchFrame{};
  asm volatile("fnstcw %0" : "=m"(frame->x87_control));
  asm volatile("stmxcsr %0" : "=m"(frame->mxcsr));
  frame->r13 = &StartFiber;
  frame->r12 = &context_;
  frame->return_address = &platinum_sim_fiber_entry;
  context_.sp = frame;
#else
  PLAT_CHECK_EQ(getcontext(&context_.uc), 0);
  context_.uc.uc_stack.ss_sp = stack;
  context_.uc.uc_stack.ss_size = kFiberStackBytes;
  context_.uc.uc_link = nullptr;  // the entry never returns
  // glibc passes makecontext's arguments as whole words on 64-bit targets.
  makecontext(&context_.uc, reinterpret_cast<void (*)()>(&StartFiber), 1, &context_);
#endif
}

Fiber::~Fiber() {
  // ASan leaves the redzones of frames that never returned poisoned; memory
  // mapped here later must not inherit them.
  ASAN_UNPOISON_MEMORY_REGION(context_.stack_bottom, kFiberStackBytes);
}

}  // namespace platinum::sim
