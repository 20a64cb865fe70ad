// Shared helpers for PLATINUM tests.
#ifndef TESTS_TEST_UTIL_H_
#define TESTS_TEST_UTIL_H_

#include <fstream>
#include <functional>
#include <memory>
#include <string>

#include "src/kernel/kernel.h"
#include "src/sim/machine.h"

namespace platinum::test {

// A machine + kernel pair with test-friendly defaults.
struct TestSystem {
  explicit TestSystem(int processors = 4, kernel::KernelOptions options = {})
      : machine(sim::ButterflyPlusParams(processors)),
        kernel(&machine, std::move(options)) {}

  TestSystem(const sim::MachineParams& params, kernel::KernelOptions options = {})
      : machine(params), kernel(&machine, std::move(options)) {}

  sim::Machine machine;
  kernel::Kernel kernel;
};

// Runs `body` in a single kernel thread on `processor` and drives the machine
// to completion.
inline void RunInThread(kernel::Kernel& kernel, vm::AddressSpace* space, int processor,
                        std::function<void()> body) {
  kernel.SpawnThread(space, processor, "test", std::move(body));
  kernel.Run();
}

// The process's resident set in kB (VmRSS in /proc/self/status), or -1 when
// the host does not report it.
inline long ResidentKb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmRSS:", 0) == 0) {
      return std::stol(line.substr(6));
    }
  }
  return -1;
}

}  // namespace platinum::test

#endif  // TESTS_TEST_UTIL_H_
