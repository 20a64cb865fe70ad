#include "platbench/probes.h"

#include <algorithm>
#include <chrono>
#include <functional>
#include <string>
#include <vector>

#include "src/base/check.h"
#include "src/kernel/kernel.h"
#include "src/load/request_gen.h"
#include "src/obs/page_trace.h"
#include "src/runtime/shared_array.h"
#include "src/runtime/sync.h"
#include "src/runtime/zone_allocator.h"
#include "src/sim/machine.h"
#include "platbench/workloads.h"

namespace platbench {

namespace {

using namespace platinum;  // NOLINT
using Clock = std::chrono::steady_clock;
using sim::AccessKind;

constexpr int kLoopRepeats = 5;   // timed loops per hit-path probe
constexpr int kMachineRepeats = 3;  // fresh machines per fault / switch probe
constexpr uint64_t kHitIterations = 1u << 20;

double NsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::nano>(Clock::now() - start).count();
}

sim::MachineParams ProbeParams(int nodes) {
  sim::MachineParams params = sim::ButterflyPlusParams(nodes);
  params.quantum_ns = sim::kSecond * 1000000;
  return params;
}

// A small machine and kernel with one address space and its zone allocator.
struct ProbeRig {
  explicit ProbeRig(int nodes, const char* protocol = "directory")
      : machine(ProbeParams(nodes)),
        kernel(&machine, Options(protocol)),
        space(kernel.CreateAddressSpace("probe")),
        zone(&kernel, space) {}

  static kernel::KernelOptions Options(const char* protocol) {
    kernel::KernelOptions options;
    options.protocol = protocol;
    options.start_defrost_daemon = false;
    return options;
  }

  // Runs `body` on a kernel thread bound to `processor` until it finishes.
  void RunOn(int processor, std::function<void()> body) {
    kernel.SpawnThread(space, processor, "probe", std::move(body));
    kernel.Run();
  }

  uint32_t words_per_page() const { return machine.params().words_per_page(); }

  sim::Machine machine;
  kernel::Kernel kernel;
  vm::AddressSpace* space;
  rt::ZoneAllocator zone;
};

// Times `op(i)` for i in [0, iterations), kLoopRepeats times, on the current
// fiber of `machine`.
template <typename Op>
Probe TimeLoop(sim::Machine& machine, uint64_t iterations, Op&& op) {
  std::vector<double> ns;
  sim::SimTime sim_start = machine.scheduler().now();
  for (int r = 0; r < kLoopRepeats; ++r) {
    Clock::time_point start = Clock::now();
    for (uint64_t i = 0; i < iterations; ++i) {
      op(i);
    }
    ns.push_back(NsSince(start) / static_cast<double>(iterations));
  }
  Probe probe;
  probe.host_ns = Median(ns);
  probe.sim_us = sim::ToMicroseconds(machine.scheduler().now() - sim_start) /
                 static_cast<double>(iterations * kLoopRepeats);
  probe.iterations = iterations;
  probe.repeats = kLoopRepeats;
  return probe;
}

// Median host cost over kMachineRepeats fresh machines; the simulated charge
// is deterministic, so any run's value stands for all.
Probe MedianOverMachines(const std::function<Probe()>& one_machine) {
  std::vector<double> ns;
  Probe probe;
  for (int r = 0; r < kMachineRepeats; ++r) {
    probe = one_machine();
    ns.push_back(probe.host_ns);
  }
  probe.host_ns = Median(ns);
  probe.repeats = kMachineRepeats;
  return probe;
}

void SwitchProbe(LayerProbes* out) {
  constexpr uint64_t kRoundTrips = 100000;
  std::vector<double> rt_ns;
  std::vector<double> switch_ns;
  for (int r = 0; r < kMachineRepeats; ++r) {
    sim::Machine machine(ProbeParams(2));
    sim::Scheduler& sched = machine.scheduler();
    for (int p = 0; p < 2; ++p) {
      sched.Spawn(p, "yield", [&sched] {
        for (uint64_t i = 0; i < kRoundTrips; ++i) {
          sched.Yield();
        }
      });
    }
    Clock::time_point start = Clock::now();
    sched.Run();
    double ns = NsSince(start);
    rt_ns.push_back(ns / static_cast<double>(kRoundTrips));
    switch_ns.push_back(ns / static_cast<double>(sched.context_switches()));
  }
  out->switch_rt.host_ns = Median(rt_ns);
  out->switch_rt.sim_us = 0;  // a yield charges no simulated time
  out->switch_rt.iterations = kRoundTrips;
  out->switch_rt.repeats = kMachineRepeats;
  out->switch_ns = Median(switch_ns);
}

Probe ReferenceProbe() {
  sim::Machine machine(ProbeParams(2));
  Probe probe;
  machine.scheduler().Spawn(0, "reference", [&] {
    probe = TimeLoop(machine, kHitIterations, [&](uint64_t i) {
      machine.Reference(static_cast<int>(i & 1), AccessKind::kRead);
    });
  });
  machine.scheduler().Run();
  return probe;
}

// Every ATC-hit probe on one page that processor 0 has written (so it holds
// a local read-write translation).
void HitPathProbes(LayerProbes* out) {
  ProbeRig rig(2);
  const uint32_t wpp = rig.words_per_page();
  const uint32_t mask = wpp - 1;
  const uint32_t va = rig.zone.AllocWords("hit", wpp);
  kernel::Kernel& kernel = rig.kernel;
  mem::CoherentMemory& memory = kernel.memory();
  const uint32_t as = rig.space->id();
  const uint32_t vpn = kernel.VpnOf(va);
  rig.RunOn(0, [&] {
    kernel.WriteWord(rig.space, va, 1);
    out->hit_read = TimeLoop(rig.machine, kHitIterations, [&](uint64_t i) {
      memory.Access(as, vpn, static_cast<uint32_t>(i) & mask, AccessKind::kRead);
    });
    out->hit_write = TimeLoop(rig.machine, kHitIterations, [&](uint64_t i) {
      memory.Access(as, vpn, static_cast<uint32_t>(i) & mask, AccessKind::kWrite,
                    static_cast<uint32_t>(i));
    });
    hw::Atc& atc = memory.mmu(0).atc();
    out->refill = TimeLoop(rig.machine, kHitIterations / 4, [&](uint64_t i) {
      atc.FlushPage(as, vpn);
      memory.Access(as, vpn, static_cast<uint32_t>(i) & mask, AccessKind::kRead);
    });
    constexpr uint32_t kRangeWords = 256;
    std::vector<uint32_t> buf(kRangeWords, 7);
    out->range_word = TimeLoop(rig.machine, kHitIterations / kRangeWords, [&](uint64_t i) {
      if (i & 1) {
        memory.ReadRange(as, vpn, 0, kRangeWords, buf.data());
      } else {
        memory.WriteRange(as, vpn, 0, kRangeWords, buf.data());
      }
    });
    out->range_word.host_ns /= kRangeWords;
    out->range_word.sim_us /= kRangeWords;
    out->kernel_read_word = TimeLoop(rig.machine, kHitIterations, [&](uint64_t i) {
      kernel.ReadWord(rig.space, va + 4 * (static_cast<uint32_t>(i) & mask));
    });
    out->kernel_tas = TimeLoop(rig.machine, kHitIterations / 4,
                               [&](uint64_t) { kernel.AtomicTestAndSet(rig.space, va); });
    rt::SharedArray<uint32_t> array(&kernel, rig.space, va, wpp);
    out->runtime_get = TimeLoop(rig.machine, kHitIterations,
                                [&](uint64_t i) { array.Get(static_cast<size_t>(i & mask)); });

    // Observer cost: the same read loop detached, then attached.
    auto read = [&](uint64_t i) {
      memory.Access(as, vpn, static_cast<uint32_t>(i) & mask, AccessKind::kRead);
    };
    Probe detached = TimeLoop(rig.machine, kHitIterations, read);
    obs::PageTrace trace;
    kernel.AttachPageTrace(&trace);
    out->observer = TimeLoop(rig.machine, kHitIterations, read);
    out->observer.host_ns -= detached.host_ns;
    out->observer.sim_us -= detached.sim_us;
    memory.SetAccessObserver(nullptr);
    memory.SetPageEventSink(nullptr);
  });
}

// Read miss on a clean page present on node 0, taken by processor 1, whose
// node also holds the page's kernel structures (the paper's 1.34 ms case).
Probe ReadFaultOnce() {
  constexpr uint32_t kPages = 256;
  ProbeRig rig(2);
  const uint32_t wpp = rig.words_per_page();
  const uint32_t va = rig.zone.AllocWords("read-fault", kPages * wpp, hw::Rights::kReadWrite,
                                          /*home_module=*/1);
  const uint32_t vpn = rig.kernel.VpnOf(va);
  rig.RunOn(0, [&] {
    for (uint32_t p = 0; p < kPages; ++p) {
      rig.kernel.ReadWord(rig.space, va + p * wpp * 4);
    }
  });
  Probe probe;
  rig.RunOn(1, [&] {
    sim::SimTime sim_start = rig.kernel.Now();
    Clock::time_point start = Clock::now();
    for (uint32_t p = 0; p < kPages; ++p) {
      PLAT_CHECK(rig.kernel.memory().HandleFault(rig.space->id(), vpn + p, AccessKind::kRead) ==
                 mem::AccessOutcome::kOk);
    }
    probe.host_ns = NsSince(start) / kPages;
    probe.sim_us = sim::ToMicroseconds(rig.kernel.Now() - sim_start) / kPages;
  });
  PLAT_CHECK_EQ(rig.machine.stats().replications, kPages) << "read-fault probe must replicate";
  probe.iterations = kPages;
  return probe;
}

// Write miss by processor 0 on pages it holds read-only while `k` other
// processors hold replicas and stay active, so each fault invalidates k
// copies and interrupts k processors.
Probe WriteFaultOnce(int k, const char* protocol) {
  constexpr uint32_t kPages = 128;
  ProbeRig rig(k < 16 ? 16 : 64, protocol);
  const uint32_t wpp = rig.words_per_page();
  const uint32_t va = rig.zone.AllocWords("write-fault", kPages * wpp, hw::Rights::kReadWrite,
                                          /*home_module=*/0);
  const uint32_t vpn = rig.kernel.VpnOf(va);
  kernel::Kernel& kernel = rig.kernel;
  sim::Scheduler& sched = rig.machine.scheduler();
  const sim::SimTime t1 = rig.machine.params().t1_freeze_window_ns;
  // Hand-offs between the threads carry the sender's clock: with the probe's
  // long quantum a thread runs far ahead of the others between switches.
  bool filled = false;
  sim::SimTime filled_at = 0;
  int readers_done = 0;
  sim::SimTime readers_done_at = 0;
  bool writer_done = false;
  auto sleep_until = [&](sim::SimTime t) {
    if (kernel.Now() < t) {
      sched.Sleep(t - kernel.Now());
    }
  };
  Probe probe;
  kernel.SpawnThread(rig.space, 0, "writer", [&] {
    for (uint32_t p = 0; p < kPages; ++p) {
      kernel.WriteWord(rig.space, va + p * wpp * 4, 1);
    }
    filled = true;
    filled_at = kernel.Now();
    while (readers_done < k) {
      sched.Sleep(sim::kMillisecond);
    }
    // Let every invalidation age past the freeze window, so the faults
    // below invalidate the replicas instead of freezing the page.
    sleep_until(readers_done_at + 2 * t1);
    uint64_t ipis_before = rig.machine.stats().ipis_sent;
    sim::SimTime sim_start = kernel.Now();
    Clock::time_point start = Clock::now();
    for (uint32_t p = 0; p < kPages; ++p) {
      PLAT_CHECK(kernel.memory().HandleFault(rig.space->id(), vpn + p, AccessKind::kWrite) ==
                 mem::AccessOutcome::kOk);
    }
    probe.host_ns = NsSince(start) / kPages;
    probe.sim_us = sim::ToMicroseconds(kernel.Now() - sim_start) / kPages;
    if (std::string(protocol) == "directory") {
      PLAT_CHECK_EQ(rig.machine.stats().ipis_sent - ipis_before, uint64_t{kPages} * k)
          << "write-fault probe must interrupt every replica holder";
    }
    writer_done = true;
  });
  for (int r = 1; r <= k; ++r) {
    kernel.SpawnThread(rig.space, r, "reader", [&] {
      while (!filled) {
        sched.Sleep(sim::kMillisecond);
      }
      sleep_until(filled_at);
      for (uint32_t p = 0; p < kPages; ++p) {
        kernel.ReadWord(rig.space, va + p * wpp * 4);
      }
      ++readers_done;
      readers_done_at = std::max(readers_done_at, kernel.Now());
      while (!writer_done) {  // stay active: shootdowns must interrupt us
        sched.Sleep(10 * sim::kMillisecond);
      }
    });
  }
  kernel.Run();
  probe.iterations = kPages;
  return probe;
}

// One contended retry of rt::SpinLock::Acquire: a failed test-and-set plus
// its backoff sleep, while another thread holds the lock.
Probe SpinRetryOnce() {
  ProbeRig rig(2);
  rt::SpinLock lock(rig.zone, "probe-lock");
  sim::Scheduler& sched = rig.machine.scheduler();
  Probe probe;
  rig.kernel.SpawnThread(rig.space, 0, "holder", [&] {
    lock.Acquire();
    sched.Sleep(200 * sim::kMillisecond);
    lock.Release();
  });
  rig.kernel.SpawnThread(rig.space, 1, "spinner", [&] {
    sched.Sleep(5 * sim::kMillisecond);  // the holder owns the lock by now
    uint64_t switches_before = sched.context_switches();
    sim::SimTime sim_start = rig.kernel.Now();
    Clock::time_point start = Clock::now();
    lock.Acquire();
    double ns = NsSince(start);
    // Each failed poll sleeps once, which is one dispatch back to us; the
    // holder's wake-up to release is the one dispatch that is not ours.
    uint64_t retries = sched.context_switches() - switches_before - 1;
    PLAT_CHECK_GT(retries, 0u);
    probe.host_ns = ns / static_cast<double>(retries);
    probe.sim_us = sim::ToMicroseconds(rig.kernel.Now() - sim_start) / static_cast<double>(retries);
    probe.iterations = retries;
    lock.Release();
  });
  rig.kernel.Run();
  return probe;
}

}  // namespace

double Median(std::vector<double> values) {
  PLAT_CHECK(!values.empty());
  std::sort(values.begin(), values.end());
  size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid] : (values[mid - 1] + values[mid]) / 2;
}

LayerProbes RunProbes(uint64_t seed, SpanLog* spans) {
  ScopedSpan all(spans, "probes");
  LayerProbes out;
  {
    ScopedSpan span(spans, "probe sim::Scheduler::Yield");
    SwitchProbe(&out);
  }
  {
    ScopedSpan span(spans, "probe sim::Machine::Reference");
    out.reference = ReferenceProbe();
  }
  {
    ScopedSpan span(spans, "probe ATC-hit paths (mem, kernel, runtime, obs)");
    HitPathProbes(&out);
  }
  {
    ScopedSpan span(spans, "probe mem::CoherentMemory::HandleFault read");
    out.read_fault = MedianOverMachines(ReadFaultOnce);
  }
  {
    ScopedSpan span(spans, "probe mem::CoherentMemory::HandleFault write k=1");
    out.write_fault_k1 = MedianOverMachines([] { return WriteFaultOnce(1, "directory"); });
  }
  {
    ScopedSpan span(spans, "probe mem::CoherentMemory::HandleFault write k=15");
    out.write_fault_k15 = MedianOverMachines([] { return WriteFaultOnce(15, "directory"); });
  }
  {
    ScopedSpan span(spans, "probe mem::CoherentMemory::HandleFault write k=63");
    out.write_fault_k63 = MedianOverMachines([] { return WriteFaultOnce(63, "directory"); });
  }
  {
    ScopedSpan span(spans, "probe mem::CoherentMemory::HandleFault write tardis");
    out.tardis_write_fault = MedianOverMachines([] { return WriteFaultOnce(1, "tardis"); });
  }
  {
    ScopedSpan span(spans, "probe rt::SpinLock::Acquire retry");
    out.spin_retry = MedianOverMachines(SpinRetryOnce);
  }
  std::vector<double> script_s;
  for (int r = 0; r < kMachineRepeats; ++r) {
    ScopedSpan span(spans, "load::RequestScript::Generate");
    Clock::time_point start = Clock::now();
    load::RequestScript script = load::RequestScript::Generate(TrieSpec(seed, Scale::kFull),
                                                               kTrieClients);
    PLAT_CHECK_EQ(script.workers(), static_cast<uint32_t>(kTrieClients));
    script_s.push_back(NsSince(start) / 1e9);
  }
  out.script_s = Median(script_s);
  return out;
}

}  // namespace platbench
