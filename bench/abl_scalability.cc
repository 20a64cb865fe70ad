// Ablation (Section 9): scalability beyond the 16-processor testbed.
//
// "The kernel itself is designed to scale well to machines with a much
// larger number of processors. Its decentralized design keeps the number of
// remote memory accesses in the kernel to a minimum... especially the low
// incremental cost per shootdown and the techniques for reducing the number
// of processors involved in a shootdown." The paper could only measure 16
// nodes; the simulator is not so constrained. This bench runs the
// applications on 16/32/64-node machines and measures the per-processor
// shootdown cost at scale.
#include "bench/bench_util.h"
#include "src/apps/gauss.h"
#include "src/apps/mergesort.h"
#include "src/kernel/kernel.h"
#include "src/runtime/parallel.h"
#include "src/runtime/shared_array.h"
#include "src/runtime/zone_allocator.h"
#include "src/sim/machine.h"

namespace {

using namespace platinum;  // NOLINT
using sim::SimTime;

SimTime GaussAt(int processors) {
  sim::Machine machine(sim::ButterflyPlusParams(processors));
  kernel::Kernel kernel(&machine);
  apps::GaussConfig config;
  config.n = bench::EnvInt("PLATINUM_GAUSS_N", bench::FullScale() ? 800 : 384);
  config.processors = processors;
  config.verify = false;
  SimTime t = RunGaussPlatinum(kernel, config).elimination_ns;
  bench::RunMetrics::Count(machine);
  return t;
}

SimTime SortAt(int processors) {
  sim::Machine machine(sim::ButterflyPlusParams(processors));
  kernel::Kernel kernel(&machine);
  apps::SortConfig config;
  config.count = static_cast<size_t>(bench::EnvInt("PLATINUM_SORT_COUNT", 1 << 16));
  config.processors = processors;
  config.verify = false;
  SimTime t = RunMergeSortPlatinum(kernel, config).sort_ns;
  bench::RunMetrics::Count(machine);
  return t;
}

// Write-miss invalidation latency with `replicas` active read copies, on a
// 64-node machine: the shootdown cost curve at four times the paper's scale.
SimTime ShootdownAt(int replicas) {
  sim::Machine machine(sim::ButterflyPlusParams(64));
  kernel::Kernel kernel(&machine);
  auto* space = kernel.CreateAddressSpace("shoot");
  rt::ZoneAllocator zone(&kernel, space);
  uint32_t va = zone.AllocWords("page", 1, hw::Rights::kReadWrite, /*home=*/0);
  SimTime duration = 0;
  kernel.SpawnThread(space, 0, "owner", [&] {
    kernel.WriteWord(space, va, 1);
    machine.scheduler().Sleep(100 * sim::kMillisecond);
    SimTime t0 = kernel.Now();
    kernel.WriteWord(space, va, 2);
    duration = kernel.Now() - t0;
  });
  for (int r = 1; r <= replicas; ++r) {
    kernel.SpawnThread(space, r, "replica", [&, r] {
      machine.scheduler().Sleep(static_cast<SimTime>(r) * sim::kMillisecond);
      kernel.ReadWord(space, va);
      machine.scheduler().Sleep(200 * sim::kMillisecond);  // stay active
    });
  }
  kernel.Run();
  bench::RunMetrics::Count(machine);
  return duration;
}

}  // namespace

int main() {
  std::printf("\n=== Ablation: scaling past the 16-node testbed (Section 9) ===\n");
  bench::SweepRunner runner;
  // All sweep points of both experiments, sharded across host threads; every
  // point is its own machine, so the results are independent of worker count.
  const std::vector<int> proc_counts = {1, 16, 32, 64};
  const std::vector<int> replica_counts = {1, 15, 31, 47, 63};
  const int n_procs = static_cast<int>(proc_counts.size());
  const int n_replicas = static_cast<int>(replica_counts.size());
  std::vector<SimTime> times =
      runner.Map(2 * n_procs + n_replicas, [&](int i) -> SimTime {
        if (i < n_procs) {
          return GaussAt(proc_counts[static_cast<size_t>(i)]);
        }
        if (i < 2 * n_procs) {
          return SortAt(proc_counts[static_cast<size_t>(i - n_procs)]);
        }
        return ShootdownAt(replica_counts[static_cast<size_t>(i - 2 * n_procs)]);
      });

  bench::SpeedupTable table("application speedup at 16/32/64 nodes", {"gauss", "mergesort"});
  for (int i = 0; i < n_procs; ++i) {
    table.AddRow(proc_counts[static_cast<size_t>(i)],
                 {times[static_cast<size_t>(i)], times[static_cast<size_t>(n_procs + i)]});
  }
  table.Print();
  bench::MaybeWriteJson(table, "abl_scalability");

  std::printf("\n--- write-miss invalidation vs. replica count (64-node machine) ---\n");
  double previous = 0;
  int previous_replicas = 0;
  for (int i = 0; i < n_replicas; ++i) {
    int replicas = replica_counts[static_cast<size_t>(i)];
    double ms = sim::ToMilliseconds(times[static_cast<size_t>(2 * n_procs + i)]);
    std::printf("invalidate %2d replicas: %7.3f ms", replicas, ms);
    if (previous > 0) {
      std::printf("   (incremental %5.1f us/processor)",
                  (ms - previous) * 1000.0 / (replicas - previous_replicas));
    }
    std::printf("\n");
    previous = ms;
    previous_replicas = replicas;
  }
  bench::PrintPaperNote(
      "the incremental shootdown cost per processor must stay flat (~17 us) "
      "as the machine grows — the decentralized design's scalability claim. "
      "Application speedup keeps growing past 16 nodes for coarse-grain "
      "work (gauss), while tree merge sort saturates by construction.");
  bench::RunMetrics::Print();
  return 0;
}
