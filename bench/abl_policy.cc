// Ablation (Sections 4.2, 8): replication-policy comparison.
//
// PLATINUM's timestamp policy against the bounds of the design space:
//   * always-cache   — replicate/migrate on every miss, never freeze
//                      (degenerates under fine-grain write sharing);
//   * never-cache    — first touch places the page, everything else is
//                      remote (static placement, no data motion);
//   * migrate-then-freeze — Bolosky et al.'s scheme discussed in Section 8:
//                      written pages move a bounded number of times, then
//                      freeze for good.
// Run on all three applications plus a fine-grain ping-pong microworkload
// where caching is exactly the wrong thing to do.
#include <functional>
#include <memory>

#include "bench/bench_util.h"
#include "src/apps/gauss.h"
#include "src/apps/mergesort.h"
#include "src/apps/neural.h"
#include "src/kernel/kernel.h"
#include "src/mem/policy.h"
#include "src/runtime/parallel.h"
#include "src/runtime/shared_array.h"
#include "src/runtime/zone_allocator.h"
#include "src/sim/machine.h"

namespace {

using namespace platinum;  // NOLINT
using sim::SimTime;

std::unique_ptr<mem::ReplicationPolicy> MakePolicy(int which) {
  switch (which) {
    case 0:
      return std::make_unique<mem::TimestampPolicy>(10 * sim::kMillisecond);
    case 1:
      return std::make_unique<mem::TimestampPolicy>(10 * sim::kMillisecond,
                                                    /*thaw_on_access=*/true);
    case 2:
      return std::make_unique<mem::AlwaysCachePolicy>();
    case 3:
      return std::make_unique<mem::NeverCachePolicy>();
    default:
      return std::make_unique<mem::MigrateThenFreezePolicy>(3);
  }
}

const char* kPolicyNames[] = {"timestamp", "timestamp+thaw", "always-cache", "never-cache",
                              "migrate-then-freeze"};

SimTime RunWith(int policy, const std::function<SimTime(kernel::Kernel&)>& app) {
  sim::Machine machine(sim::ButterflyPlusParams(16));
  kernel::KernelOptions options;
  options.policy = MakePolicy(policy);
  // The Bolosky-style policy freezes for good: no defrost.
  options.start_defrost_daemon = policy != 4;
  kernel::Kernel kernel(&machine, std::move(options));
  SimTime t = app(kernel);
  bench::RunMetrics::Count(machine);
  return t;
}

SimTime GaussApp(kernel::Kernel& kernel) {
  apps::GaussConfig config;
  config.n = bench::EnvInt("PLATINUM_GAUSS_N", bench::FullScale() ? 512 : 160);
  config.processors = 16;
  config.verify = false;
  return RunGaussPlatinum(kernel, config).elimination_ns;
}

SimTime SortApp(kernel::Kernel& kernel) {
  apps::SortConfig config;
  config.count = static_cast<size_t>(bench::EnvInt("PLATINUM_SORT_COUNT", 1 << 14));
  config.processors = 16;
  config.verify = false;
  return RunMergeSortPlatinum(kernel, config).sort_ns;
}

SimTime NeuralApp(kernel::Kernel& kernel) {
  apps::NeuralConfig config;
  config.processors = 16;
  config.epochs = bench::EnvInt("PLATINUM_NEURAL_EPOCHS", 4);
  return RunNeuralPlatinum(kernel, config).train_ns;
}

// Fine-grain ping-pong: 8 processors take turns incrementing counters packed
// into one page — interleaved writes at word granularity, the pattern for
// which any caching policy pays a full protocol round per access.
SimTime PingPongApp(kernel::Kernel& kernel) {
  auto* space = kernel.CreateAddressSpace("pingpong");
  rt::ZoneAllocator zone(&kernel, space);
  auto counters = rt::SharedArray<uint32_t>::Create(zone, "counters", 16);
  SimTime start = 0;
  rt::RunOnProcessors(kernel, space, 8, "pp", [&](int pid) {
    if (pid == 0) {
      start = kernel.Now();
    }
    for (int i = 0; i < 100; ++i) {
      counters.Set(static_cast<size_t>(pid), counters.Get(static_cast<size_t>(pid)) + 1);
      kernel.machine().scheduler().Sleep(50 * sim::kMicrosecond);
    }
  });
  return kernel.machine().scheduler().global_now() - start;
}

}  // namespace

int main() {
  std::printf("\n=== Ablation: replication policies (16 processors) ===\n");
  std::printf("%-20s %12s %12s %12s %14s\n", "policy", "gauss (s)", "sort (s)", "neural (s)",
              "ping-pong (ms)");
  constexpr int kPolicies = 5;
  const std::function<SimTime(kernel::Kernel&)> apps[] = {GaussApp, SortApp, NeuralApp,
                                                          PingPongApp};
  constexpr int kApps = 4;
  // policy x app grid, every cell an independent machine.
  bench::SweepRunner runner;
  std::vector<SimTime> times = runner.Map(kPolicies * kApps, [&](int i) -> SimTime {
    return RunWith(i / kApps, apps[i % kApps]);
  });
  for (int policy = 0; policy < kPolicies; ++policy) {
    const SimTime* row = &times[static_cast<size_t>(policy * kApps)];
    std::printf("%-20s %12.3f %12.3f %12.3f %14.1f\n", kPolicyNames[policy],
                sim::ToSeconds(row[0]), sim::ToSeconds(row[1]), sim::ToSeconds(row[2]),
                sim::ToMilliseconds(row[3]));
  }
  bench::PrintPaperNote(
      "the timestamp policy should track always-cache on coarse-grain "
      "workloads (gauss, sort) and track never-cache on fine-grain "
      "write-sharing (neural, ping-pong) — using remote access effectively "
      "disables caching exactly where running the protocol costs more than "
      "not caching.");
  bench::RunMetrics::Print();
  return 0;
}
