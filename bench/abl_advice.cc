// Ablation: the non-transparent placement hooks of Section 9.
//
// "It is not hard to construct scenarios in which better performance could
// be obtained if the interface between the application and the memory
// management system were not so transparent." This bench constructs them:
//   * the neural simulator with its shared pages advised write-shared (so
//     they freeze immediately instead of thrashing through a migration
//     ping-pong first);
//   * a hot-spot counter page explicitly pinned vs. discovered-by-freezing;
//   * a producer/consumer phase with the consumer pre-replicating
//     (prefetching) the producer's pages before its reading phase.
#include "bench/bench_util.h"
#include "src/apps/neural.h"
#include "src/apps/patterns.h"
#include "src/kernel/kernel.h"
#include "src/runtime/parallel.h"
#include "src/runtime/shared_array.h"
#include "src/runtime/sync.h"
#include "src/runtime/zone_allocator.h"
#include "src/sim/machine.h"

namespace {

using namespace platinum;  // NOLINT
using sim::SimTime;

// Neural simulator, optionally advising every shared object write-shared.
SimTime NeuralRun(bool advised) {
  sim::Machine machine(sim::ButterflyPlusParams(16));
  kernel::Kernel kernel(&machine);
  apps::NeuralConfig config;
  config.processors = 16;
  config.epochs = 5;
  config.advise_write_shared = advised;
  SimTime t = RunNeuralPlatinum(kernel, config).train_ns;
  bench::RunMetrics::Count(machine);
  return t;
}

// Hot-spot counters: everyone read-modify-writes one page. Pinning it up
// front skips the discovery phase (migrate, invalidate, freeze).
SimTime HotSpotRun(bool pinned) {
  sim::Machine machine(sim::ButterflyPlusParams(16));
  kernel::Kernel kernel(&machine);
  auto* space = kernel.CreateAddressSpace("hotspot");
  rt::ZoneAllocator zone(&kernel, space);
  auto counters = rt::SharedArray<uint32_t>::Create(zone, "counters", 16);
  if (pinned) {
    kernel.PinMemory(space, counters.base_va(), /*node=*/0);
  }
  SimTime start = 0;
  rt::RunOnProcessors(kernel, space, 8, "hs", [&](int pid) {
    if (pid == 0) {
      start = kernel.Now();
    }
    for (int i = 0; i < 200; ++i) {
      counters.Set(static_cast<size_t>(pid),
                   counters.Get(static_cast<size_t>(pid)) + 1);
      kernel.machine().scheduler().Sleep(20 * sim::kMicrosecond);
    }
  });
  bench::RunMetrics::Count(machine);
  return machine.scheduler().global_now() - start;
}

// Producer writes a region; consumers then read it. With prefetching, the
// consumers issue ReplicateMemory before their phase and take no read-miss
// latency inside it.
SimTime ProducerConsumerRun(bool prefetch) {
  sim::Machine machine(sim::ButterflyPlusParams(16));
  kernel::Kernel kernel(&machine);
  auto* space = kernel.CreateAddressSpace("pc");
  rt::ZoneAllocator zone(&kernel, space);
  constexpr int kPages = 8;
  const uint32_t page_words = kernel.page_size() / 4;
  auto data = rt::SharedArray<uint32_t>::Create(zone, "pc-data",
                                                static_cast<size_t>(kPages) * page_words);
  rt::EventCountArray ready(zone, "pc-ready", 1);
  rt::Barrier prefetched(zone, "pc-prefetched", 8);
  SimTime consumer_phase = 0;
  rt::RunOnProcessors(kernel, space, 8, "pc", [&](int pid) {
    if (pid == 0) {
      for (int page = 0; page < kPages; ++page) {
        for (uint32_t w = 0; w < page_words; w += 16) {
          data.Set(static_cast<size_t>(page) * page_words + w, static_cast<uint32_t>(w));
        }
      }
      ready.Advance(0);
      prefetched.Wait();
      return;
    }
    ready.AwaitAtLeast(0, 1);
    if (prefetch) {
      for (int page = 0; page < kPages; ++page) {
        kernel.ReplicateMemory(space, data.va(static_cast<size_t>(page) * page_words), pid);
      }
    }
    // Separate the (prefetch) setup from the measured phase, so one
    // consumer's block transfers do not steal another's local bus mid-
    // measurement (Section 7).
    prefetched.Wait();
    SimTime t0 = kernel.Now();
    for (int page = 0; page < kPages; ++page) {
      for (uint32_t w = 0; w < page_words; w += 4) {
        data.Get(static_cast<size_t>(page) * page_words + w);
      }
    }
    if (pid == 1) {
      consumer_phase = kernel.Now() - t0;
    }
  });
  bench::RunMetrics::Count(machine);
  return consumer_phase;
}

}  // namespace

int main() {
  std::printf("\n=== Ablation: non-transparent placement hooks (Section 9) ===\n");
  double neural_plain = sim::ToSeconds(NeuralRun(false));
  double neural_advised = sim::ToSeconds(NeuralRun(true));
  std::printf("neural, transparent           : %8.3f s\n", neural_plain);
  std::printf("neural, advised write-shared  : %8.3f s  (%+.1f%%)\n", neural_advised,
              100.0 * (neural_advised - neural_plain) / neural_plain);

  double hs_plain = sim::ToMilliseconds(HotSpotRun(false));
  double hs_pinned = sim::ToMilliseconds(HotSpotRun(true));
  std::printf("hot-spot counters, transparent: %8.3f ms\n", hs_plain);
  std::printf("hot-spot counters, pinned     : %8.3f ms  (%+.1f%%)\n", hs_pinned,
              100.0 * (hs_pinned - hs_plain) / hs_plain);

  double pc_plain = sim::ToMilliseconds(ProducerConsumerRun(false));
  double pc_prefetch = sim::ToMilliseconds(ProducerConsumerRun(true));
  std::printf("consumer phase, demand-fault  : %8.3f ms\n", pc_plain);
  std::printf("consumer phase, pre-replicated: %8.3f ms  (%+.1f%%)\n", pc_prefetch,
              100.0 * (pc_prefetch - pc_plain) / pc_plain);

  bench::PrintPaperNote(
      "such hooks are anticipated to be used primarily by programming "
      "languages and their run-time support, not by application programmers "
      "(Section 9).");
  bench::RunMetrics::Print();
  return 0;
}
