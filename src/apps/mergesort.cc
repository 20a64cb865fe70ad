#include "src/apps/mergesort.h"

#include <bit>
#include <functional>

#include "src/apps/workloads.h"
#include "src/base/check.h"
#include "src/runtime/parallel.h"
#include "src/runtime/shared_array.h"
#include "src/runtime/sync.h"
#include "src/runtime/zone_allocator.h"

namespace platinum::apps {
namespace {

// Environment callbacks a sort worker needs from its machine.
struct SortEnv {
  std::function<void()> barrier;                  // all threads arrive
  std::function<void(int)> signal;                // advance this thread's event count
  std::function<void(int, uint32_t)> await;       // wait for ec[thread] >= value
  std::function<void()> compute;                  // per-element compare cost
  std::function<void(int)> mark_start;            // called by every thread after init
};

// The body every sorting thread runs, generic over the array type.
template <typename Array>
void SortWorkerBody(Array& a, Array& b, size_t count, int p, int pid, uint64_t seed,
                    const SortEnv& env) {
  const size_t chunk = count / static_cast<size_t>(p);
  const size_t lo = static_cast<size_t>(pid) * chunk;

  // Generate this thread's chunk (places pages locally by first touch).
  GenerateRun(a, lo, chunk, seed);
  env.barrier();
  env.mark_start(pid);

  // Leaf: sort the chunk bottom-up.
  SortChunkBottomUp(a, b, lo, chunk, env.compute);
  env.signal(pid);

  // Tree: at level k, every 2^k-th thread merges its run with its partner's.
  const int levels = std::countr_zero(static_cast<unsigned>(p));
  const int leaf_passes = chunk <= 1 ? 0 : static_cast<int>(std::bit_width(chunk - 1));
  Array* src = (leaf_passes % 2 == 0) ? &a : &b;
  Array* dst = (leaf_passes % 2 == 0) ? &b : &a;
  for (int k = 1; k <= levels; ++k) {
    if (pid % (1 << k) != 0) {
      break;  // this thread's subtree is complete
    }
    const int partner = pid + (1 << (k - 1));
    env.await(partner, static_cast<uint32_t>(k));
    const size_t run = chunk << (k - 1);
    MergeRuns(*src, *dst, lo, run, lo + run, run, lo, env.compute);
    std::swap(src, dst);
    env.signal(pid);
  }
}

// Where the fully sorted data ends up: 0 = the data array, 1 = the scratch.
int FinalLocation(size_t count, int p) {
  const size_t chunk = count / static_cast<size_t>(p);
  const int leaf_passes = chunk <= 1 ? 0 : static_cast<int>(std::bit_width(chunk - 1));
  const int levels = std::countr_zero(static_cast<unsigned>(p));
  return (leaf_passes + levels) % 2;
}

void ValidateConfig(const SortConfig& config) {
  PLAT_CHECK_GE(config.processors, 1);
  PLAT_CHECK((config.processors & (config.processors - 1)) == 0)
      << "merge-sort processor count must be a power of two";
  PLAT_CHECK_EQ(config.count % static_cast<size_t>(config.processors), size_t{0});
  PLAT_CHECK_GT(config.count / static_cast<size_t>(config.processors), size_t{1});
  // Equal power-of-two chunks give every leaf the same pass count.
  size_t chunk = config.count / static_cast<size_t>(config.processors);
  PLAT_CHECK((chunk & (chunk - 1)) == 0) << "per-thread chunk must be a power of two";
}

template <typename Array>
SortResult VerifySorted(const SortConfig& config, Array& final_array,
                        const std::function<void(std::function<void()>)>& run_in_thread,
                        sim::SimTime sort_ns) {
  SortResult result;
  result.sort_ns = sort_ns;
  if (!config.verify) {
    return result;
  }
  Checksum sum;
  bool sorted = true;
  run_in_thread([&] {
    uint32_t previous = 0;
    for (size_t i = 0; i < config.count; ++i) {
      uint32_t value = final_array.Get(i);
      if (i > 0 && value < previous) {
        sorted = false;
      }
      previous = value;
      sum.Add(value);
    }
  });
  result.checksum = sum.value();
  result.verified =
      sorted && result.checksum == SortReferenceChecksum(config.seed, config.count);
  PLAT_CHECK(result.verified) << "merge sort produced an unsorted or wrong permutation";
  return result;
}

}  // namespace

SortResult RunMergeSortPlatinum(kernel::Kernel& kernel, const SortConfig& config) {
  ValidateConfig(config);
  const int p = config.processors;
  PLAT_CHECK_LE(p, kernel.num_processors());

  auto* space = kernel.CreateAddressSpace("mergesort");
  rt::ZoneAllocator zone(&kernel, space);
  auto a = rt::SharedArray<uint32_t>::Create(zone, "sort-data", config.count);
  auto b = rt::SharedArray<uint32_t>::Create(zone, "sort-scratch", config.count);
  rt::EventCountArray done(zone, "sort-done", static_cast<size_t>(p));
  rt::Barrier barrier(zone, "sort-barrier", static_cast<uint32_t>(p));

  sim::SimTime t_start = 0;
  SortEnv env;
  env.barrier = [&] { barrier.Wait(); };
  env.signal = [&](int t) { done.Advance(static_cast<size_t>(t)); };
  env.await = [&](int t, uint32_t v) { done.AwaitAtLeast(static_cast<size_t>(t), v); };
  env.compute = [&] { kernel.machine().Compute(config.compute_per_element_ns); };
  env.mark_start = [&](int pid) {
    if (pid == 0) {
      t_start = kernel.Now();
    }
  };

  rt::RunOnProcessors(kernel, space, p, "sort", [&](int pid) {
    SortWorkerBody(a, b, config.count, p, pid, config.seed, env);
  });
  sim::SimTime sort_ns = kernel.machine().scheduler().global_now() - t_start;

  auto& final_array = FinalLocation(config.count, p) == 0 ? a : b;
  return VerifySorted<rt::SharedArray<uint32_t>>(
      config, final_array,
      [&](std::function<void()> body) {
        kernel.SpawnThread(space, 0, "sort-check", std::move(body));
        kernel.Run();
      },
      sort_ns);
}

SortResult RunMergeSortUma(uma::UmaMachine& machine, const SortConfig& config) {
  ValidateConfig(config);
  const int p = config.processors;
  PLAT_CHECK_LE(p, machine.num_processors());
  sim::Scheduler& sched = machine.scheduler();

  auto a = uma::UmaArray::Create(machine, config.count);
  auto b = uma::UmaArray::Create(machine, config.count);
  auto done = uma::UmaArray::Create(machine, static_cast<size_t>(p));
  auto barrier_state = uma::UmaArray::Create(machine, 2);

  sim::SimTime t_start = 0;
  for (int pid = 0; pid < p; ++pid) {
    sched.Spawn(pid, "uma-sort-" + std::to_string(pid), [&, pid] {
      uint32_t sense = 0;
      SortEnv env;
      env.barrier = [&] {
        uint32_t waiting_for = 1 - sense;
        sense = waiting_for;
        uint32_t arrived = barrier_state.FetchAdd(0, 1) + 1;
        if (static_cast<int>(arrived) == p) {
          barrier_state.Set(0, 0);
          barrier_state.Set(1, waiting_for);
        } else {
          sim::SimTime backoff = 2 * sim::kMicrosecond;
          while (barrier_state.Get(1) != waiting_for) {
            sched.Sleep(backoff);
            backoff = std::min<sim::SimTime>(backoff * 2, 64 * sim::kMicrosecond);
          }
        }
      };
      env.signal = [&](int t) { done.FetchAdd(static_cast<size_t>(t), 1); };
      env.await = [&](int t, uint32_t v) {
        sim::SimTime backoff = 2 * sim::kMicrosecond;
        while (done.Get(static_cast<size_t>(t)) < v) {
          sched.Sleep(backoff);
          backoff = std::min<sim::SimTime>(backoff * 2, 64 * sim::kMicrosecond);
        }
      };
      env.compute = [&] { sched.Advance(config.compute_per_element_ns); };
      env.mark_start = [&](int id) {
        if (id == 0) {
          t_start = sched.now();
        }
      };
      SortWorkerBody(a, b, config.count, p, pid, config.seed, env);
    });
  }
  sched.Run();
  sim::SimTime sort_ns = sched.global_now() - t_start;

  auto& final_array = FinalLocation(config.count, p) == 0 ? a : b;
  return VerifySorted<uma::UmaArray>(
      config, final_array,
      [&](std::function<void()> body) {
        sched.Spawn(0, "uma-check", std::move(body));
        sched.Run();
      },
      sort_ns);
}

}  // namespace platinum::apps
