#include "src/apps/neural.h"

#include <algorithm>
#include <cstdlib>
#include <numeric>
#include <vector>

#include "src/apps/workloads.h"
#include "src/base/check.h"
#include "src/runtime/parallel.h"
#include "src/runtime/shared_array.h"
#include "src/runtime/sync.h"
#include "src/runtime/zone_allocator.h"

namespace platinum::apps {
namespace {

// Q12 fixed point: 4096 == 1.0.
constexpr int32_t kOne = 4096;
constexpr int kShift = 12;

int32_t Sigma(int64_t net) {
  // Piecewise-linear logistic approximation.
  int64_t s = kOne / 2 + (net >> 2);
  if (s < 0) {
    return 0;
  }
  if (s > kOne) {
    return kOne;
  }
  return static_cast<int32_t>(s);
}

int32_t SigmaPrime(int32_t x) {
  // x * (1 - x), in Q12.
  return static_cast<int32_t>((static_cast<int64_t>(x) * (kOne - x)) >> kShift);
}

}  // namespace

NeuralResult RunNeuralPlatinum(kernel::Kernel& kernel, const NeuralConfig& config) {
  const int n_in = config.inputs;
  const int n_hid = config.hidden;
  const int n_out = config.outputs;
  const int n_units = n_in + n_hid + n_out;
  const int p = config.processors;
  PLAT_CHECK_GE(p, 1);
  PLAT_CHECK_LE(p, kernel.num_processors());
  PLAT_CHECK_LE(config.patterns, n_in);
  PLAT_CHECK_LE(config.patterns, n_out);

  auto* space = kernel.CreateAddressSpace("neural");
  rt::ZoneAllocator zone(&kernel, space);
  // The simulator was written by a newcomer (Section 5.3): activations,
  // errors and all the weights are packed together without regard to page
  // boundaries, so units simulated by different processors share pages at
  // very fine grain.
  auto x = rt::SharedArray<int32_t>::Create(zone, "nn-activations", n_units);
  auto y = rt::SharedArray<int32_t>::Create(zone, "nn-errors", n_units);
  auto w = rt::SharedArray<int32_t>::Create(zone, "nn-weights",
                                            static_cast<size_t>(n_units) * n_units);
  rt::Barrier barrier(zone, "nn-barrier", static_cast<uint32_t>(p));
  // The relaxation reads neighbors' activations, errors and weights while
  // their owners update them, with no synchronization — chaotic relaxation
  // relying only on word atomicity. Tell the race detector this sharing is
  // intentional rather than a bug.
  kernel.AnnotateIntentionalSharing(space, x.base_va(), static_cast<uint32_t>(n_units) * 4);
  kernel.AnnotateIntentionalSharing(space, y.base_va(), static_cast<uint32_t>(n_units) * 4);
  kernel.AnnotateIntentionalSharing(space, w.base_va(),
                                    static_cast<uint32_t>(n_units) * n_units * 4);
  if (config.advise_write_shared) {
    kernel.AdviseMemory(space, x.base_va(), static_cast<uint32_t>(n_units) * 4,
                        mem::MemoryAdvice::kWriteShared);
    kernel.AdviseMemory(space, y.base_va(), static_cast<uint32_t>(n_units) * 4,
                        mem::MemoryAdvice::kWriteShared);
    kernel.AdviseMemory(space, w.base_va(),
                        static_cast<uint32_t>(n_units) * n_units * 4,
                        mem::MemoryAdvice::kWriteShared);
  }

  auto weight_index = [n_units](int u, int v) {
    return static_cast<size_t>(u) * n_units + static_cast<size_t>(v);
  };
  // Unit topology: hidden units read all inputs, output units read all
  // hidden units; hidden error terms read back from all outputs.
  auto fanin_first = [&](int u) { return u < n_in + n_hid ? 0 : n_in; };
  auto fanin_last = [&](int u) { return u < n_in + n_hid ? n_in : n_in + n_hid; };
  auto is_hidden = [&](int u) { return u >= n_in && u < n_in + n_hid; };

  // For-loop parallelization on units, dealt out so that every processor's
  // per-step weight traffic is balanced (hidden units touch fan-in + fan-out
  // weights, output units only fan-in). Greedy largest-first bin packing.
  std::vector<int> owner(n_units, -1);
  {
    std::vector<std::pair<int, int>> cost_unit;  // (work, unit)
    for (int u = n_in; u < n_units; ++u) {
      int work = (fanin_last(u) - fanin_first(u)) + (is_hidden(u) ? n_out : 1);
      cost_unit.emplace_back(work, u);
    }
    std::sort(cost_unit.rbegin(), cost_unit.rend());
    std::vector<long> load(p, 0);
    for (const auto& [work, u] : cost_unit) {
      int best = static_cast<int>(std::min_element(load.begin(), load.end()) - load.begin());
      owner[u] = best;
      load[best] += work;
    }
  }

  const int32_t eta = kOne / 2;
  uint64_t initial_error = 0;
  uint64_t final_error = 0;
  sim::SimTime t_start = 0;

  rt::RunOnProcessors(kernel, space, p, "neural", [&](int pid) {
    sim::Machine& machine = kernel.machine();
    // Weight initialization: owners write their units' fan-in weights.
    for (int u = n_in; u < n_units; ++u) {
      if (owner[u] != pid) {
        continue;
      }
      for (int v = fanin_first(u); v < fanin_last(u); ++v) {
        w.Set(weight_index(u, v),
              static_cast<int32_t>(Mix64(config.seed ^ weight_index(u, v)) % 2048) - 1024);
      }
    }
    barrier.Wait();
    if (pid == 0) {
      t_start = kernel.Now();
    }

    for (int epoch = 0; epoch < config.epochs; ++epoch) {
      uint64_t epoch_error = 0;
      for (int pattern = 0; pattern < config.patterns; ++pattern) {
        // Clamp the one-hot input.
        if (pid == 0) {
          for (int u = 0; u < n_in; ++u) {
            x.Set(u, u == pattern ? kOne : 0);
          }
        }
        barrier.Wait();

        // Combined relaxation of the activation and error dynamics
        // (recurrent backpropagation settles both by iteration). Processors
        // run their units' updates with no synchronization, relying only on
        // the atomicity of word accesses — the paper's programming style.
        for (int step = 0; step < config.relax_steps; ++step) {
          for (int u = n_in; u < n_units; ++u) {
            if (owner[u] != pid) {
              continue;
            }
            int64_t net = 0;
            for (int v = fanin_first(u); v < fanin_last(u); ++v) {
              net += (static_cast<int64_t>(w.Get(weight_index(u, v))) * x.Get(v)) >> kShift;
              machine.Compute(config.compute_per_weight_ns);
            }
            x.Set(u, Sigma(net));
            if (is_hidden(u)) {
              // Error relaxation: back-propagate through the fan-out weights.
              int64_t back = 0;
              for (int o = n_in + n_hid; o < n_units; ++o) {
                back += (static_cast<int64_t>(w.Get(weight_index(o, u))) * y.Get(o)) >> kShift;
                machine.Compute(config.compute_per_weight_ns);
              }
              y.Set(u, static_cast<int32_t>((back * SigmaPrime(x.Get(u))) >> kShift));
            } else {
              int32_t target = (u - n_in - n_hid) == pattern ? kOne : 0;
              y.Set(u, target - x.Get(u));
              machine.Compute(config.compute_per_weight_ns);
            }
          }
        }

        // Weight update along the settled gradient.
        for (int u = n_in; u < n_units; ++u) {
          if (owner[u] != pid) {
            continue;
          }
          int32_t yu = y.Get(u);
          for (int v = fanin_first(u); v < fanin_last(u); ++v) {
            int64_t dw = (static_cast<int64_t>(eta) * yu) >> kShift;
            dw = (dw * x.Get(v)) >> kShift;
            w.Set(weight_index(u, v),
                  w.Get(weight_index(u, v)) + static_cast<int32_t>(dw));
            machine.Compute(config.compute_per_weight_ns);
          }
        }

        // Track the epoch error (host-side accumulation by thread 0).
        if (pid == 0) {
          for (int o = n_in + n_hid; o < n_units; ++o) {
            int32_t target = (o - n_in - n_hid) == pattern ? kOne : 0;
            epoch_error += static_cast<uint64_t>(std::abs(target - x.Get(o)));
          }
        }
        barrier.Wait();
      }
      if (pid == 0) {
        if (epoch == 0) {
          initial_error = epoch_error;
        }
        final_error = epoch_error;
      }
    }
  });

  NeuralResult result;
  result.train_ns = kernel.machine().scheduler().global_now() - t_start;
  result.initial_error = initial_error;
  result.final_error = final_error;
  result.verified = !config.verify || final_error < initial_error;
  PLAT_CHECK(result.verified) << "neural simulator failed to learn (error " << initial_error
                              << " -> " << final_error << ")";
  return result;
}

}  // namespace platinum::apps
