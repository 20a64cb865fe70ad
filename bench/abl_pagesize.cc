// Ablation (Section 4.1 discussion): page-size sweep.
//
// A larger page amortizes the fixed fault overhead over more data (good for
// coarse-grain access like Gauss pivot rows and merge-sort scans), but for a
// fixed sharing granularity smaller than a page the reference density rho
// falls with page size, negating the benefit — and false sharing grows.
// "Once the collection of application programs has grown to a reasonable
// size we will systematically experiment with parameters such as page size"
// (Section 9) — this is that experiment.
#include <vector>

#include "bench/bench_util.h"
#include "src/apps/gauss.h"
#include "src/apps/mergesort.h"
#include "src/apps/neural.h"
#include "src/kernel/kernel.h"
#include "src/sim/machine.h"

namespace {

using namespace platinum;  // NOLINT
using sim::SimTime;

sim::MachineParams ParamsWithPageSize(uint32_t bytes) {
  sim::MachineParams params = sim::ButterflyPlusParams(16);
  params.page_size_bytes = bytes;
  // Keep total memory per node constant at 4 MB.
  params.frames_per_module = (4u << 20) / bytes;
  return params;
}

SimTime GaussAt(uint32_t page_bytes) {
  sim::Machine machine(ParamsWithPageSize(page_bytes));
  kernel::Kernel kernel(&machine);
  apps::GaussConfig config;
  config.n = bench::EnvInt("PLATINUM_GAUSS_N", bench::FullScale() ? 512 : 160);
  config.processors = 16;
  config.verify = false;
  SimTime t = RunGaussPlatinum(kernel, config).elimination_ns;
  bench::RunMetrics::Count(machine);
  return t;
}

SimTime SortAt(uint32_t page_bytes) {
  sim::Machine machine(ParamsWithPageSize(page_bytes));
  kernel::Kernel kernel(&machine);
  apps::SortConfig config;
  config.count = static_cast<size_t>(bench::EnvInt("PLATINUM_SORT_COUNT", 1 << 14));
  config.processors = 16;
  config.verify = false;
  SimTime t = RunMergeSortPlatinum(kernel, config).sort_ns;
  bench::RunMetrics::Count(machine);
  return t;
}

SimTime NeuralAt(uint32_t page_bytes) {
  sim::Machine machine(ParamsWithPageSize(page_bytes));
  kernel::Kernel kernel(&machine);
  apps::NeuralConfig config;
  config.processors = 16;
  config.epochs = bench::EnvInt("PLATINUM_NEURAL_EPOCHS", 4);
  SimTime t = RunNeuralPlatinum(kernel, config).train_ns;
  bench::RunMetrics::Count(machine);
  return t;
}

}  // namespace

int main() {
  std::printf("\n=== Ablation: page size (16 processors) ===\n");
  std::printf("%10s %12s %12s %12s\n", "page (B)", "gauss (s)", "sort (s)", "neural (s)");
  const std::vector<uint32_t> sizes = {512u, 1024u, 2048u, 4096u, 8192u, 16384u};
  const int n_sizes = static_cast<int>(sizes.size());
  // 3 applications per page size, every point an independent machine.
  bench::SweepRunner runner;
  std::vector<SimTime> times = runner.Map(3 * n_sizes, [&](int i) -> SimTime {
    uint32_t bytes = sizes[static_cast<size_t>(i % n_sizes)];
    switch (i / n_sizes) {
      case 0:
        return GaussAt(bytes);
      case 1:
        return SortAt(bytes);
      default:
        return NeuralAt(bytes);
    }
  });
  for (int i = 0; i < n_sizes; ++i) {
    std::printf("%10u %12.3f %12.3f %12.3f\n", sizes[static_cast<size_t>(i)],
                sim::ToSeconds(times[static_cast<size_t>(i)]),
                sim::ToSeconds(times[static_cast<size_t>(n_sizes + i)]),
                sim::ToSeconds(times[static_cast<size_t>(2 * n_sizes + i)]));
  }
  bench::PrintPaperNote(
      "the economical page size tracks the program's data-access granularity "
      "(Section 4.1): pages much larger than a Gauss pivot row or a sort run "
      "move unused words on every replication (rho falls with page size), "
      "while pages smaller than the granularity multiply the fixed per-fault "
      "overhead. The fine-grain neural simulator is largely insensitive: its "
      "pages freeze whatever their size.");
  bench::RunMetrics::Print();
  return 0;
}
