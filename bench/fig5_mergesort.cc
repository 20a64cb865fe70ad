// Figure 5: merge sort speedup — PLATINUM on the Butterfly Plus vs. the same
// program on a Sequent Symmetry (UMA, model A processors with 8 KB
// write-through caches).
//
// The paper reports better speedup under PLATINUM for the same problem size
// and processor count, attributing the Sequent's disadvantage to its small
// write-through caches: during each merge phase half the data is already in
// the merging processor's local memory and each coherent page fault
// prefetches a page of the linear scan, while the Sequent re-fetches
// everything over the shared bus.
#include "bench/bench_util.h"
#include "src/apps/mergesort.h"
#include "src/kernel/kernel.h"
#include "src/sim/machine.h"

namespace {

using namespace platinum;  // NOLINT

size_t ElementCount() {
  return static_cast<size_t>(
      bench::EnvInt("PLATINUM_SORT_COUNT", bench::FullScale() ? 1 << 18 : 1 << 15));
}

apps::SortConfig ConfigFor(int processors) {
  apps::SortConfig config;
  config.count = ElementCount();
  config.processors = processors;
  config.verify = config.count <= (1 << 15);
  return config;
}

sim::SimTime RunPlatinum(int processors) {
  sim::Machine machine(sim::ButterflyPlusParams(16));
  kernel::Kernel kernel(&machine);
  sim::SimTime t = RunMergeSortPlatinum(kernel, ConfigFor(processors)).sort_ns;
  bench::RunMetrics::Count(machine);
  return t;
}

sim::SimTime RunSequent(int processors) {
  uma::UmaParams params;
  params.num_processors = 16;
  uma::UmaMachine machine(params);
  sim::SimTime t = RunMergeSortUma(machine, ConfigFor(processors)).sort_ns;
  bench::RunMetrics::Count(machine);
  return t;
}

}  // namespace

int main() {
  bench::SpeedupTable table(
      "Figure 5: merge sort (" + std::to_string(ElementCount()) + " elements)",
      {"PLATINUM", "Sequent-UMA"});
  for (int p : {1, 2, 4, 8, 16}) {
    table.AddRow(p, {RunPlatinum(p), RunSequent(p)});
  }
  table.Print();
  bench::MaybeWriteJson(table, "fig5_mergesort");
  bench::PrintPaperNote(
      "the program shows better speedup on the Butterfly Plus under PLATINUM "
      "than on the Sequent Symmetry for the same problem size and processor "
      "count (tree merge sort has modest maximum speedup by construction).");
  bench::RunMetrics::Print();
  return 0;
}
