// Figure 6: recurrent backpropagation simulator speedup.
//
// A three-layer network (40 units, 16 input/output pairs of the classic
// encoder problem), parallelized by for-loop parallelization on units with
// no synchronization beyond word atomicity. The coherent memory system
// quickly gives up and freezes the shared data pages, so the curve is
// roughly linear but each additional processor contributes only a fraction
// of an all-local processor (the paper says about one half).
#include "bench/bench_util.h"
#include "src/apps/neural.h"
#include "src/kernel/kernel.h"
#include "src/kernel/report.h"
#include "src/sim/machine.h"

namespace {

using namespace platinum;  // NOLINT

apps::NeuralConfig ConfigFor(int processors) {
  apps::NeuralConfig config;
  config.processors = processors;
  config.epochs = bench::EnvInt("PLATINUM_NEURAL_EPOCHS", bench::FullScale() ? 16 : 6);
  return config;
}

struct RunOutput {
  sim::SimTime time;
  uint32_t pages_frozen;
};

RunOutput Run(int processors) {
  sim::Machine machine(sim::ButterflyPlusParams(16));
  kernel::Kernel kernel(&machine);
  apps::NeuralResult result = RunNeuralPlatinum(kernel, ConfigFor(processors));
  kernel::MemoryReport report = BuildMemoryReport(kernel);
  bench::RunMetrics::Count(machine);
  return RunOutput{result.train_ns, report.pages_ever_frozen};
}

}  // namespace

int main() {
  std::printf("\n=== Figure 6: recurrent backpropagation simulator ===\n");
  std::printf("%5s %12s %8s %14s %13s\n", "procs", "train (s)", "speedup", "incr. speedup",
              "pages frozen");
  double base = 0;
  double previous = 0;
  for (int p : {1, 2, 4, 6, 8, 10, 12, 14, 16}) {
    RunOutput out = Run(p);
    double t = sim::ToSeconds(out.time);
    if (p == 1) {
      base = t;
      previous = 1.0;
    }
    double speedup = base / t;
    std::printf("%5d %12.3f %8.2f %14.2f %13u\n", p, t, speedup, speedup - previous,
                out.pages_frozen);
    previous = speedup;
  }
  bench::PrintPaperNote(
      "speedup is linear over the range measured, but the extensive use of "
      "remote accesses limits the contribution of each incremental processor "
      "to about 1/2 that of a processor making only local references; the "
      "application's shared data pages are frozen in place.");
  bench::RunMetrics::Print();
  return 0;
}
