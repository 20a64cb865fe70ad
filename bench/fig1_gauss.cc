// Figure 1: Gaussian elimination speedup vs. processors.
//
// The paper reports, for an 800x800 integer Gauss elimination on a
// 16-processor Butterfly Plus: PLATINUM coherent memory 13.5x, the Uniform
// System implementation 10.6x, and the SMP message-passing implementation
// 15.3x. This bench regenerates all three curves on the simulated machine.
//
// Default matrix size is 400 (seconds of host time); PLATINUM_FULL=1 runs
// the paper's 800x800, and PLATINUM_GAUSS_N overrides explicitly.
#include <vector>

#include "bench/bench_util.h"
#include "src/apps/gauss.h"
#include "src/kernel/kernel.h"
#include "src/sim/machine.h"

namespace {

using namespace platinum;  // NOLINT

int MatrixSize() {
  return bench::EnvInt("PLATINUM_GAUSS_N", bench::FullScale() ? 800 : 400);
}

apps::GaussConfig ConfigFor(int processors) {
  apps::GaussConfig config;
  config.n = MatrixSize();
  config.processors = processors;
  // Verify only the small runs; verification re-reads the whole matrix.
  config.verify = config.n <= 400;
  return config;
}

sim::SimTime RunPlatinum(int processors) {
  sim::Machine machine(sim::ButterflyPlusParams(16));
  kernel::Kernel kernel(&machine);
  sim::SimTime t = RunGaussPlatinum(kernel, ConfigFor(processors)).elimination_ns;
  bench::RunMetrics::Count(machine);
  return t;
}

sim::SimTime RunUniform(int processors) {
  sim::Machine machine(sim::ButterflyPlusParams(16));
  sim::SimTime t = RunGaussUniformSystem(machine, ConfigFor(processors)).elimination_ns;
  bench::RunMetrics::Count(machine);
  return t;
}

sim::SimTime RunSmp(int processors) {
  sim::Machine machine(sim::ButterflyPlusParams(16));
  kernel::Kernel kernel(&machine);
  sim::SimTime t = RunGaussMessagePassing(kernel, ConfigFor(processors)).elimination_ns;
  bench::RunMetrics::Count(machine);
  return t;
}

constexpr int kProcCounts[] = {1, 2, 4, 8, 12, 16};
constexpr int kNumProcCounts = 6;
constexpr int kNumSystems = 3;

}  // namespace

int main() {
  // Every (processor count, system) point is an independent machine.
  bench::SweepRunner runner;
  std::vector<sim::SimTime> times =
      runner.Map(kNumProcCounts * kNumSystems, [](int i) -> sim::SimTime {
        int p = kProcCounts[i / kNumSystems];
        switch (i % kNumSystems) {
          case 0:
            return RunPlatinum(p);
          case 1:
            return RunUniform(p);
          default:
            return RunSmp(p);
        }
      });
  bench::SpeedupTable table(
      "Figure 1: Gaussian elimination (n=" + std::to_string(MatrixSize()) + ")",
      {"PLATINUM", "UniformSys", "SMP-msg"});
  for (int row = 0; row < kNumProcCounts; ++row) {
    auto first = times.begin() + row * kNumSystems;
    table.AddRow(kProcCounts[row], std::vector<sim::SimTime>(first, first + kNumSystems));
  }
  table.Print();
  bench::MaybeWriteJson(table, "fig1_gauss");
  bench::PrintPaperNote(
      "16-processor speedups on the Butterfly Plus (800x800): PLATINUM 13.5, "
      "Uniform System 10.6, SMP message passing 15.3. Expected shape: "
      "SMP > PLATINUM > Uniform System, all near-linear at low processor counts.");
  bench::RunMetrics::Print();
  return 0;
}
