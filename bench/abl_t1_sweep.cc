// Ablation (Section 4.2): sensitivity to the freeze window t1.
//
// "A few tests indicated that application performance is insensitive to
// varying t1 from 10 ms up to about 100 ms." This bench sweeps t1 across
// two decades for Gaussian elimination (replication-friendly) and the
// neural simulator (freeze-dominated), and also tries the thaw-on-access
// policy variant, for which the paper saw no significant difference.
#include <memory>
#include <vector>

#include "bench/bench_util.h"
#include "src/apps/gauss.h"
#include "src/apps/neural.h"
#include "src/kernel/kernel.h"
#include "src/mem/policy.h"
#include "src/sim/machine.h"

namespace {

using namespace platinum;  // NOLINT
using sim::kMillisecond;
using sim::SimTime;

SimTime RunGauss(SimTime t1, bool thaw_on_access) {
  sim::Machine machine(sim::ButterflyPlusParams(16));
  kernel::KernelOptions options;
  options.policy = std::make_unique<mem::TimestampPolicy>(t1, thaw_on_access);
  kernel::Kernel kernel(&machine, std::move(options));
  apps::GaussConfig config;
  config.n = bench::EnvInt("PLATINUM_GAUSS_N", bench::FullScale() ? 512 : 160);
  config.processors = 16;
  config.verify = false;
  SimTime t = RunGaussPlatinum(kernel, config).elimination_ns;
  bench::RunMetrics::Count(machine);
  return t;
}

SimTime RunNeural(SimTime t1, bool thaw_on_access) {
  sim::Machine machine(sim::ButterflyPlusParams(16));
  kernel::KernelOptions options;
  options.policy = std::make_unique<mem::TimestampPolicy>(t1, thaw_on_access);
  kernel::Kernel kernel(&machine, std::move(options));
  apps::NeuralConfig config;
  config.processors = 16;
  config.epochs = bench::EnvInt("PLATINUM_NEURAL_EPOCHS", 5);
  SimTime t = RunNeuralPlatinum(kernel, config).train_ns;
  bench::RunMetrics::Count(machine);
  return t;
}

}  // namespace

int main() {
  std::printf("\n=== Ablation: freeze window t1 (Section 4.2) ===\n");
  std::printf("%8s %18s %18s %22s\n", "t1 (ms)", "gauss 16p (s)", "neural 16p (s)",
              "gauss thaw-on-access");
  const std::vector<SimTime> t1_values = {1, 3, 10, 30, 100, 300};
  const int n_t1 = static_cast<int>(t1_values.size());
  // 3 experiments per t1 value, every point an independent machine.
  bench::SweepRunner runner;
  std::vector<SimTime> times = runner.Map(3 * n_t1, [&](int i) -> SimTime {
    SimTime t1 = t1_values[static_cast<size_t>(i % n_t1)] * kMillisecond;
    switch (i / n_t1) {
      case 0:
        return RunGauss(t1, false);
      case 1:
        return RunNeural(t1, false);
      default:
        return RunGauss(t1, true);
    }
  });
  double gauss_10 = 0;
  double gauss_100 = 0;
  for (int i = 0; i < n_t1; ++i) {
    SimTime t1_ms = t1_values[static_cast<size_t>(i)];
    double g = sim::ToSeconds(times[static_cast<size_t>(i)]);
    double n = sim::ToSeconds(times[static_cast<size_t>(n_t1 + i)]);
    double g_thaw = sim::ToSeconds(times[static_cast<size_t>(2 * n_t1 + i)]);
    if (t1_ms == 10) {
      gauss_10 = g;
    }
    if (t1_ms == 100) {
      gauss_100 = g;
    }
    std::printf("%8llu %18.3f %18.3f %22.3f\n", static_cast<unsigned long long>(t1_ms), g, n,
                g_thaw);
  }
  std::printf("gauss variation across t1 in [10,100] ms: %.1f%%\n",
              100.0 * (gauss_100 - gauss_10) / gauss_10);
  bench::PrintPaperNote(
      "application performance is insensitive to varying t1 from 10 ms up to "
      "about 100 ms; the default and thaw-on-access freezing policies show no "
      "significant difference.");
  bench::RunMetrics::Print();
  return 0;
}
