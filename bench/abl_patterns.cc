// Ablation: policy behaviour across canonical sharing patterns.
//
// The systematic policy experiment Section 9 promises: every replication
// policy against every canonical NUMA sharing pattern. The paper's thesis is
// that the timestamp policy matches always-cache on patterns where data
// motion pays (private, read-shared, slow migratory) and matches never-cache
// where it does not (hot-spot writes, false sharing).
#include <memory>

#include "bench/bench_util.h"
#include "src/apps/patterns.h"
#include "src/kernel/kernel.h"
#include "src/mem/policy.h"
#include "src/sim/machine.h"

namespace {

using namespace platinum;  // NOLINT

std::unique_ptr<mem::ReplicationPolicy> MakePolicy(int which) {
  switch (which) {
    case 0:
      return std::make_unique<mem::TimestampPolicy>(10 * sim::kMillisecond);
    case 1:
      return std::make_unique<mem::AlwaysCachePolicy>();
    default:
      return std::make_unique<mem::NeverCachePolicy>();
  }
}

const char* kPolicyNames[] = {"timestamp", "always-cache", "never-cache"};

const apps::AccessPattern kPatterns[] = {
    apps::AccessPattern::kPrivate,       apps::AccessPattern::kReadShared,
    apps::AccessPattern::kMigratory,     apps::AccessPattern::kProducerConsumer,
    apps::AccessPattern::kHotSpotWrite,  apps::AccessPattern::kFalseSharing,
};

apps::PatternResult RunOne(apps::AccessPattern pattern, int policy, sim::SimTime think) {
  sim::Machine machine(sim::ButterflyPlusParams(16));
  kernel::KernelOptions options;
  options.policy = MakePolicy(policy);
  kernel::Kernel kernel(&machine, std::move(options));
  apps::PatternConfig config;
  config.pattern = pattern;
  config.processors = 8;
  config.rounds = 40;
  config.think_ns = think;
  apps::PatternResult result = RunPattern(kernel, config);
  bench::RunMetrics::Count(machine);
  return result;
}

}  // namespace

int main() {
  for (sim::SimTime think : {200 * sim::kMicrosecond, 15 * sim::kMillisecond}) {
    std::printf("\n=== Ablation: patterns x policies (8 procs, %.1f ms between rounds) ===\n",
                sim::ToMilliseconds(think));
    std::printf("%-18s", "pattern");
    for (const char* name : kPolicyNames) {
      std::printf(" %14s", name);
    }
    std::printf("   (elapsed ms; protocol actions repl/migr/rmap/freeze under timestamp)\n");
    for (apps::AccessPattern pattern : kPatterns) {
      std::printf("%-18s", std::string(AccessPatternName(pattern)).c_str());
      apps::PatternResult ts_result{};
      for (int policy = 0; policy < 3; ++policy) {
        apps::PatternResult result = RunOne(pattern, policy, think);
        if (policy == 0) {
          ts_result = result;
        }
        std::printf(" %14.2f", sim::ToMilliseconds(result.elapsed_ns));
      }
      std::printf("   %llu/%llu/%llu/%llu\n",
                  static_cast<unsigned long long>(ts_result.replications),
                  static_cast<unsigned long long>(ts_result.migrations),
                  static_cast<unsigned long long>(ts_result.remote_maps),
                  static_cast<unsigned long long>(ts_result.freezes));
    }
  }
  bench::PrintPaperNote(
      "the timestamp policy should be within reach of the better of the two "
      "extreme policies on every pattern: caching where data motion pays, "
      "remote access where interleaved writes would thrash the protocol.");
  bench::RunMetrics::Print();
  return 0;
}
