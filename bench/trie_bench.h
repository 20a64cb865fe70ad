// Shared grid-cell helper for the serving-workload benches
// (fig_trie_serve, abl_lease): one independent machine per cell running the
// trie workload under a chosen protocol / replication policy / lease
// configuration, returning the simulated serve-phase duration.
#ifndef BENCH_TRIE_BENCH_H_
#define BENCH_TRIE_BENCH_H_

#include <utility>

#include "bench/bench_util.h"
#include "src/kernel/kernel.h"
#include "src/load/driver.h"
#include "src/mem/policy.h"
#include "src/sim/machine.h"

namespace platinum::bench {

struct TrieCell {
  const char* protocol = "directory";
  const char* policy = "timestamp";
  sim::SimTime lease_ns = 0;  // 0 = the tardis protocol's default lease
  const char* lease_policy = "fixed";
  int procs = 16;
};

// The workload every cell runs: sized by the PLATINUM_TRIE_* knobs, fixed
// total request volume (so more nodes serving the same traffic is the
// Figure-1 speedup question), contents verified against the reference
// replay on every cell.
inline sim::SimTime RunTrieCell(const TrieCell& cell) {
  sim::Machine machine(sim::ButterflyPlusParams(cell.procs));
  kernel::KernelOptions options;
  options.protocol = cell.protocol;
  options.policy = mem::MakePolicy(cell.policy, machine.params().t1_freeze_window_ns);
  options.tardis_lease_ns = cell.lease_ns;
  options.tardis_lease_policy = cell.lease_policy;
  kernel::Kernel kernel(&machine, std::move(options));

  load::DriverConfig config;
  config.spec.keys =
      static_cast<uint32_t>(EnvInt("PLATINUM_TRIE_KEYS", 1 << 14));
  config.spec.ops = static_cast<uint64_t>(
      EnvInt("PLATINUM_TRIE_OPS", FullScale() ? 2000000 : 200000));
  config.procs = cell.procs;
  load::ServeResult result = load::RunTrieServe(kernel, config);
  RunMetrics::Count(machine);
  return result.serve_ns;
}

}  // namespace platinum::bench

#endif  // BENCH_TRIE_BENCH_H_
