// Figure-1-style speedup curves for the serving workload (docs/WORKLOADS.md).
//
// The paper's Figure 1 plots application speedup against machine size; this
// bench extends the scenario family to the serving trie: a fixed volume of
// Zipf-distributed lookups with owner-sharded insert/erase churn, served by
// 16/32/64 nodes. Two tables:
//   * directory vs. tardis — the protocol trade on a pointer-chasing,
//     fine-grain workload (contrast with abl_protocol's dense apps);
//   * replication policies — where the paper's replicate-vs-freeze decision
//     earns its keep: read-mostly interior nodes want replication, hot
//     leaves under write sharing must freeze instead of thrash.
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "bench/trie_bench.h"

namespace {

using namespace platinum;  // NOLINT
using sim::SimTime;

const int kProcCounts[] = {16, 32, 64};
constexpr int kNumProcCounts = 3;

const char* kProtocols[] = {"directory", "tardis"};
constexpr int kNumProtocols = 2;

const char* kPolicies[] = {"timestamp", "always", "never", "migrate-then-freeze"};
constexpr int kNumPolicies = 4;

}  // namespace

int main() {
  std::printf("\n=== Serving trie at 16/32/64 nodes ===\n");
  // One flat grid so every cell shards across SweepRunner workers: first the
  // protocol comparison (timestamp policy), then the policy sweep (directory
  // protocol).
  std::vector<bench::TrieCell> cells;
  for (int protocol = 0; protocol < kNumProtocols; ++protocol) {
    for (int procs = 0; procs < kNumProcCounts; ++procs) {
      bench::TrieCell cell;
      cell.protocol = kProtocols[protocol];
      cell.procs = kProcCounts[procs];
      cells.push_back(cell);
    }
  }
  const size_t policy_base = cells.size();
  for (int policy = 0; policy < kNumPolicies; ++policy) {
    for (int procs = 0; procs < kNumProcCounts; ++procs) {
      bench::TrieCell cell;
      cell.policy = kPolicies[policy];
      cell.procs = kProcCounts[procs];
      cells.push_back(cell);
    }
  }

  bench::SweepRunner runner;
  std::vector<SimTime> times = runner.Map(
      static_cast<int>(cells.size()),
      [&](int i) -> SimTime { return RunTrieCell(cells[static_cast<size_t>(i)]); });

  bench::SpeedupTable protocol_table("trie-serve: directory vs. tardis",
                                     {"directory", "tardis"});
  for (int procs = 0; procs < kNumProcCounts; ++procs) {
    protocol_table.AddRow(kProcCounts[procs],
                          {times[static_cast<size_t>(procs)],
                           times[static_cast<size_t>(kNumProcCounts + procs)]});
  }
  protocol_table.Print();
  bench::MaybeWriteJson(protocol_table, "fig_trie_serve_protocol");

  bench::SpeedupTable policy_table(
      "trie-serve: replication policies (directory)",
      {"timestamp", "always", "never", "migrate-then-freeze"});
  for (int procs = 0; procs < kNumProcCounts; ++procs) {
    std::vector<SimTime> row;
    for (int policy = 0; policy < kNumPolicies; ++policy) {
      row.push_back(
          times[policy_base + static_cast<size_t>(policy * kNumProcCounts + procs)]);
    }
    policy_table.AddRow(kProcCounts[procs], row);
  }
  policy_table.Print();
  bench::MaybeWriteJson(policy_table, "fig_trie_serve_policy");

  bench::PrintPaperNote(
      "the serving trie is the workload where replication policy earns its "
      "keep: interior nodes are read by every lookup and written only during "
      "structural growth, so the timestamp policy replicates them, while hot "
      "leaves are rewritten under concurrent readers and freeze. "
      "always-cache thrashes on the hot leaves (invalidation storms), "
      "never-cache serves every interior hop remotely; the adaptive policies "
      "should dominate both at every machine size.");
  bench::RunMetrics::Print();
  return 0;
}
