// Ablation: tardis lease tuning on the serving trie (ROADMAP "protocol
// zoo" — the lease-policy ablation on the fine-grain workload where tardis
// currently loses at 64 nodes).
//
// A tardis writer stalls until outstanding read leases drain, so the lease
// duration is the protocol's central knob: short leases make writes cheap
// but re-lease hot read-mostly pages constantly; long leases amortize reads
// but stretch every write stall. The doubling policy grows a page's lease
// while it stays read-only and resets it on a write, approximating
// per-page adaptivity. This bench pins the trade against the directory
// protocol on the trie workload at 16/32/64 nodes, bracketing the default
// 50 us lease from both sides.
#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "bench/trie_bench.h"

namespace {

using namespace platinum;  // NOLINT
using sim::SimTime;

const int kProcCounts[] = {16, 32, 64};
constexpr int kNumProcCounts = 3;

// Column layout: the directory baseline, then (lease duration x lease
// policy) for tardis.
struct LeaseVariant {
  const char* label;
  const char* protocol;
  sim::SimTime lease_ns;
  const char* lease_policy;
};
const LeaseVariant kVariants[] = {
    {"directory", "directory", 0, "fixed"},
    {"fixed-25us", "tardis", 25 * sim::kMicrosecond, "fixed"},
    {"dbl-25us", "tardis", 25 * sim::kMicrosecond, "doubling"},
    {"fixed-200us", "tardis", 200 * sim::kMicrosecond, "fixed"},
    {"dbl-200us", "tardis", 200 * sim::kMicrosecond, "doubling"},
};
constexpr int kNumVariants = 5;

}  // namespace

int main() {
  std::printf("\n=== Ablation: tardis lease duration/policy on the serving trie ===\n");
  bench::SweepRunner runner;
  std::vector<SimTime> times =
      runner.Map(kNumVariants * kNumProcCounts, [&](int i) -> SimTime {
        const LeaseVariant& v = kVariants[i / kNumProcCounts];
        bench::TrieCell cell;
        cell.protocol = v.protocol;
        cell.lease_ns = v.lease_ns;
        cell.lease_policy = v.lease_policy;
        cell.procs = kProcCounts[i % kNumProcCounts];
        return RunTrieCell(cell);
      });

  std::vector<std::string> columns;
  for (const LeaseVariant& v : kVariants) {
    columns.push_back(v.label);
  }
  bench::SpeedupTable table("trie-serve: tardis lease ablation vs. directory", columns);
  for (int procs = 0; procs < kNumProcCounts; ++procs) {
    std::vector<SimTime> row;
    for (int variant = 0; variant < kNumVariants; ++variant) {
      row.push_back(times[static_cast<size_t>(variant * kNumProcCounts + procs)]);
    }
    table.AddRow(kProcCounts[procs], row);
  }
  table.Print();
  bench::MaybeWriteJson(table, "abl_lease");

  bench::PrintPaperNote(
      "the trie's interior pages are read by every lookup and written only "
      "on structural growth — ideal lease-doubling territory — while hot "
      "leaf pages see steady owner writes, so every lease extension there "
      "turns into a write stall. Wherever tardis trails the directory "
      "protocol at 64 nodes, the gap should shrink with doubling leases and "
      "widen with long fixed ones.");
  bench::RunMetrics::Print();
  return 0;
}
