// The benchmark's three workloads, each one call of an app's public entry
// point on a freshly built sim::Machine + kernel::Kernel.
//
// All three run the platsim defaults: the directory protocol, the timestamp
// policy (t1 = 10 ms) and the defrost daemon.
//   gauss           RunGaussPlatinum, 16 workers on 16 nodes, no observers:
//                   the inline ATC-hit access path.
//   sort_forensics  RunMergeSortPlatinum, 16 workers on 16 nodes, with
//                   obs::PageTrace and obs::EpochSampler attached: Pmap
//                   refill, block ranges and the observer hooks.
//   trie_serve      load::RunTrieServe, 64 closed-loop clients on 64 nodes:
//                   fiber switches, the kernel RMW path, faults and
//                   shootdowns, and per-request simulated latency.
#ifndef PERFBENCH_PLATBENCH_WORKLOADS_H_
#define PERFBENCH_PLATBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>

#include "src/load/request_gen.h"
#include "src/sim/stats.h"
#include "platbench/spans.h"

namespace platbench {

enum class Workload { kGauss, kSortForensics, kTrieServe };

bool ParseWorkload(const std::string& name, Workload* out);
const char* WorkloadName(Workload workload);

// kSmall shrinks every input so the self-test finishes in about a second;
// kFull is what the benchmark measures.
enum class Scale { kFull, kSmall };

// The trie_serve request mix; also what the load.script_s probe generates.
platinum::load::WorkloadSpec TrieSpec(uint64_t seed, Scale scale);
inline constexpr int kTrieClients = 64;

// What one entry call produced.
struct RunOutcome {
  double setup_s = 0;  // host: machine + kernel construction, observer attach
  double host_s = 0;   // host: the app entry call
  double user_s = 0;   // host: user CPU time of the entry call
  double sys_s = 0;    // host: kernel CPU time of the entry call
  bool verified = false;
  double sim_s = 0;  // simulated duration of the app's measured phase
  platinum::sim::MachineStats stats;
  uint64_t context_switches = 0;
  // Hash of stats, sim_s and context_switches: equal runs of one workload
  // and seed must agree on it.
  uint64_t digest = 0;
  double fault_p99_us = 0;  // simulated, fault_service histogram
  uint64_t page_events = 0;  // events the attached PageTrace saw
  // trie_serve only.
  double read_p50_us = 0;  // simulated latency of read hits
  double read_p99_us = 0;
  double kreq_per_s = 0;  // thousands of requests per simulated second
  uint64_t lookups = 0;
  uint64_t lookup_retries = 0;
};

// Builds and destroys the workload's machine twice, untimed. The first
// machines of a process get fresh pages from the OS; later ones reuse the
// allocator's, so setup_s is measured only once that has settled.
void WarmUpSetup(Workload workload);

// Builds a fresh machine and kernel, attaches the workload's observers, calls
// the entry point and reads the stats back. `spans` may be null (untraced).
RunOutcome RunOnce(Workload workload, uint64_t seed, Scale scale, SpanLog* spans);

}  // namespace platbench

#endif  // PERFBENCH_PLATBENCH_WORKLOADS_H_
