// Layer probes: host cost per operation of one layer's public function,
// measured by a loop on a small machine, with the simulated time that
// operation charges.
//
// Every probe machine runs with the defrost daemon off (nothing it would
// thaw) and a scheduler quantum too long to expire, so single-thread loops
// never switch fibers and time only the layer under test.
#ifndef PERFBENCH_PLATBENCH_PROBES_H_
#define PERFBENCH_PLATBENCH_PROBES_H_

#include <cstdint>
#include <vector>

#include "platbench/spans.h"

namespace platbench {

struct Probe {
  double host_ns = 0;       // median over repeated loops
  double sim_us = 0;        // simulated time charged per operation
  uint64_t iterations = 0;  // operations per timed loop
  int repeats = 0;          // timed loops behind the median
};

struct LayerProbes {
  Probe switch_rt;   // sim::Scheduler::Yield round trip between two fibers
  double switch_ns = 0;  // host ns per counted context switch (half a round trip)
  Probe reference;   // sim::Machine::Reference, alternating local and remote
  Probe hit_read;    // mem::CoherentMemory::Access, ATC hit
  Probe hit_write;
  Probe refill;      // Access after hw::Atc::FlushPage, Pmap entry still valid
  Probe range_word;  // ReadRange / WriteRange of 256 words, per word
  Probe read_fault;  // HandleFault replicating a clean page
  Probe write_fault_k1;  // HandleFault on a write shooting down k replicas
  Probe write_fault_k15;
  Probe write_fault_k63;
  Probe tardis_write_fault;  // the k = 1 write-fault probe under "tardis"
  Probe kernel_read_word;    // kernel::Kernel::ReadWord, ATC hit
  Probe kernel_tas;          // kernel::Kernel::AtomicTestAndSet, ATC hit
  Probe runtime_get;         // rt::SharedArray::Get, ATC hit
  Probe spin_retry;          // one failed rt::SpinLock::Acquire poll + backoff
  Probe observer;            // ATC-hit read with obs::PageTrace attached, minus detached
  double script_s = 0;       // load::RequestScript::Generate at trie_serve's spec
};

// Runs every probe; `seed` seeds the standalone request-script generation.
LayerProbes RunProbes(uint64_t seed, SpanLog* spans);

double Median(std::vector<double> values);

}  // namespace platbench

#endif  // PERFBENCH_PLATBENCH_PROBES_H_
