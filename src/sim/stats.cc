#include "src/sim/stats.h"

#include <array>
#include <bit>
#include <sstream>

namespace platinum::sim {

std::string MachineStats::ToString() const {
  std::ostringstream out;
  out << "references: local r/w " << local_reads << "/" << local_writes << ", remote r/w "
      << remote_reads << "/" << remote_writes << "\n";
  out << "atc: hits " << atc_hits << ", misses " << atc_misses << "\n";
  out << "faults: " << faults << " (read " << read_faults << ", write " << write_faults << ")\n";
  out << "actions: fills " << initial_fills << ", replications " << replications
      << ", migrations " << migrations << ", remote-maps " << remote_maps << "\n";
  out << "policy: freezes " << freezes << ", thaws " << thaws << "\n";
  out << "shootdowns: " << shootdowns << " rounds, " << ipis_sent << " IPIs, "
      << mappings_invalidated << " invalidated, " << mappings_restricted << " restricted, "
      << pages_freed << " pages freed\n";
  out << "block transfers: " << block_transfers << " (" << block_words_copied << " words)\n";
  out << "contention: module wait " << ToMilliseconds(module_wait_ns) << " ms, handler wait "
      << ToMilliseconds(fault_handler_wait_ns) << " ms\n";
  if (lease_waits > 0) {
    out << "leases: " << lease_waits << " expiry waits, "
        << ToMilliseconds(lease_wait_ns) << " ms waited\n";
  }
  return out.str();
}

namespace {

using Words = std::array<uint64_t, sizeof(MachineStats) / 8>;

}  // namespace

MachineStats& MachineStats::operator+=(const MachineStats& other) {
  Words sum = std::bit_cast<Words>(*this);
  const Words add = std::bit_cast<Words>(other);
  for (size_t i = 0; i < sum.size(); ++i) {
    sum[i] += add[i];
  }
  return *this = std::bit_cast<MachineStats>(sum);
}

MachineStats operator-(const MachineStats& a, const MachineStats& b) {
  Words d = std::bit_cast<Words>(a);
  const Words sub = std::bit_cast<Words>(b);
  for (size_t i = 0; i < d.size(); ++i) {
    d[i] -= sub[i];
  }
  return std::bit_cast<MachineStats>(d);
}

}  // namespace platinum::sim
