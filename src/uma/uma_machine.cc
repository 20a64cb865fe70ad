#include "src/uma/uma_machine.h"

#include <algorithm>
#include <cstdint>

#include "src/base/check.h"

namespace platinum::uma {

void UmaParams::Validate() const {
  PLAT_CHECK_GT(num_processors, 0);
  PLAT_CHECK_LE(num_processors, sim::kMaxProcessors);
  PLAT_CHECK_GT(memory_words, size_t{0});
  PLAT_CHECK_LE(memory_words, SIZE_MAX / sizeof(uint32_t))
      << "UMA memory of " << memory_words << " words overflows its byte count";
}

UmaMachine::UmaMachine(const UmaParams& params)
    : params_([&] {
        params.Validate();
        return params;
      }()),
      scheduler_(params_.num_processors, params_.quantum_ns),
      memory_(params_.memory_words * sizeof(uint32_t)) {
  caches_.reserve(params_.num_processors);
  for (int p = 0; p < params_.num_processors; ++p) {
    caches_.emplace_back(params_.cache_bytes, params_.line_bytes);
  }
}

size_t UmaMachine::AllocWords(size_t count) {
  PLAT_CHECK_LE(next_free_word_ + count, params_.memory_words) << "UMA memory exhausted";
  size_t base = next_free_word_;
  next_free_word_ += count;
  return base;
}

sim::SimTime UmaMachine::BusTransaction(sim::SimTime base, sim::SimTime occupancy) {
  sim::SimTime now = scheduler_.now();
  sim::SimTime start = std::max(now, bus_busy_until_);
  bus_busy_until_ = start + occupancy;
  sim::SimTime wait = start - now;
  stats_.bus_wait_ns += wait;
  return wait + base;
}

uint32_t UmaMachine::Read(size_t word_addr) {
  PLAT_DCHECK(word_addr < params_.memory_words);
  int p = scheduler_.current_processor();
  Cache& cache = caches_[p];
  if (cache.Contains(word_addr)) {
    ++stats_.cache_hits;
    scheduler_.Advance(params_.cache_hit_ns);
  } else {
    ++stats_.read_misses;
    scheduler_.Advance(
        BusTransaction(params_.bus_line_fetch_ns, params_.bus_occupancy_fetch_ns));
    cache.Fill(word_addr);
  }
  uint32_t value = words()[word_addr];
  scheduler_.MaybeYield();
  return value;
}

void UmaMachine::Write(size_t word_addr, uint32_t value) {
  PLAT_DCHECK(word_addr < params_.memory_words);
  int p = scheduler_.current_processor();
  ++stats_.writes;
  // Write-through: every write is a bus transaction; other caches snoop and
  // invalidate their copy of the line.
  scheduler_.Advance(BusTransaction(params_.bus_word_write_ns, params_.bus_occupancy_write_ns));
  words()[word_addr] = value;
  InvalidateOthers(p, word_addr);
  // Write-no-allocate, but an already-present line stays valid (memory and
  // cache are updated together on a write-through hit).
  scheduler_.MaybeYield();
}

uint32_t UmaMachine::FetchAdd(size_t word_addr, uint32_t delta) {
  PLAT_DCHECK(word_addr < params_.memory_words);
  int p = scheduler_.current_processor();
  // Bus-locked read-modify-write.
  scheduler_.Advance(BusTransaction(params_.bus_line_fetch_ns + params_.bus_word_write_ns,
                                    params_.bus_occupancy_fetch_ns +
                                        params_.bus_occupancy_write_ns));
  uint32_t old = words()[word_addr];
  words()[word_addr] = old + delta;
  InvalidateOthers(p, word_addr);
  caches_[p].Invalidate(word_addr);
  scheduler_.MaybeYield();
  return old;
}

void UmaMachine::InvalidateOthers(int writer, size_t word_addr) {
  for (int q = 0; q < params_.num_processors; ++q) {
    if (q != writer && caches_[q].Invalidate(word_addr)) {
      ++stats_.invalidations;
    }
  }
}

}  // namespace platinum::uma
