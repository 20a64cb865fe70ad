#include "src/obs/timeseries.h"

#include "src/base/check.h"
#include "src/obs/json.h"
#include "src/sim/machine.h"

namespace platinum::obs {

EpochSampler::EpochSampler(const sim::Machine* machine, EpochSamplerOptions options)
    : machine_(machine), options_(options), next_epoch_end_(options.epoch_ns) {
  PLAT_CHECK(machine_ != nullptr);
  PLAT_CHECK_GT(options_.epoch_ns, sim::SimTime{0});
}

void EpochSampler::OnTimeAdvance(sim::SimTime now) {
  // A single advance can cross several boundaries (e.g. a long Sleep); close
  // each of them with the counters as currently observed. Within one crossing
  // the snapshots are identical — the time-series shows the burst as flat
  // epochs followed by a jump, which is exactly what happened in simulated
  // time from the sampler's vantage point.
  while (now >= next_epoch_end_) {
    CloseEpoch(next_epoch_end_);
    next_epoch_end_ += options_.epoch_ns;
  }
}

void EpochSampler::Finalize() {
  if (finalized_) {
    return;
  }
  finalized_ = true;
  sim::SimTime now = machine_->scheduler().global_now();
  if (now > next_epoch_end_ - options_.epoch_ns) {
    CloseEpoch(now);
  }
}

void EpochSampler::CloseEpoch(sim::SimTime end) {
  if (samples_.size() >= options_.max_samples) {
    ++samples_dropped_;
    return;
  }
  Sample s;
  s.end_ns = end;
  s.stats = machine_->stats();
  const Observability& obs = machine_->obs();
  s.cpu_faults.reserve(static_cast<size_t>(obs.num_nodes()));
  for (int p = 0; p < obs.num_nodes(); ++p) {
    s.cpu_faults.push_back(obs.cpu(p).faults);
  }
  for (int k = 0; k < kNumHistKinds; ++k) {
    LatencyHistogram h = obs.hist(static_cast<HistKind>(k));
    s.hist[static_cast<size_t>(k)] = HistPoint{h.count(), h.sum()};
  }
  samples_.push_back(std::move(s));
}

std::string EpochSampler::ToJson() const {
  JsonWriter w;
  w.BeginObject();
  w.Key("schema").Value("platinum-timeseries-v1");
  w.Key("epoch_ns").Value(options_.epoch_ns);
  w.Key("num_epochs").Value(static_cast<uint64_t>(samples_.size()));
  w.Key("samples_dropped").Value(samples_dropped_);
  w.Key("epochs").BeginArray();
  const Sample* prev = nullptr;
  for (const Sample& s : samples_) {
    sim::MachineStats base;
    if (prev != nullptr) {
      base = prev->stats;
    }
    sim::MachineStats d = s.stats - base;
    w.BeginObject();
    w.Key("end_ns").Value(s.end_ns);
    w.Key("references").Value(d.total_references());
    w.Key("remote_refs").Value(d.remote_references());
    w.Key("atc_hits").Value(d.atc_hits);
    w.Key("atc_misses").Value(d.atc_misses);
    w.Key("faults").Value(d.faults);
    w.Key("read_faults").Value(d.read_faults);
    w.Key("write_faults").Value(d.write_faults);
    w.Key("initial_fills").Value(d.initial_fills);
    w.Key("replications").Value(d.replications);
    w.Key("migrations").Value(d.migrations);
    w.Key("remote_maps").Value(d.remote_maps);
    w.Key("freezes").Value(d.freezes);
    w.Key("thaws").Value(d.thaws);
    w.Key("shootdowns").Value(d.shootdowns);
    w.Key("ipis_sent").Value(d.ipis_sent);
    w.Key("mappings_invalidated").Value(d.mappings_invalidated);
    w.Key("pages_freed").Value(d.pages_freed);
    w.Key("block_transfers").Value(d.block_transfers);
    w.Key("module_wait_ns").Value(d.module_wait_ns);
    w.Key("fault_handler_wait_ns").Value(d.fault_handler_wait_ns);
    w.Key("cpu_faults").BeginArray();
    for (size_t p = 0; p < s.cpu_faults.size(); ++p) {
      uint64_t before = (prev != nullptr && p < prev->cpu_faults.size()) ? prev->cpu_faults[p] : 0;
      w.Value(s.cpu_faults[p] - before);
    }
    w.EndArray();
    w.Key("hist").BeginObject();
    for (int k = 0; k < kNumHistKinds; ++k) {
      HistPoint before;
      if (prev != nullptr) {
        before = prev->hist[static_cast<size_t>(k)];
      }
      const HistPoint& now = s.hist[static_cast<size_t>(k)];
      w.Key(HistKindName(static_cast<HistKind>(k))).BeginObject();
      w.Key("count").Value(now.count - before.count);
      w.Key("sum_ns").Value(now.sum_ns - before.sum_ns);
      w.EndObject();
    }
    w.EndObject();
    w.EndObject();
    prev = &s;
  }
  w.EndArray();
  w.EndObject();
  return w.str();
}

}  // namespace platinum::obs
