// Unit tests for the interconnect timing/contention model.
#include "src/sim/interconnect.h"

#include <gtest/gtest.h>

#include <array>
#include <vector>

#include "src/obs/histogram.h"
#include "src/sim/params.h"

namespace platinum::sim {
namespace {

class InterconnectTest : public ::testing::Test {
 protected:
  InterconnectTest() : params_(ButterflyPlusParams(4)), obs_(4) {
    params_.frames_per_module = 8;
    const size_t module_bytes = size_t{params_.frames_per_module} * params_.page_size_bytes;
    frames_.resize(4 * module_bytes);
    for (int i = 0; i < 4; ++i) {
      modules_.emplace_back(i, params_, frames_.data() + i * module_bytes);
    }
    net_ = std::make_unique<Interconnect>(params_, &modules_, &obs_);
  }

  // Issues one reference and keeps the test's own account of it: its wait
  // (latency minus the reference's base latency), the module that served it
  // and that module's queue wait. Returns the wait.
  SimTime Ref(int requester, int target, AccessKind kind, SimTime now) {
    SimTime latency = net_->Reference(requester, target, kind, now);
    bool read = kind == AccessKind::kRead;
    SimTime base = requester == target
                       ? (read ? params_.local_read_ns : params_.local_write_ns)
                       : (read ? params_.remote_read_ns : params_.remote_write_ns);
    SimTime wait = latency - base;
    waits_.Record(wait);
    ++served_[static_cast<size_t>(target)];
    queue_wait_[static_cast<size_t>(target)] += wait;
    return wait;
  }

  // Local and remote references, with and without waits, and a block transfer
  // that steals two buses so later references queue. Returns the block
  // transfer's own wait for its buses.
  SimTime RunMixedSequence(SimTime t0) {
    EXPECT_EQ(Ref(0, 0, AccessKind::kRead, t0), 0u);
    EXPECT_EQ(Ref(1, 0, AccessKind::kRead, t0), params_.module_occupancy_local_ns);
    EXPECT_GT(Ref(0, 0, AccessKind::kWrite, t0 + 100), 0u);
    EXPECT_EQ(Ref(2, 1, AccessKind::kWrite, t0), 0u);
    EXPECT_EQ(Ref(1, 1, AccessKind::kRead, t0 + 5000), 0u);
    EXPECT_EQ(Ref(3, 3, AccessKind::kRead, t0), 0u);
    SimTime duration = 1024 * params_.block_copy_word_ns;
    SimTime block_wait = net_->BlockTransfer(2, 2, 3, 1024, t0 + 100) - duration - (t0 + 100);
    EXPECT_EQ(block_wait, params_.module_occupancy_local_ns - 100);
    EXPECT_GT(Ref(2, 2, AccessKind::kRead, t0 + 1000), 0u);
    EXPECT_GT(Ref(0, 3, AccessKind::kRead, t0 + 2000), 0u);
    EXPECT_EQ(Ref(3, 2, AccessKind::kWrite, t0 + duration), 0u);
    return block_wait;
  }

  static void ExpectSameHistogram(const obs::LatencyHistogram& got,
                                  const obs::LatencyHistogram& want) {
    EXPECT_EQ(got.count(), want.count());
    EXPECT_EQ(got.sum(), want.sum());
    EXPECT_EQ(got.min(), want.min());
    EXPECT_EQ(got.max(), want.max());
    EXPECT_EQ(got.buckets(), want.buckets());
  }

  MachineParams params_;
  std::vector<uint8_t> frames_;  // the modules' frames, owned by the test
  std::vector<MemoryModule> modules_;
  obs::Observability obs_;
  std::unique_ptr<Interconnect> net_;
  obs::LatencyHistogram waits_;
  std::array<uint64_t, 4> served_{};
  std::array<SimTime, 4> queue_wait_{};
};

TEST_F(InterconnectTest, LocalReadLatency) {
  EXPECT_EQ(net_->Reference(0, 0, AccessKind::kRead, 0), params_.local_read_ns);
  EXPECT_EQ(obs_.Totals().local_reads, 1u);
}

TEST_F(InterconnectTest, RemoteReadLatency) {
  EXPECT_EQ(net_->Reference(0, 1, AccessKind::kRead, 0), params_.remote_read_ns);
  EXPECT_EQ(obs_.Totals().remote_reads, 1u);
}

TEST_F(InterconnectTest, RemoteWritesAreCheaperThanReads) {
  SimTime write = net_->Reference(0, 1, AccessKind::kWrite, 0);
  EXPECT_LT(write, params_.remote_read_ns);
  EXPECT_EQ(write, params_.remote_write_ns);
}

TEST_F(InterconnectTest, ContentionQueuesAtTargetModule) {
  // Two processors hit module 2 at the same instant; the second one waits for
  // the first's bus occupancy.
  SimTime first = net_->Reference(0, 2, AccessKind::kRead, 0);
  SimTime second = net_->Reference(1, 2, AccessKind::kRead, 0);
  EXPECT_EQ(first, params_.remote_read_ns);
  EXPECT_EQ(second, params_.remote_read_ns + params_.module_occupancy_remote_ns);
  EXPECT_GT(obs_.Totals().module_wait_ns, SimTime{0});
}

TEST_F(InterconnectTest, NoContentionAcrossModules) {
  net_->Reference(0, 1, AccessKind::kRead, 0);
  SimTime other = net_->Reference(2, 3, AccessKind::kRead, 0);
  EXPECT_EQ(other, params_.remote_read_ns);
}

TEST_F(InterconnectTest, ContentionDrainsOverTime) {
  net_->Reference(0, 2, AccessKind::kRead, 0);
  // Arriving after the first reference's occupancy window: no wait.
  SimTime later = net_->Reference(1, 2, AccessKind::kRead, 10 * kMicrosecond);
  EXPECT_EQ(later, params_.remote_read_ns);
}

TEST_F(InterconnectTest, BlockTransferTakesPaperPageCopyTime) {
  SimTime done = net_->BlockTransfer(0, 0, 1, params_.words_per_page(), 0);
  // Section 4: 1.11 ms for a 4 KB page.
  EXPECT_NEAR(ToMilliseconds(done), 1.11, 0.01);
  EXPECT_EQ(obs_.Totals().block_transfers, 1u);
  EXPECT_EQ(obs_.Totals().block_words_copied, params_.words_per_page());
}

TEST_F(InterconnectTest, BlockTransferStealsBothBuses) {
  SimTime done = net_->BlockTransfer(0, 0, 1, 1024, 0);
  SimTime duration = done;
  // A reference to either module now queues behind ~75% of the transfer.
  SimTime src_ref = net_->Reference(2, 0, AccessKind::kRead, 0);
  SimTime dst_ref = net_->Reference(3, 1, AccessKind::kRead, 0);
  SimTime steal = duration * params_.block_bus_steal_permille / 1000;
  EXPECT_GE(src_ref, steal);
  EXPECT_GE(dst_ref, steal);
}

TEST_F(InterconnectTest, BackToBackBlockTransfersSerialize) {
  SimTime first = net_->BlockTransfer(0, 0, 1, 1024, 0);
  SimTime second = net_->BlockTransfer(0, 0, 1, 1024, 0);
  EXPECT_GT(second, first);
}

// Only queued references record into the module-queue histogram and the wait
// totals; the free-bus ones are derived. Both views must read as if every
// reference had recorded its wait.
TEST_F(InterconnectTest, DerivedViewsEqualAPerReferenceAccount) {
  SimTime block_wait = RunMixedSequence(0);
  ASSERT_GT(waits_.buckets()[0], 0u);
  ASSERT_LT(waits_.buckets()[0], waits_.count());
  ExpectSameHistogram(obs_.hist(obs::HistKind::kModuleQueue), waits_);
  EXPECT_EQ(obs_.Totals().total_references(), waits_.count());
  SimTime queued = 0;
  for (int m = 0; m < 4; ++m) {
    EXPECT_EQ(obs_.references_served(m), served_[static_cast<size_t>(m)]) << "module " << m;
    EXPECT_EQ(obs_.module(m).queue_wait_ns, queue_wait_[static_cast<size_t>(m)])
        << "module " << m;
    queued += obs_.module(m).queue_wait_ns;
  }
  EXPECT_EQ(obs_.Totals().module_wait_ns, queued + block_wait);
}

TEST_F(InterconnectTest, ModuleQueueHistogramOfNoReferencesIsEmpty) {
  obs::LatencyHistogram h = obs_.hist(obs::HistKind::kModuleQueue);
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.min(), 0u);
  ExpectSameHistogram(h, obs::LatencyHistogram{});
}

TEST_F(InterconnectTest, OnlyQueuedReferencesLeaveBucketZeroEmpty) {
  net_->BlockTransfer(0, 0, 1, 1024, 0);
  Ref(2, 0, AccessKind::kRead, 0);
  Ref(3, 1, AccessKind::kWrite, 0);
  Ref(0, 0, AccessKind::kRead, 0);
  obs::LatencyHistogram h = obs_.hist(obs::HistKind::kModuleQueue);
  EXPECT_GT(h.min(), 0u);
  EXPECT_EQ(h.buckets()[0], 0u);
  ExpectSameHistogram(h, waits_);
}

TEST_F(InterconnectTest, OnlyFreeBusReferencesAreAllZeros) {
  for (int p = 0; p < 4; ++p) {
    Ref(p, p, AccessKind::kRead, 0);
  }
  for (int p = 0; p < 4; ++p) {
    Ref(p, (p + 1) % 4, AccessKind::kWrite, 10 * kMicrosecond);
  }
  obs::LatencyHistogram h = obs_.hist(obs::HistKind::kModuleQueue);
  EXPECT_EQ(h.count(), 8u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.sum(), 0u);
  EXPECT_EQ(h.buckets()[0], 8u);
  ExpectSameHistogram(h, waits_);
  for (int m = 0; m < 4; ++m) {
    EXPECT_EQ(obs_.references_served(m), 2u);
  }
}

TEST_F(InterconnectTest, PhaseDeltaCountsTheReferencesAndWaitsInside) {
  Ref(0, 0, AccessKind::kRead, 0);
  Ref(1, 0, AccessKind::kRead, 0);
  uint64_t count_before = waits_.count();
  SimTime sum_before = waits_.sum();
  obs_.BeginPhase("mixed", kMillisecond, obs_.Totals());
  RunMixedSequence(kMillisecond);
  obs_.EndPhase(2 * kMillisecond, obs_.Totals());
  uint64_t count_inside = waits_.count() - count_before;
  SimTime sum_inside = waits_.sum() - sum_before;
  Ref(2, 0, AccessKind::kRead, 2 * kMillisecond);
  EXPECT_GT(Ref(1, 0, AccessKind::kRead, 2 * kMillisecond), 0u);

  const obs::Phase& phase = obs_.phases().at(0);
  const auto& queue = phase.hist_delta[static_cast<size_t>(obs::HistKind::kModuleQueue)];
  EXPECT_EQ(queue.count, count_inside);
  EXPECT_EQ(queue.count, phase.delta.total_references());
  EXPECT_EQ(queue.sum, sum_inside);
  EXPECT_GT(queue.sum, 0u);
}

}  // namespace
}  // namespace platinum::sim
