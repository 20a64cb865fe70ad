// Tests for the load-generation layer (src/load/): script determinism, the
// owner-sharding and hotness invariants the reference replay depends on,
// Zipf skew, the open-loop driver's queueing-delay accounting, and the
// "platinum-serving-v1" stats block (including its embedding in the
// machine-stats export).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <map>
#include <random>
#include <string>
#include <vector>

#include "src/apps/workloads.h"
#include "src/load/driver.h"
#include "src/load/request_gen.h"
#include "src/obs/export.h"
#include "src/obs/json.h"
#include "src/sim/time.h"
#include "tests/test_util.h"

namespace platinum {
namespace {

using load::OpKind;
using load::Request;
using load::RequestScript;
using load::WorkloadSpec;
using test::TestSystem;

WorkloadSpec SmallSpec() {
  WorkloadSpec spec;
  spec.keys = 1u << 10;
  spec.ops = 10000;
  return spec;
}

TEST(RequestGenTest, ScriptIsAPureFunctionOfSpecAndWorkers) {
  RequestScript a = RequestScript::Generate(SmallSpec(), 8);
  RequestScript b = RequestScript::Generate(SmallSpec(), 8);
  ASSERT_EQ(a.workers(), b.workers());
  for (uint32_t w = 0; w < a.workers(); ++w) {
    EXPECT_EQ(a.PreloadFor(w), b.PreloadFor(w));
    const std::vector<Request>& ra = a.ForWorker(w);
    const std::vector<Request>& rb = b.ForWorker(w);
    ASSERT_EQ(ra.size(), rb.size());
    for (size_t i = 0; i < ra.size(); ++i) {
      EXPECT_EQ(ra[i].op, rb[i].op);
      EXPECT_EQ(ra[i].key, rb[i].key);
      EXPECT_EQ(ra[i].value, rb[i].value);
    }
  }
  // A different seed changes the stream.
  WorkloadSpec reseeded = SmallSpec();
  reseeded.seed = 99;
  RequestScript c = RequestScript::Generate(reseeded, 8);
  bool any_diff = false;
  for (uint32_t w = 0; w < a.workers() && !any_diff; ++w) {
    const std::vector<Request>& ra = a.ForWorker(w);
    const std::vector<Request>& rc = c.ForWorker(w);
    any_diff = ra.size() != rc.size();
    for (size_t i = 0; !any_diff && i < ra.size(); ++i) {
      any_diff = ra[i].key != rc[i].key || ra[i].op != rc[i].op;
    }
  }
  EXPECT_TRUE(any_diff);
}

TEST(RequestGenTest, WritesAreOwnerSharded) {
  const uint32_t kWorkers = 8;
  RequestScript script = RequestScript::Generate(SmallSpec(), kWorkers);
  uint64_t writes = 0;
  for (uint32_t w = 0; w < kWorkers; ++w) {
    for (uint32_t key : script.PreloadFor(w)) {
      EXPECT_EQ(key % kWorkers, w) << "preload key " << key << " not owned";
    }
    for (const Request& r : script.ForWorker(w)) {
      if (r.op != OpKind::kLookup) {
        EXPECT_EQ(r.key % kWorkers, w) << "write to foreign key " << r.key;
        ++writes;
      }
    }
  }
  EXPECT_GT(writes, 0u);
}

TEST(RequestGenTest, ZipfSkewsLookupsTowardHotKeys) {
  WorkloadSpec spec = SmallSpec();
  spec.ops = 50000;
  RequestScript script = RequestScript::Generate(spec, 4);
  std::map<uint32_t, uint64_t> counts;
  uint64_t lookups = 0;
  for (uint32_t w = 0; w < 4; ++w) {
    for (const Request& r : script.ForWorker(w)) {
      if (r.op == OpKind::kLookup) {
        ++counts[r.key];
        ++lookups;
      }
    }
  }
  ASSERT_GT(lookups, 0u);
  // Rank 0 maps to the hottest key; with s=0.99 over 1024 keys it should
  // absorb a few percent of all lookups, far above the uniform share.
  uint64_t hottest = counts[load::RankToKey(0, spec.keys)];
  EXPECT_GT(hottest, lookups / 100);
  // And hotness must follow rank order, coarsely: the top rank beats a
  // mid-tier rank, which beats (or ties) a deep-tail rank.
  uint64_t mid = counts[load::RankToKey(100, spec.keys)];
  uint64_t tail = counts[load::RankToKey(1000, spec.keys)];
  EXPECT_GT(hottest, mid);
  EXPECT_GE(mid, tail);
}

// The guide table returns the rank a binary search over the CDF returns,
// its end fallback included, at the first and last draw of every bucket and
// on random draws: for power-of-two and other sizes, skewed and uniform.
TEST(RequestGenTest, ZipfGuideTableMatchesBinarySearch) {
  for (uint32_t n : {16384u, 256u, 1000u}) {
    for (double s : {0.99, 0.0}) {
      load::ZipfSampler zipf(n, s);
      const std::vector<double>& cdf = zipf.cdf();
      ASSERT_EQ(cdf.size(), n);
      auto search = [&cdf](uint64_t draw) {
        auto it = std::upper_bound(cdf.begin(), cdf.end(), load::UnitDraw(draw));
        if (it == cdf.end()) {
          --it;
        }
        return static_cast<uint32_t>(it - cdf.begin());
      };
      const uint32_t buckets = zipf.buckets();
      ASSERT_TRUE(std::has_single_bit(buckets));
      ASSERT_GE(buckets, n);
      const int shift = 64 - std::countr_zero(buckets);
      for (uint64_t j = 0; j < buckets; ++j) {
        const uint64_t first = j << shift;
        const uint64_t last = first | ((uint64_t{1} << shift) - 1);
        ASSERT_EQ(zipf.Sample(first), search(first)) << "n " << n << " s " << s << " bucket " << j;
        ASSERT_EQ(zipf.Sample(last), search(last)) << "n " << n << " s " << s << " bucket " << j;
      }
      // The draws at and just below every cdf value a draw can hit exactly:
      // a draw equal to cdf[r] belongs to rank r + 1, as upper_bound says.
      for (double c : cdf) {
        const double scaled = std::ldexp(c, 53);
        if (scaled != std::floor(scaled) || scaled >= std::ldexp(1.0, 53)) {
          continue;
        }
        const uint64_t at = static_cast<uint64_t>(scaled) << 11;
        ASSERT_EQ(load::UnitDraw(at), c);
        ASSERT_EQ(zipf.Sample(at), search(at)) << "n " << n << " s " << s << " cdf " << c;
        if (at != 0) {
          ASSERT_EQ(zipf.Sample(at - 1), search(at - 1)) << "n " << n << " s " << s;
        }
      }
      std::mt19937_64 rng(n);
      for (int i = 0; i < 1'000'000; ++i) {
        const uint64_t draw = rng();
        ASSERT_EQ(zipf.Sample(draw), search(draw)) << "n " << n << " s " << s << " draw " << draw;
      }
    }
  }
}

TEST(RequestGenTest, PreloadOnlyReferenceIsTheFullUniverse) {
  WorkloadSpec spec = SmallSpec();
  spec.ops = 0;
  spec.preload_fraction = 1.0;
  RequestScript script = RequestScript::Generate(spec, 4);
  RequestScript::Reference ref = script.ReplayReference();
  EXPECT_EQ(ref.entries, spec.keys);
  // The checksum is the fold of (key, PreloadValue) in visit order —
  // recompute it independently.
  std::vector<uint32_t> keys(spec.keys);
  for (uint32_t k = 0; k < spec.keys; ++k) {
    keys[k] = k;
  }
  std::sort(keys.begin(), keys.end(), [](uint32_t a, uint32_t b) {
    return apps::TrieVisitRank(a) < apps::TrieVisitRank(b);
  });
  apps::Checksum sum;
  for (uint32_t key : keys) {
    sum.Add(key);
    sum.Add(RequestScript::PreloadValue(spec.seed, key));
  }
  EXPECT_EQ(ref.checksum, sum.value());
}

TEST(LoadDriverTest, OpenLoopLatencyIncludesQueueingDelay) {
  load::DriverConfig config;
  config.spec.keys = 1u << 10;
  config.spec.ops = 4000;
  config.procs = 4;
  config.arrival = load::ArrivalMode::kOpen;
  config.interarrival_ns = 50 * sim::kMicrosecond;

  TestSystem sys(4);
  load::ServeResult result = load::RunTrieServe(sys.kernel, config);
  EXPECT_TRUE(result.verified);
  EXPECT_EQ(result.requests, config.spec.ops);
  // Open loop pins the arrival schedule: the serve phase cannot finish
  // before the last arrival (ops split across 4 workers).
  uint64_t per_worker = config.spec.ops / 4;
  EXPECT_GE(result.serve_ns, (per_worker - 1) * config.interarrival_ns);

  // Closed loop on the same script finishes when the work does — far
  // earlier than the open-loop schedule at this arrival rate.
  load::DriverConfig closed = config;
  closed.arrival = load::ArrivalMode::kClosed;
  TestSystem sys2(4);
  load::ServeResult closed_result = load::RunTrieServe(sys2.kernel, closed);
  EXPECT_TRUE(closed_result.verified);
  EXPECT_LT(closed_result.serve_ns, result.serve_ns);
  // Same script, same final contents, whatever the arrival process.
  EXPECT_EQ(closed_result.checksum, result.checksum);
}

TEST(LoadDriverTest, ServingStatsJsonIsWellFormedAndEmbeds) {
  load::DriverConfig config;
  config.spec.keys = 1u << 10;
  config.spec.ops = 5000;
  config.procs = 4;
  TestSystem sys(4);
  load::ServeResult result = load::RunTrieServe(sys.kernel, config);
  std::string json = load::ServingStatsJson(config, result);
  EXPECT_TRUE(obs::CheckJsonBalanced(json));
  for (const char* key :
       {"schema", "config", "totals", "classes", "read_hit", "trie", "verified"}) {
    EXPECT_TRUE(obs::CheckJsonHasKey(json, key)) << "missing key " << key;
  }
  EXPECT_NE(json.find("platinum-serving-v1"), std::string::npos);
  // Byte-identical on re-render (the platsim determinism check relies on it).
  EXPECT_EQ(json, load::ServingStatsJson(config, result));

  // Embedded verbatim under "serving" in the machine-stats export.
  obs::TelemetrySummary telemetry;
  telemetry.serving_json = &json;
  std::string stats = obs::ExportStatsJson(sys.machine, nullptr, &telemetry);
  EXPECT_TRUE(obs::CheckJsonBalanced(stats));
  EXPECT_TRUE(obs::CheckJsonHasKey(stats, "serving"));
  EXPECT_NE(stats.find("platinum-serving-v1"), std::string::npos);
}

}  // namespace
}  // namespace platinum
