#include <gtest/gtest.h>

#include <cstring>

#include "workloads/cost_profiles.h"
#include "workloads/loganalytics.h"
#include "workloads/pingmesh.h"

namespace jarvis::workloads {
namespace {

TEST(PingmeshTest, SchemaMatchesPaperLayout) {
  stream::Schema s = PingmeshGenerator::Schema();
  ASSERT_EQ(s.num_fields(), 6u);
  EXPECT_EQ(s.field(PingmeshGenerator::kSrcIp).name, "srcIp");
  EXPECT_EQ(s.field(PingmeshGenerator::kRttUs).name, "rtt");
  EXPECT_EQ(s.field(PingmeshGenerator::kErrCode).name, "errCode");
}

TEST(PingmeshTest, ProbeCountMatchesFanOutAndInterval) {
  PingmeshConfig cfg;
  cfg.num_pairs = 100;
  cfg.probe_interval = Seconds(5);
  PingmeshGenerator gen(cfg);
  // 10 seconds => 2 probe rounds of 100 pairs.
  EXPECT_EQ(gen.Generate(0, Seconds(10)).size(), 200u);
  // Half-open interval: a round at t=10 belongs to the next batch.
  EXPECT_EQ(gen.Generate(Seconds(10), Seconds(11)).size(), 100u);
}

TEST(PingmeshTest, ErrorRateNearConfigured) {
  PingmeshConfig cfg;
  cfg.num_pairs = 5000;
  cfg.probe_interval = Seconds(5);
  cfg.error_rate = 0.14;
  PingmeshGenerator gen(cfg);
  auto batch = gen.Generate(0, Seconds(5));
  int errors = 0;
  for (const auto& r : batch) {
    errors += r.i64(PingmeshGenerator::kErrCode) != 0;
  }
  EXPECT_NEAR(static_cast<double>(errors) / batch.size(), 0.14, 0.02);
}

TEST(PingmeshTest, DeterministicAcrossInstances) {
  PingmeshConfig cfg;
  cfg.num_pairs = 50;
  PingmeshGenerator a(cfg), b(cfg);
  EXPECT_EQ(a.Generate(0, Seconds(10)), b.Generate(0, Seconds(10)));
}

TEST(PingmeshTest, DifferentSeedsDiffer) {
  PingmeshConfig cfg;
  cfg.num_pairs = 50;
  PingmeshConfig cfg2 = cfg;
  cfg2.seed = 777;
  PingmeshGenerator a(cfg), b(cfg2);
  EXPECT_NE(a.Generate(0, Seconds(5)), b.Generate(0, Seconds(5)));
}

TEST(PingmeshTest, AnomalousProbesAreElevated) {
  PingmeshConfig cfg;
  cfg.num_pairs = 2000;
  cfg.anomaly_pair_fraction = 0.1;
  cfg.episode_period = Seconds(10);
  cfg.episode_duration = Seconds(10);  // always in-episode
  PingmeshGenerator gen(cfg);
  int anomalous = 0;
  for (int64_t pair = 0; pair < cfg.num_pairs; ++pair) {
    if (gen.PairAnomalous(pair, 0)) {
      ++anomalous;
      EXPECT_GE(gen.ProbeRtt(pair, 0), cfg.anomaly_rtt_us_lo);
      EXPECT_LE(gen.ProbeRtt(pair, 0), cfg.anomaly_rtt_us_hi);
    } else {
      // Healthy or moderately congested: always below the alert threshold.
      EXPECT_LT(gen.ProbeRtt(pair, 0), 5000.0);
    }
  }
  EXPECT_NEAR(static_cast<double>(anomalous) / cfg.num_pairs, 0.1, 0.03);
}

TEST(PingmeshTest, EpisodesAreTimeBounded) {
  PingmeshConfig cfg;
  cfg.anomaly_pair_fraction = 1.0;  // every pair anomalous during episodes
  cfg.episode_period = Seconds(120);
  cfg.episode_duration = Seconds(50);
  PingmeshGenerator gen(cfg);
  EXPECT_TRUE(gen.PairAnomalous(1, Seconds(10)));   // inside episode
  EXPECT_TRUE(gen.PairAnomalous(1, Seconds(49)));   // still inside
  EXPECT_FALSE(gen.PairAnomalous(1, Seconds(60)));  // between episodes
  EXPECT_TRUE(gen.PairAnomalous(1, Seconds(130)));  // next episode
}

TEST(PingmeshTest, RecordStreamMatchesGroundTruthHelpers) {
  PingmeshConfig cfg;
  cfg.num_pairs = 20;
  cfg.probe_interval = Seconds(5);
  PingmeshGenerator gen(cfg);
  auto batch = gen.Generate(0, Seconds(5));
  for (int64_t pair = 0; pair < 20; ++pair) {
    const auto& rec = batch[pair];
    EXPECT_DOUBLE_EQ(rec.f64(PingmeshGenerator::kRttUs),
                     gen.ProbeRtt(pair, 0));
    EXPECT_EQ(rec.i64(PingmeshGenerator::kErrCode) != 0,
              gen.ProbeError(pair, 0));
  }
}

TEST(LogAnalyticsTest, LineRateRespected) {
  LogAnalyticsConfig cfg;
  cfg.lines_per_sec = 100;
  LogAnalyticsGenerator gen(cfg);
  EXPECT_NEAR(gen.Generate(0, Seconds(10)).size(), 1000u, 2);
}

TEST(LogAnalyticsTest, NoiseFractionRespected) {
  LogAnalyticsConfig cfg;
  cfg.noise_fraction = 0.10;
  LogAnalyticsGenerator gen(cfg);
  int noise = 0;
  const int n = 10000;
  for (uint64_t i = 0; i < n; ++i) noise += gen.LineIsNoise(i);
  EXPECT_NEAR(static_cast<double>(noise) / n, 0.10, 0.02);
}

TEST(LogAnalyticsTest, LinesCarryAllStats) {
  LogAnalyticsConfig cfg;
  LogAnalyticsGenerator gen(cfg);
  for (uint64_t i = 0; i < 200; ++i) {
    if (gen.LineIsNoise(i)) continue;
    const std::string line = gen.LineAt(i);
    EXPECT_NE(line.find("Tenant Name=t"), std::string::npos);
    EXPECT_NE(line.find("Job Running Time="), std::string::npos);
    EXPECT_NE(line.find("Cpu Util="), std::string::npos);
    EXPECT_NE(line.find("Memory Util="), std::string::npos);
  }
}

TEST(LogAnalyticsTest, TenantsWithinRange) {
  LogAnalyticsConfig cfg;
  cfg.num_tenants = 7;
  LogAnalyticsGenerator gen(cfg);
  for (uint64_t i = 0; i < 500; ++i) {
    EXPECT_GE(gen.LineTenant(i), 0);
    EXPECT_LT(gen.LineTenant(i), 7);
  }
}

// ---------------------------------------------------------------------------
// Golden generator output: record count and an FNV-1a hash of every record
// (event time, window start, kind, and each field's type and bytes) for the
// perfbench workload shapes: pingmesh at 200 and 1000 pairs with 1 s probes,
// LogAnalytics at 600 lines/s over 8 tenants. The last interval of each seed
// is off the probe grid. Any change to what Generate emits, or to the order
// it emits it in, changes these numbers.
// ---------------------------------------------------------------------------

struct Fnv1a {
  uint64_t h = 0xcbf29ce484222325ULL;
  void Mix(const void* p, size_t n) {
    const auto* b = static_cast<const uint8_t*>(p);
    for (size_t i = 0; i < n; ++i) {
      h ^= b[i];
      h *= 0x100000001b3ULL;
    }
  }
  void I64(int64_t v) { Mix(&v, sizeof(v)); }
};

uint64_t HashRecords(const stream::RecordBatch& batch) {
  Fnv1a f;
  for (const stream::Record& r : batch) {
    f.I64(r.event_time);
    f.I64(r.window_start);
    f.I64(static_cast<int64_t>(r.kind));
    f.I64(static_cast<int64_t>(r.fields.size()));
    for (const stream::Value& v : r.fields) {
      f.I64(static_cast<int64_t>(v.index()));
      if (const auto* i = std::get_if<int64_t>(&v)) {
        f.I64(*i);
      } else if (const auto* d = std::get_if<double>(&v)) {
        int64_t bits;
        std::memcpy(&bits, d, sizeof(bits));
        f.I64(bits);
      } else {
        const std::string& str = std::get<std::string>(v);
        f.I64(static_cast<int64_t>(str.size()));
        f.Mix(str.data(), str.size());
      }
    }
  }
  return f.h;
}

TEST(PingmeshTest, GenerateMatchesGoldenFixture) {
  struct Golden {
    int64_t pairs;
    uint64_t seed;
    Micros from, to;
    size_t count;
    uint64_t hash;
  };
  const Golden kGolden[] = {
      {200, 31, 0, 2000000, 400, 0x5eecb2ccd6330566ULL},
      {200, 31, 7000000, 9000000, 400, 0xdc39a4dbce0fa0ebULL},
      {200, 31, 1500000, 3250000, 400, 0xac23da5732395b85ULL},
      {200, 32, 0, 2000000, 400, 0x0dc417cea28a4f22ULL},
      {200, 32, 7000000, 9000000, 400, 0x4a0995b7816c198aULL},
      {200, 32, 1500000, 3250000, 400, 0x82d6f6892b0aeb87ULL},
      {200, 33, 0, 2000000, 400, 0x69a70ed9bf386920ULL},
      {200, 33, 7000000, 9000000, 400, 0xa90188c3588e8a0dULL},
      {200, 33, 1500000, 3250000, 400, 0x5661b21dc6707ff0ULL},
      {1000, 31, 0, 2000000, 2000, 0x15bf3985b411ab2fULL},
      {1000, 31, 7000000, 9000000, 2000, 0xd244e03d648ea665ULL},
      {1000, 31, 1500000, 3250000, 2000, 0x02720f88376c8ca3ULL},
      {1000, 32, 0, 2000000, 2000, 0x1193e2f2652ef708ULL},
      {1000, 32, 7000000, 9000000, 2000, 0xf79aff206e2b6b7cULL},
      {1000, 32, 1500000, 3250000, 2000, 0x92a7a6e4047d5d38ULL},
      {1000, 33, 0, 2000000, 2000, 0x71cedbdb02638432ULL},
      {1000, 33, 7000000, 9000000, 2000, 0x3b4ad15793865308ULL},
      {1000, 33, 1500000, 3250000, 2000, 0xa64e1a5ae9d1bc40ULL},
  };
  for (const Golden& g : kGolden) {
    PingmeshConfig cfg;
    cfg.seed = g.seed;
    cfg.source_ip = 1 + 3 * (g.pairs + 1);
    cfg.num_pairs = g.pairs;
    cfg.probe_interval = Seconds(1);
    PingmeshGenerator gen(cfg);
    const stream::RecordBatch batch = gen.Generate(g.from, g.to);
    EXPECT_EQ(batch.size(), g.count)
        << g.pairs << " pairs, seed " << g.seed << ", from " << g.from;
    EXPECT_EQ(HashRecords(batch), g.hash)
        << g.pairs << " pairs, seed " << g.seed << ", from " << g.from;
  }
}

TEST(LogAnalyticsTest, GenerateMatchesGoldenFixture) {
  struct Golden {
    uint64_t seed;
    Micros from, to;
    size_t count;
    uint64_t hash;
  };
  const Golden kGolden[] = {
      {31, 0, 2000000, 1200, 0x59556d08c2d9426dULL},
      {31, 7000000, 9000000, 1200, 0x0a18c580e32a9300ULL},
      {31, 1500000, 3250000, 1050, 0x9d7729026f22235dULL},
      {32, 0, 2000000, 1200, 0x13be325c2c1ef217ULL},
      {32, 7000000, 9000000, 1200, 0x4f2e3aacd9c92f63ULL},
      {32, 1500000, 3250000, 1050, 0x00564f851907d688ULL},
      {33, 0, 2000000, 1200, 0x9a0d377f697f1a9bULL},
      {33, 7000000, 9000000, 1200, 0x72da3c94839a42a7ULL},
      {33, 1500000, 3250000, 1050, 0x31395151e5ad6158ULL},
  };
  for (const Golden& g : kGolden) {
    LogAnalyticsConfig cfg;
    cfg.seed = g.seed;
    cfg.lines_per_sec = 600;
    cfg.num_tenants = 8;
    LogAnalyticsGenerator gen(cfg);
    const stream::RecordBatch batch = gen.Generate(g.from, g.to);
    EXPECT_EQ(batch.size(), g.count)
        << "seed " << g.seed << ", from " << g.from;
    EXPECT_EQ(HashRecords(batch), g.hash)
        << "seed " << g.seed << ", from " << g.from;
  }
}

TEST(CostProfilesTest, PaperOperatingPoints) {
  // S2S: filter 13% of a core at 26.2 Mbps (Fig. 3); full query ~85%
  // (Section VI-B); LogAnalytics 31%; T2T exceeds one core.
  auto s2s = MakeS2SModel();
  EXPECT_NEAR(s2s.ops[1].cost_per_record * s2s.input_records_per_sec, 0.13,
              1e-6);
  EXPECT_NEAR(s2s.FullCpuFraction(), 0.85, 0.01);
  EXPECT_NEAR(MakeLogAnalyticsModel().FullCpuFraction(), 0.31, 0.01);
  EXPECT_GT(MakeT2TModel().FullCpuFraction(), 1.0);
  // Fig. 3 calibration: G+R requires 80% on filter output.
  auto fig3 = MakeS2SModel(1.0, 0.80);
  EXPECT_NEAR(fig3.FullCpuFraction(), 0.95, 0.01);
}

TEST(CostProfilesTest, T2TTableSizeScalesJoinCost) {
  auto small = MakeT2TModel(1.0, 50);
  auto large = MakeT2TModel(1.0, 500);
  EXPECT_LT(small.FullCpuFraction(), large.FullCpuFraction());
}

}  // namespace
}  // namespace jarvis::workloads
