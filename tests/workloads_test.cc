#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cctype>
#include <cstring>
#include <tuple>

#include "query/compile.h"
#include "workloads/cost_profiles.h"
#include "workloads/loganalytics.h"
#include "workloads/pingmesh.h"
#include "workloads/queries.h"

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

void MixRecords(const stream::RecordBatch& batch, Fnv1a* f) {
  for (const stream::Record& r : batch) {
    f->I64(r.event_time);
    f->I64(r.window_start);
    f->I64(static_cast<int64_t>(r.kind));
    f->I64(static_cast<int64_t>(r.fields.size()));
    for (const stream::Value& v : r.fields) {
      f->I64(static_cast<int64_t>(v.index()));
      if (const auto* i = std::get_if<int64_t>(&v)) {
        f->I64(*i);
      } else if (const auto* d = std::get_if<double>(&v)) {
        int64_t bits;
        std::memcpy(&bits, d, sizeof(bits));
        f->I64(bits);
      } else {
        const std::string& str = std::get<std::string>(v);
        f->I64(static_cast<int64_t>(str.size()));
        f->Mix(str.data(), str.size());
      }
    }
  }
}

uint64_t HashRecords(const stream::RecordBatch& batch) {
  Fnv1a f;
  MixRecords(batch, &f);
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

// ---------------------------------------------------------------------------
// Golden query output: the LogAnalytics query's stream-processor pipeline
// driven one operator at a time over 30 s of generated lines (600 lines/s,
// 8 tenants, 20% noise lines), a batch and a watermark per second. For each
// of the 6 operators: the number of records it emitted and an FNV-1a hash of
// those records followed by its final records/bytes in/out counters; then
// the count and hash of every closed-window result. Any change to what the
// query's operators emit changes these numbers.
// ---------------------------------------------------------------------------

std::unique_ptr<stream::Pipeline> LogAnalyticsSpPipeline() {
  auto plan = MakeLogAnalyticsQuery();
  EXPECT_TRUE(plan.ok());
  auto compiled = query::Compile(std::move(plan).value());
  EXPECT_TRUE(compiled.ok());
  auto pipe = compiled->MakeSpPipeline();
  EXPECT_TRUE(pipe.ok());
  EXPECT_EQ((*pipe)->size(), 6u);
  return std::move(pipe).value();
}

TEST(LogAnalyticsTest, QueryMatchesGoldenFixture) {
  struct Stage {
    size_t count;
    uint64_t hash;
  };
  struct Golden {
    uint64_t seed;
    std::array<Stage, 6> ops;
    Stage results;
  };
  const Golden kGolden[] = {
      {31,
       {{{18000, 0xf2c83a169e5a7b1dULL},
         {18000, 0xbb46360aae1dda71ULL},
         {14314, 0xdd8813688fee9036ULL},
         {42942, 0x851b448156fbbe70ULL},
         {42942, 0xdb8bcbdfb3026e9bULL},
         {0, 0xb1f988fc1110d1a6ULL}}},
       {720, 0x9cf024830b504ba7ULL}},
      {32,
       {{{18000, 0xc6c4a188522cf2d4ULL},
         {18000, 0xe531e4d1cfb6c1a1ULL},
         {14375, 0x0676a051c4a786f8ULL},
         {43125, 0x53391cd28bf35056ULL},
         {43125, 0x9fa6cf662bfadad8ULL},
         {0, 0xccf50e6f8e643a52ULL}}},
       {720, 0xa599bacc81204198ULL}},
  };
  for (const Golden& g : kGolden) {
    LogAnalyticsConfig cfg;
    cfg.seed = g.seed;
    cfg.lines_per_sec = 600;
    cfg.num_tenants = 8;
    cfg.noise_fraction = 0.2;
    LogAnalyticsGenerator gen(cfg);
    auto pipe = LogAnalyticsSpPipeline();
    std::array<Fnv1a, 6> op_hash;
    std::array<size_t, 6> op_count{};
    Fnv1a result_hash;
    size_t result_count = 0;
    for (int s = 0; s < 30; ++s) {
      stream::RecordBatch batch = gen.Generate(Seconds(s), Seconds(s + 1));
      for (size_t i = 0; i < pipe->size(); ++i) {
        ASSERT_TRUE(pipe->op(i).Process(&batch).ok());
        op_count[i] += batch.size();
        MixRecords(batch, &op_hash[i]);
      }
      stream::RecordBatch closed;
      ASSERT_TRUE(pipe->OnWatermark(Seconds(s + 1), &closed).ok());
      result_count += closed.size();
      MixRecords(closed, &result_hash);
    }
    for (size_t i = 0; i < pipe->size(); ++i) {
      const stream::OperatorStats& st = pipe->op(i).stats();
      for (uint64_t c : {st.records_in, st.records_out, st.bytes_in,
                         st.bytes_out}) {
        op_hash[i].I64(static_cast<int64_t>(c));
      }
      EXPECT_EQ(op_count[i], g.ops[i].count)
          << "seed " << g.seed << ", op " << pipe->op(i).name();
      EXPECT_EQ(op_hash[i].h, g.ops[i].hash)
          << "seed " << g.seed << ", op " << pipe->op(i).name();
    }
    EXPECT_EQ(result_count, g.results.count) << "seed " << g.seed;
    EXPECT_EQ(result_hash.h, g.results.hash) << "seed " << g.seed;
  }
}

/// Runs `lines` (all at event time 0) through the query's first four
/// operators (Window, normalize, filter, parse) and returns the parsed
/// (tenant, stat_name, stat) rows in order.
std::vector<std::tuple<std::string, std::string, double>> ParseLines(
    const std::vector<std::string>& lines) {
  auto pipe = LogAnalyticsSpPipeline();
  stream::RecordBatch batch;
  for (const std::string& line : lines) {
    batch.emplace_back(0, std::vector<stream::Value>{stream::Value(line)});
  }
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_TRUE(pipe->op(i).Process(&batch).ok());
  }
  std::vector<std::tuple<std::string, std::string, double>> rows;
  for (const stream::Record& r : batch) {
    rows.emplace_back(r.str(0), r.str(1), r.f64(2));
  }
  return rows;
}

// Hand-written lines beyond the generator's integer grammar: decimals,
// exponents, a numeric prefix followed by junk, keys out of order or
// missing, empty values, tabs and non-ASCII bytes (which lowercasing leaves
// alone). Each parsed value is the one std::stod gives for the same text.
TEST(LogAnalyticsTest, ParseHandlesValuesBeyondTheGeneratorGrammar) {
  using Row = std::tuple<std::string, std::string, double>;
  const std::vector<Row> rows = ParseLines({
      "\t TENANT NAME=T9 JOB RUNNING TIME=1234.5 CPU UTIL=12.75 "
      "MEMORY UTIL=1E1 \t",
      "tenant name=t3 cpu util=99.9999999999999999 memory util=0.1",
      "memory util=5 tenant name=t4",
      "tenant name=t5 job running time=7e2x cpu util=-4",
      "tenant name= cpu util=5",
      "tenant name=t6 cpu util= memory util=.5",
      "tenant name=t\xc3\x84 cpu util=0050\tjunk",
      "tenant name=t7 memory util=3.0e+1",
  });
  const std::vector<Row> want = {
      {"t9", "job_ms", 1234.5 * 0.01}, {"t9", "cpu", 12.75},
      {"t9", "mem", 10.0},             {"t3", "cpu", 99.9999999999999999},
      {"t3", "mem", 0.1},              {"t4", "mem", 5.0},
      {"t5", "job_ms", 700.0 * 0.01},  {"t5", "cpu", -4.0},
      {"t6", "mem", 0.5},              {"t\xc3\x84", "cpu", 50.0},
      {"t7", "mem", 30.0},
  };
  EXPECT_EQ(rows, want);
}

// A stat value that is not a number, or is out of double's range, drops
// only that stat, as an empty value does: the line's other stats still go
// out and the pipeline keeps running.
TEST(LogAnalyticsTest, MalformedStatValueDropsOnlyThatStat) {
  const std::vector<std::string> lines = {
      "tenant name=t1 cpu util=abc memory util=5",
      "tenant name=t2 cpu util=1e999 job running time=2500",
      "tenant name=t3 memory util=-1e-999 cpu util=42",
      "tenant name=t4 job running time=x1 cpu util=- memory util=.",
      // std::from_chars takes no leading '+' and no hex prefix.
      "tenant name=t5 cpu util=+5 memory util=0x10",
  };
  using Row = std::tuple<std::string, std::string, double>;
  const std::vector<Row> want = {{"t1", "mem", 5.0},
                                 {"t2", "job_ms", 25.0},
                                 {"t3", "cpu", 42.0},
                                 {"t5", "mem", 0.0}};
  EXPECT_EQ(ParseLines(lines), want);

  auto pipe = LogAnalyticsSpPipeline();
  stream::RecordBatch batch;
  for (const std::string& line : lines) {
    batch.emplace_back(Seconds(1),
                       std::vector<stream::Value>{stream::Value(line)});
  }
  stream::RecordBatch results;
  Status pushed = Status::OK();
  EXPECT_NO_THROW(pushed = pipe->PushBatch(std::move(batch), &results));
  EXPECT_TRUE(pushed.ok()) << pushed.ToString();
  ASSERT_TRUE(pipe->OnWatermark(Seconds(10), &results).ok());
  // One closed window: (tenant, stat_name, bucket, count) per good stat.
  std::vector<std::tuple<std::string, std::string, double, int64_t>> groups;
  for (const stream::Record& r : results) {
    groups.emplace_back(r.str(0), r.str(1), r.f64(2), r.i64(3));
  }
  std::sort(groups.begin(), groups.end());
  const std::vector<std::tuple<std::string, std::string, double, int64_t>>
      want_groups = {{"t1", "mem", 0.0, 1},
                     {"t2", "job_ms", 2.0, 1},
                     {"t3", "cpu", 4.0, 1},
                     {"t5", "mem", 0.0, 1}};
  EXPECT_EQ(groups, want_groups);
}

// The normalize map lowercases exactly as std::tolower does in the "C"
// locale, for every byte value.
TEST(LogAnalyticsTest, NormalizeLowercasesLikeStdTolower) {
  std::string line = "x";
  for (int c = 0; c < 256; ++c) line.push_back(static_cast<char>(c));
  line.push_back('x');
  std::string want = line;
  std::transform(want.begin(), want.end(), want.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  auto pipe = LogAnalyticsSpPipeline();
  stream::RecordBatch batch(1);
  batch[0].fields.emplace_back(line);
  ASSERT_EQ(pipe->op(1).name(), "normalize");
  ASSERT_TRUE(pipe->op(1).Process(&batch).ok());
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_EQ(batch[0].str(0), want);
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
