#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "core/source_executor.h"
#include "core/stepwise_adapt.h"
#include "ser/buffer.h"
#include "workloads/pingmesh.h"
#include "workloads/queries.h"

namespace jarvis::core {
namespace {

constexpr double kCostW = 1e-5;
constexpr double kCostF = 2e-5;
constexpr double kCostG = 1e-4;

query::CompiledQuery CompileS2S() {
  auto plan = workloads::MakeS2SProbeQuery();
  EXPECT_TRUE(plan.ok());
  auto compiled = query::Compile(std::move(plan).value());
  EXPECT_TRUE(compiled.ok());
  return std::move(compiled).value();
}

std::shared_ptr<const CostModel> S2SCosts() {
  return std::make_shared<FixedCostModel>(
      std::vector<double>{kCostW, kCostF, kCostG});
}

stream::RecordBatch ProbeBatch(int n, Micros t0 = 0) {
  workloads::PingmeshConfig cfg;
  cfg.num_pairs = n;
  cfg.probe_interval = Seconds(1);
  workloads::PingmeshGenerator gen(cfg);
  stream::RecordBatch batch = gen.Generate(t0, t0 + Seconds(1));
  EXPECT_EQ(batch.size(), static_cast<size_t>(n));
  return batch;
}

TEST(SourceExecutorTest, AllLoadFactorsZeroDrainsRawInput) {
  query::CompiledQuery q = CompileS2S();
  SourceExecutor exec(q, S2SCosts(), SourceExecutorOptions{});
  ASSERT_TRUE(exec.Init().ok());
  exec.SetLoadFactors({0, 0, 0});
  exec.Ingest(ProbeBatch(100));
  auto out = exec.RunEpoch(Seconds(1), false);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->DrainedRecords(), 100u);
  for (const DrainRecord& dr : out->FlattenDrain()) {
    EXPECT_EQ(dr.sp_entry_op, 0u);
    EXPECT_EQ(dr.record.kind, stream::RecordKind::kData);
  }
  EXPECT_NEAR(out->observation.cpu_spent_seconds, 0.0, 1e-12);
}

TEST(SourceExecutorTest, FullLoadProcessesLocallyAndEmitsPartials) {
  query::CompiledQuery q = CompileS2S();
  SourceExecutor exec(q, S2SCosts(), SourceExecutorOptions{});
  ASSERT_TRUE(exec.Init().ok());
  exec.SetLoadFactors({1, 1, 1});
  exec.Ingest(ProbeBatch(100));
  auto out = exec.RunEpoch(Seconds(20), false);
  ASSERT_TRUE(out.ok());
  // Everything processed locally; G+R exports partial rows on window close.
  ASSERT_GT(out->DrainedRecords(), 0u);
  for (const DrainRecord& dr : out->FlattenDrain()) {
    EXPECT_EQ(dr.record.kind, stream::RecordKind::kPartial);
    EXPECT_EQ(dr.sp_entry_op, 2u);  // merged into the SP's G+R
  }
  EXPECT_GT(out->observation.cpu_spent_seconds, 0.0);
}

TEST(SourceExecutorTest, PartialLoadFactorSplitsAtTheRightProxy) {
  query::CompiledQuery q = CompileS2S();
  SourceExecutor exec(q, S2SCosts(), SourceExecutorOptions{});
  ASSERT_TRUE(exec.Init().ok());
  exec.SetLoadFactors({1, 1, 0.5});
  exec.Ingest(ProbeBatch(200));
  auto out = exec.RunEpoch(Seconds(20), false);
  ASSERT_TRUE(out.ok());
  size_t drained_at_2 = 0, partials = 0;
  for (const DrainRecord& dr : out->FlattenDrain()) {
    if (dr.record.kind == stream::RecordKind::kData) {
      EXPECT_EQ(dr.sp_entry_op, 2u);  // drained before the G+R operator
      ++drained_at_2;
    } else {
      ++partials;
    }
  }
  // The filter keeps ~86%, half of which is drained.
  const auto& proxies = out->observation.proxies;
  EXPECT_EQ(proxies[2].drained, drained_at_2);
  EXPECT_NEAR(static_cast<double>(drained_at_2),
              0.5 * static_cast<double>(proxies[2].arrived), 1.0);
  EXPECT_GT(partials, 0u);
}

TEST(SourceExecutorTest, BudgetExhaustionLeavesPendingRecords) {
  query::CompiledQuery q = CompileS2S();
  SourceExecutorOptions opts;
  // Budget fits W+F for 1000 records but only a fraction of G+R:
  // 1000*(1e-5+2e-5) = 0.03; G+R needs ~860*1e-4 = 0.086.
  opts.cpu_budget_fraction = 0.05;
  SourceExecutor exec(q, S2SCosts(), opts);
  ASSERT_TRUE(exec.Init().ok());
  exec.SetLoadFactors({1, 1, 1});
  exec.Ingest(ProbeBatch(1000));
  auto out = exec.RunEpoch(Seconds(1), false);
  ASSERT_TRUE(out.ok());
  EXPECT_GT(out->observation.proxies[2].pending, 0u);
  EXPECT_LE(out->observation.cpu_spent_seconds, 0.05 + 1e-9);
  EXPECT_EQ(ClassifyQueryState(out->observation, StepwiseConfig{}),
            QueryState::kCongested);
}

TEST(SourceExecutorTest, PendingRecordsCarryOverToNextEpoch) {
  query::CompiledQuery q = CompileS2S();
  SourceExecutorOptions opts;
  opts.cpu_budget_fraction = 0.05;
  SourceExecutor exec(q, S2SCosts(), opts);
  ASSERT_TRUE(exec.Init().ok());
  exec.SetLoadFactors({1, 1, 1});
  exec.Ingest(ProbeBatch(1000));
  auto first = exec.RunEpoch(Seconds(1), false);
  ASSERT_TRUE(first.ok());
  const uint64_t pending = first->observation.proxies[2].pending;
  ASSERT_GT(pending, 0u);
  // No new input: the backlog drains in the next epoch.
  auto second = exec.RunEpoch(Seconds(1), false);
  ASSERT_TRUE(second.ok());
  EXPECT_LT(second->observation.proxies[2].pending, pending);
  EXPECT_GT(second->observation.cpu_spent_seconds, 0.0);
}

TEST(SourceExecutorTest, ProfileModeProducesProfiles) {
  query::CompiledQuery q = CompileS2S();
  SourceExecutor exec(q, S2SCosts(), SourceExecutorOptions{});
  ASSERT_TRUE(exec.Init().ok());
  exec.SetLoadFactors({1, 1, 1});
  exec.Ingest(ProbeBatch(1000));
  auto out = exec.RunEpoch(Seconds(1), true);
  ASSERT_TRUE(out.ok());
  ASSERT_TRUE(out->observation.profiles_valid);
  ASSERT_EQ(out->observation.profiles.size(), 3u);
  // Relay of the filter is the 14% error drop.
  EXPECT_NEAR(out->observation.profiles[1].relay_records, 0.86, 0.05);
  // Full coverage => exact costs.
  EXPECT_NEAR(out->observation.profiles[0].cost_per_record, kCostW, 1e-12);
}

TEST(SourceExecutorTest, UndersampledProfileUnderestimatesCost) {
  query::CompiledQuery q = CompileS2S();
  SourceExecutorOptions opts;
  opts.cpu_budget_fraction = 0.05;  // cannot process everything
  opts.profile_error_magnitude = 0.4;
  SourceExecutor exec(q, S2SCosts(), opts);
  ASSERT_TRUE(exec.Init().ok());
  exec.SetLoadFactors({1, 1, 1});
  exec.Ingest(ProbeBatch(2000));
  auto out = exec.RunEpoch(Seconds(1), true);
  ASSERT_TRUE(out.ok());
  ASSERT_TRUE(out->observation.profiles_valid);
  // G+R could not see all records: its estimate is biased low.
  EXPECT_LT(out->observation.profiles[2].cost_per_record, kCostG);
}

TEST(SourceExecutorTest, DrainedBytesAccounted) {
  query::CompiledQuery q = CompileS2S();
  SourceExecutor exec(q, S2SCosts(), SourceExecutorOptions{});
  ASSERT_TRUE(exec.Init().ok());
  exec.SetLoadFactors({0, 0, 0});
  exec.Ingest(ProbeBatch(10));
  auto out = exec.RunEpoch(Seconds(1), false);
  ASSERT_TRUE(out.ok());
  const uint64_t reported = out->drained_bytes;
  uint64_t expected = 0;
  for (const DrainRecord& dr : out->FlattenDrain()) {
    expected += stream::WireSize(dr.record);
  }
  EXPECT_EQ(reported, expected);
}

TEST(SourceExecutorTest, SetCpuBudgetTakesEffect) {
  query::CompiledQuery q = CompileS2S();
  SourceExecutorOptions opts;
  opts.cpu_budget_fraction = 0.05;
  SourceExecutor exec(q, S2SCosts(), opts);
  ASSERT_TRUE(exec.Init().ok());
  exec.SetLoadFactors({1, 1, 1});
  exec.Ingest(ProbeBatch(1000));
  auto constrained = exec.RunEpoch(Seconds(1), false);
  ASSERT_TRUE(constrained.ok());
  EXPECT_GT(constrained->observation.proxies[2].pending, 0u);

  exec.SetCpuBudget(1.0);
  exec.Ingest(ProbeBatch(1000, Seconds(1)));
  auto relaxed = exec.RunEpoch(Seconds(2), false);
  ASSERT_TRUE(relaxed.ok());
  EXPECT_EQ(relaxed->observation.proxies[2].pending, 0u);
}

TEST(SourceExecutorTest, ObservationInputRecordsMatchesIngest) {
  query::CompiledQuery q = CompileS2S();
  SourceExecutor exec(q, S2SCosts(), SourceExecutorOptions{});
  ASSERT_TRUE(exec.Init().ok());
  exec.Ingest(ProbeBatch(123));
  auto out = exec.RunEpoch(Seconds(1), false);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->observation.input_records, 123u);
}

TEST(SourceExecutorTest, StatefulQueryStaysOnRowPlane) {
  // The S2S query ends in G+R: once the watermark closes the window, the
  // whole source prefix drains as kPartial aggregation state.
  query::CompiledQuery q = CompileS2S();
  SourceExecutor exec(q, S2SCosts(), SourceExecutorOptions{});
  ASSERT_TRUE(exec.Init().ok());
  exec.SetLoadFactors({1, 1, 1});
  exec.Ingest(ProbeBatch(100));
  auto out = exec.RunEpoch(Seconds(20), false);
  ASSERT_TRUE(out.ok());
  ASSERT_GT(out->DrainedRecords(), 0u);
  for (const DrainRecord& dr : out->FlattenDrain()) {
    EXPECT_EQ(dr.record.kind, stream::RecordKind::kPartial);
  }
}

// ---------------------------------------------------------------------------
// Golden transcript of the row plane's stage hand-off: a stateful query under
// fractional load factors and a binding budget, so backlog carries across
// epochs (partial takes, cross-epoch runs, a budget dip that leaves most of
// the stage-0 input queued), one reconfiguration flush, and a checkpoint body
// exported after every epoch. The fixture pins, per epoch, every drain chunk
// (entry operator, record count, hash of the records), every proxy's
// arrived/forwarded/drained/processed/pending counts, and the checkpoint body
// (length and hash), so any change to routing, hand-off order or checkpoint
// bytes shows here.
// ---------------------------------------------------------------------------

uint64_t Fnv1a(const std::vector<uint8_t>& bytes) {
  uint64_t h = 1469598103934665603ull;
  for (uint8_t b : bytes) {
    h ^= b;
    h *= 1099511628211ull;
  }
  return h;
}

std::string Hex64(uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

std::string RenderEpoch(size_t e, const SourceEpochOutput& out,
                        const std::vector<uint8_t>& ckpt) {
  std::string text = "epoch " + std::to_string(e) +
                     " wm=" + std::to_string(out.watermark) +
                     " bytes=" + std::to_string(out.drained_bytes) + "\n";
  for (const DrainChunk& chunk : out.to_sp) {
    ser::BufferWriter w;
    stream::SerializeBatch(chunk.rows, stream::Schema(), &w);
    text += " drain " + std::to_string(chunk.sp_entry_op) + " n=" +
            std::to_string(chunk.rows.size()) + " " + Hex64(Fnv1a(w.data())) +
            "\n";
  }
  // arrived/forwarded/drained/processed/pending
  for (const ProxyObservation& p : out.observation.proxies) {
    text += " proxy " + std::to_string(p.arrived) + "/" +
            std::to_string(p.forwarded) + "/" + std::to_string(p.drained) +
            "/" + std::to_string(p.processed) + "/" +
            std::to_string(p.pending) + "\n";
  }
  return text + " ckpt " + std::to_string(ckpt.size()) + " " +
         Hex64(Fnv1a(ckpt)) + "\n";
}

std::string RunHandOffGolden() {
  query::CompiledQuery q = CompileS2S();
  SourceExecutorOptions opts;
  opts.cpu_budget_fraction = 0.03;
  SourceExecutor exec(q, S2SCosts(), opts);
  EXPECT_TRUE(exec.Init().ok());
  const std::vector<int> inputs = {1000, 600, 1400, 800, 1200, 500};
  std::string transcript;
  for (size_t e = 0; e < inputs.size(); ++e) {
    // Epoch 3 drains the whole filter input (a fully drained batch) and
    // epoch 2 runs on a budget too small for stage 0 to finish its input.
    exec.SetLoadFactors(e == 3 ? std::vector<double>{1, 0, 1}
                               : std::vector<double>{1, 0.37, 0.8});
    exec.SetCpuBudget(e == 2 ? 0.008 : 0.03);
    if (e == 4) exec.RequestFlush();
    const Micros t0 = Seconds(4 * static_cast<int64_t>(e));
    exec.Ingest(ProbeBatch(inputs[e], t0));
    auto out = exec.RunEpoch(t0 + Seconds(4), /*profile_mode=*/e == 1);
    EXPECT_TRUE(out.ok());
    if (!out.ok()) return transcript;
    ser::BufferWriter w;
    EXPECT_TRUE(exec.ExportCheckpointBody(&w, e % 3 == 0
                                                  ? stream::StateExport::kFull
                                                  : stream::StateExport::kDelta)
                    .ok());
    transcript += RenderEpoch(e, *out, w.data());
  }
  return transcript;
}

constexpr const char* kHandOffGolden =
    "epoch 0 wm=4000000 bytes=16588\n"
    " drain 1 n=630 7b01375220a46ecf\n"
    " drain 2 n=63 04f849760b378f8d\n"
    " proxy 1000/1000/0/1000/0\n"
    " proxy 1000/370/630/370/0\n"
    " proxy 315/252/63/126/126\n"
    " ckpt 14996 03d228adcd77ef9f\n"
    "epoch 1 wm=8000000 bytes=11161\n"
    " drain 1 n=378 35f9b33fa319bf9b\n"
    " drain 2 n=37 85b0cf7275eee7f8\n"
    " proxy 600/600/0/600/0\n"
    " proxy 600/222/378/222/0\n"
    " proxy 182/145/37/100/171\n"
    " ckpt 25464 f85327fa2ada68e2\n"
    "epoch 2 wm=12000000 bytes=35926\n"
    " drain 1 n=504 0a87d06bae2eb041\n"
    " drain 2 n=226 d741d8a27ae2028c\n"
    " proxy 1400/1400/0/800/600\n"
    " proxy 800/296/504/0/296\n"
    " proxy 0/0/0/0/171\n"
    " ckpt 25707 f5c8a890311eb2fe\n"
    "epoch 3 wm=16000000 bytes=50026\n"
    " drain 1 n=1400 29df170da545699e\n"
    " drain 2 n=100 428719878a211f0b\n"
    " proxy 800/800/0/1400/0\n"
    " proxy 1400/0/1400/296/0\n"
    " proxy 256/256/0/100/327\n"
    " ckpt 7959 cf40fbbe6cf2807a\n"
    "epoch 4 wm=20000000 bytes=42992\n"
    " drain 2 n=327 19c218194feb87b9\n"
    " drain 1 n=756 58803c4ba7fd9de6\n"
    " drain 2 n=167 8abf71752457eb85\n"
    " proxy 1200/1200/0/1200/0\n"
    " proxy 1200/444/756/444/0\n"
    " proxy 380/304/76/91/213\n"
    " ckpt 5241 3c609756a03909a1\n"
    "epoch 5 wm=24000000 bytes=32092\n"
    " drain 1 n=315 acc1250f09cba410\n"
    " drain 2 n=245 65afd967506084ed\n"
    " proxy 500/500/0/500/0\n"
    " proxy 500/185/315/185/0\n"
    " proxy 163/131/32/213/131\n"
    " ckpt 3256 63ecc3375678ad8e\n";

TEST(SourceExecutorGoldenTest, RowPlaneHandOffMatchesFixture) {
  EXPECT_EQ(RunHandOffGolden(), kHandOffGolden);
}

}  // namespace
}  // namespace jarvis::core
