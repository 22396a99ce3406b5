#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>

#include "core/building_block.h"
#include "workloads/pingmesh.h"
#include "workloads/queries.h"

namespace jarvis::core {
namespace {

query::CompiledQuery CompileS2S() {
  auto plan = workloads::MakeS2SProbeQuery();
  EXPECT_TRUE(plan.ok());
  auto compiled = query::Compile(std::move(plan).value());
  EXPECT_TRUE(compiled.ok());
  return std::move(compiled).value();
}

BuildingBlock::SourceSpec MakeSpec(uint64_t seed, double budget,
                                   int pairs = 100) {
  BuildingBlock::SourceSpec spec;
  spec.cost_model = std::make_shared<FixedCostModel>(
      std::vector<double>{1e-6, 2e-6, 1e-5});
  spec.options.cpu_budget_fraction = budget;
  workloads::PingmeshConfig cfg;
  cfg.seed = seed;
  cfg.source_ip = static_cast<int64_t>(seed) * 100000;
  cfg.num_pairs = pairs;
  cfg.probe_interval = Seconds(1);
  auto gen = std::make_shared<workloads::PingmeshGenerator>(cfg);
  spec.generate = [gen](Micros from, Micros to) {
    return gen->Generate(from, to);
  };
  return spec;
}

TEST(BuildingBlockTest, SingleSourceEndToEnd) {
  query::CompiledQuery q = CompileS2S();
  std::vector<BuildingBlock::SourceSpec> specs;
  specs.push_back(MakeSpec(1, 1.0));
  BuildingBlock block(q, std::move(specs));
  ASSERT_TRUE(block.Init().ok());
  stream::RecordBatch results;
  for (int e = 0; e < 25; ++e) {
    ASSERT_TRUE(block.RunEpoch(&results).ok());
  }
  EXPECT_FALSE(results.empty());
  // The runtime adapted at least once and converged.
  EXPECT_GT(block.runtime(0).adaptations_completed(), 0);
}

TEST(BuildingBlockTest, MultipleSourcesMergeAtTheStreamProcessor) {
  query::CompiledQuery q = CompileS2S();
  std::vector<BuildingBlock::SourceSpec> specs;
  for (uint64_t s = 1; s <= 3; ++s) specs.push_back(MakeSpec(s, 1.0, 50));
  BuildingBlock block(q, std::move(specs));
  ASSERT_TRUE(block.Init().ok());
  stream::RecordBatch results;
  for (int e = 0; e < 15; ++e) {
    ASSERT_TRUE(block.RunEpoch(&results).ok());
  }
  ASSERT_TRUE(block.Finish(&results).ok());
  // 3 sources x 50 distinct (src,dst) pairs must all appear.
  std::set<std::pair<int64_t, int64_t>> pairs;
  for (const stream::Record& r : results) {
    pairs.insert({r.i64(0), r.i64(1)});
  }
  EXPECT_EQ(pairs.size(), 150u);
}

TEST(BuildingBlockTest, CheckpointShipsStateToStreamProcessor) {
  query::CompiledQuery q = CompileS2S();
  std::vector<BuildingBlock::SourceSpec> specs;
  specs.push_back(MakeSpec(7, 1.0));
  BuildingBlock block(q, std::move(specs));
  ASSERT_TRUE(block.Init().ok());
  FaultToleranceOptions ft;
  ft.checkpoint_interval = 1;
  block.EnableFaultTolerance(ft);
  stream::RecordBatch results;
  for (int e = 0; e < 4; ++e) ASSERT_TRUE(block.RunEpoch(&results).ok());
  // Every epoch barrier shipped a checkpoint frame through the drain path,
  // and the stream processor retained it for recovery.
  EXPECT_EQ(block.fault_stats().checkpoints_emitted, 4u);
  EXPECT_GT(block.fault_stats().checkpoint_bytes, 0u);
  EXPECT_GT(block.stream_processor().checkpoint_store(0).size(), 0u);
}

/// Window-0 (src, dst) groups of a result batch, as a multiset.
std::multiset<std::string> WindowZeroGroups(const stream::RecordBatch& rs) {
  std::multiset<std::string> groups;
  for (const auto& r : rs) {
    if (r.window_start == 0) {
      groups.insert(stream::ValueToString(r.fields[0]) + "/" +
                    stream::ValueToString(r.fields[1]));
    }
  }
  return groups;
}

TEST(BuildingBlockTest, SourceFailureAfterCheckpointLosesNothing) {
  // The Section IV-E fault-tolerance story: state checkpointed via the
  // drain path lets the stream processor finalize the current window after
  // the source dies — here it never re-admits, and the end-of-run recovery
  // restores it from its checkpoint chain.
  query::CompiledQuery q = CompileS2S();

  auto run = [&](bool crash) {
    std::vector<BuildingBlock::SourceSpec> specs;
    specs.push_back(MakeSpec(9, 1.0));
    BuildingBlock block(q, std::move(specs));
    FaultToleranceOptions ft;
    ft.checkpoint_interval = 1;
    ft.readmit_after_epochs = -1;
    block.EnableFaultTolerance(ft);
    auto plan = FaultPlan::Parse("seed=1;crash@3:0");
    EXPECT_TRUE(plan.ok());
    block.SetFaultPlan(crash ? std::move(plan).value() : FaultPlan());
    stream::RecordBatch results;
    for (int e = 0; e < 6; ++e) EXPECT_TRUE(block.RunEpoch(&results).ok());
    EXPECT_EQ(block.fault_stats().crashes, crash ? 1u : 0u);
    EXPECT_TRUE(block.Finish(&results).ok());
    EXPECT_EQ(block.fault_stats().checkpoint_restores, crash ? 1u : 0u);
    EXPECT_EQ(block.fault_stats().records_lost, 0u);
    return results;
  };

  const std::multiset<std::string> a = WindowZeroGroups(run(true));
  const std::multiset<std::string> b = WindowZeroGroups(run(false));
  // Every epoch of probes in the first window is represented in both runs:
  // same groups, same counts.
  EXPECT_EQ(a, b);
  EXPECT_FALSE(a.empty());
}

TEST(BuildingBlockTest, FailedSourceDoesNotBlockSurvivors) {
  query::CompiledQuery q = CompileS2S();
  std::vector<BuildingBlock::SourceSpec> specs;
  specs.push_back(MakeSpec(11, 1.0, 30));
  specs.push_back(MakeSpec(12, 1.0, 30));
  BuildingBlock block(q, std::move(specs));
  FaultToleranceOptions ft;
  ft.checkpoint_interval = -1;
  ft.readmit_after_epochs = -1;
  block.EnableFaultTolerance(ft);
  auto plan = FaultPlan::Parse("seed=1;crash@3:0");
  ASSERT_TRUE(plan.ok());
  block.SetFaultPlan(std::move(plan).value());
  stream::RecordBatch results;
  for (int e = 0; e < 4; ++e) ASSERT_TRUE(block.RunEpoch(&results).ok());
  ASSERT_EQ(block.health(0), SourceHealth::kQuarantined);
  // The surviving source's windows keep closing (the dead source's
  // watermark was released).
  const size_t before = results.size();
  for (int e = 4; e < 15; ++e) ASSERT_TRUE(block.RunEpoch(&results).ok());
  EXPECT_GT(results.size(), before);
  EXPECT_EQ(block.health(0), SourceHealth::kQuarantined);
}

TEST(BuildingBlockTest, EpochTapSeesEverySourceEpochInOrder) {
  query::CompiledQuery q = CompileS2S();
  std::vector<BuildingBlock::SourceSpec> specs;
  for (uint64_t s = 1; s <= 3; ++s) specs.push_back(MakeSpec(s, 0.5, 50));
  BuildingBlock block(q, std::move(specs));
  ASSERT_TRUE(block.Init().ok());
  block.EnableFaultTolerance(FaultToleranceOptions());
  block.SetFaultPlan(FaultPlan());  // no scripted crash may skip a tap
  std::vector<size_t> order;
  std::vector<double> ratios;
  block.SetEpochTap([&](size_t source, const SourceEpochOutput& out) {
    order.push_back(source);
    if (!out.observation.profiles_valid) return;
    for (const OperatorProfile& p : out.observation.profiles) {
      ratios.push_back(p.wire_ratio);
    }
  });
  constexpr int kEpochs = 6;
  stream::RecordBatch results;
  for (int e = 0; e < kEpochs; ++e) {
    ASSERT_TRUE(block.RunEpoch(&results).ok());
  }
  // Once per source per epoch, in ascending source order.
  std::vector<size_t> want;
  for (int e = 0; e < kEpochs; ++e) {
    for (size_t s = 0; s < 3; ++s) want.push_back(s);
  }
  EXPECT_EQ(order, want);
  // A profiling epoch's observation carries the measured wire ratios, not
  // the unmeasured default of 1.
  ASSERT_FALSE(ratios.empty());
  EXPECT_TRUE(std::any_of(ratios.begin(), ratios.end(),
                          [](double r) { return r != 1.0; }));
  for (const double r : ratios) {
    EXPECT_GT(r, 0.0);
    EXPECT_LE(r, 64.0);
  }
}

}  // namespace
}  // namespace jarvis::core
