// Churn and backpressure stress for the multithreaded executor runtime:
// sources joining/leaving mid-run, a bounded drain hand-off under a slow SP
// consumer, and an injected straggler source. Asserts the determinism
// contract the paper's deployment story needs: no deadlock, no lost or
// duplicated drain chunks, per-source chunk order preserved, monotone
// watermarks — and, for the BuildingBlock loop, bit-identical results
// between threads=1 and threads=N under the same churn script.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <map>
#include <set>
#include <thread>
#include <vector>

#include "core/building_block.h"
#include "core/exec_pool.h"
#include "stream/watermark.h"
#include "testing/test_util.h"
#include "workloads/pingmesh.h"
#include "workloads/queries.h"

namespace jarvis::core {
namespace {

void SleepMs(int ms) {
  std::this_thread::sleep_for(std::chrono::milliseconds(ms));
}

/// One drain hand-off unit for the mini-runtime below: a source's chunk with
/// a per-source sequence number and the source's watermark after the chunk.
struct Chunk {
  size_t source = 0;
  uint32_t seq = 0;
  Micros watermark = 0;
};

// ---------------------------------------------------------------------------
// Pool + bounded-channel mini-runtime: chunk-granularity churn.
// ---------------------------------------------------------------------------

TEST(ChurnStressTest, JoinLeaveStragglerConservesChunksAndWatermarks) {
  ExecPool pool(4);
  BoundedQueue<Chunk> channel(8);  // small bound: real backpressure
  constexpr size_t kInitialSources = 6;
  constexpr size_t kJoiners = 3;
  constexpr uint32_t kChunksPerSource = 40;
  constexpr size_t kStraggler = 2;

  std::vector<uint32_t> sent(kInitialSources + kJoiners, 0);
  auto submit_source = [&](size_t s, uint32_t chunks) {
    for (uint32_t c = 0; c < chunks; ++c) {
      pool.Submit(s, [&channel, s, c] {
        if (s == kStraggler && c % 8 == 0) SleepMs(2);  // straggler source
        ASSERT_TRUE(channel.Push(
            Chunk{s, c, static_cast<Micros>(c + 1) * Seconds(1)}));
      });
      ++sent[s];
    }
  };

  // Initial fleet; "leaving" sources simply submit fewer chunks.
  for (size_t s = 0; s < kInitialSources; ++s) {
    submit_source(s, s == 1 ? kChunksPerSource / 4 : kChunksPerSource);
  }

  // Slow SP consumer: pops with injected delay, merges watermarks, and
  // verifies per-source order on the fly.
  stream::WatermarkMerger merger(kInitialSources + kJoiners);
  std::map<size_t, uint32_t> next_seq;
  std::map<size_t, uint32_t> received;
  std::atomic<bool> joined_mid_run{false};
  Micros last_merged = stream::WatermarkMerger::kUninitialized;
  std::thread consumer([&] {
    uint64_t pops = 0;
    for (;;) {
      auto chunk = channel.Pop();
      if (!chunk.has_value()) return;
      if (++pops % 8 == 0) SleepMs(1);  // the slow SP
      // No lost or duplicated chunks, in order, per source.
      ASSERT_EQ(chunk->seq, next_seq[chunk->source])
          << "source " << chunk->source;
      ++next_seq[chunk->source];
      ++received[chunk->source];
      merger.Update(chunk->source, chunk->watermark);
      const Micros merged = merger.Merged();
      if (merged != stream::WatermarkMerger::kUninitialized) {
        // Watermarks only ever advance.
        ASSERT_TRUE(last_merged == stream::WatermarkMerger::kUninitialized ||
                    merged >= last_merged);
        last_merged = merged;
      }
      if (pops == 60 && !joined_mid_run.load()) {
        // Mid-run join: new sources appear while the consumer is behind.
        joined_mid_run.store(true);
      }
    }
  });

  // Let the fleet run a bit, then churn: three sources join mid-run.
  while (!joined_mid_run.load()) SleepMs(1);
  for (size_t j = 0; j < kJoiners; ++j) {
    submit_source(kInitialSources + j, kChunksPerSource / 2);
  }

  pool.WaitIdle();   // all producers done (no deadlock against the bound)
  channel.Close();   // consumer drains the remainder and exits
  consumer.join();
  pool.Stop();

  for (size_t s = 0; s < sent.size(); ++s) {
    EXPECT_EQ(received[s], sent[s]) << "source " << s;
  }
  // Channel fully drained: nothing stranded behind the bound.
  EXPECT_EQ(channel.size(), 0u);
}

TEST(ChurnStressTest, BackpressureBoundsTheChannelUnderASlowConsumer) {
  ExecPool pool(3);
  constexpr size_t kBound = 4;
  BoundedQueue<Chunk> channel(kBound);
  constexpr uint32_t kChunks = 64;
  for (size_t s = 0; s < 3; ++s) {
    for (uint32_t c = 0; c < kChunks; ++c) {
      pool.Submit(s, [&channel, s, c] {
        ASSERT_TRUE(channel.Push(Chunk{s, c, 0}));
      });
    }
  }
  size_t max_depth = 0;
  uint32_t popped = 0;
  while (popped < 3 * kChunks) {
    max_depth = std::max(max_depth, channel.size());
    auto chunk = channel.Pop();
    ASSERT_TRUE(chunk.has_value());
    ++popped;
    if (popped % 4 == 0) SleepMs(1);
  }
  pool.WaitIdle();
  pool.Stop();
  EXPECT_LE(max_depth, kBound);
  EXPECT_EQ(channel.size(), 0u);
}

// ---------------------------------------------------------------------------
// BuildingBlock churn: the real executors under join/leave/checkpoint, with
// the multithreaded run held bit-identical to the serial reference.
// ---------------------------------------------------------------------------

query::CompiledQuery CompileS2S() {
  auto plan = workloads::MakeS2SProbeQuery();
  EXPECT_TRUE(plan.ok());
  auto compiled = query::Compile(std::move(plan).value());
  EXPECT_TRUE(compiled.ok());
  return std::move(compiled).value();
}

BuildingBlock::SourceSpec MakeSpec(uint64_t seed, int pairs) {
  BuildingBlock::SourceSpec spec;
  spec.cost_model = std::make_shared<FixedCostModel>(
      std::vector<double>{1e-6, 2e-6, 1e-5});
  spec.options.cpu_budget_fraction = 0.4;  // leaves a backlog under churn
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

/// Runs the scripted churn (source 1 crashes in epoch 3 and never re-admits,
/// a source joins after epoch 4, source 0 flushes its pending state in epoch
/// 7) at the given thread count and returns the full result batch; also
/// asserts the merged watermark is monotone and the epoch loop never errors
/// or hangs.
stream::RecordBatch RunScriptedChurn(const query::CompiledQuery& q,
                                     int threads,
                                     std::vector<Micros>* watermarks) {
  std::vector<BuildingBlock::SourceSpec> specs;
  for (uint64_t s = 1; s <= 4; ++s) specs.push_back(MakeSpec(s, 40));
  BuildingBlock block(q, std::move(specs), RuntimeConfig(), threads);
  EXPECT_TRUE(block.Init().ok());
  FaultToleranceOptions ft;
  ft.readmit_after_epochs = -1;
  block.EnableFaultTolerance(ft);
  auto plan = FaultPlan::Parse("seed=1;crash@3:1");
  EXPECT_TRUE(plan.ok());
  block.SetFaultPlan(std::move(plan).value());
  stream::RecordBatch results;
  Micros last = stream::WatermarkMerger::kUninitialized;
  for (int e = 0; e < 12; ++e) {
    EXPECT_TRUE(block.RunEpoch(&results).ok()) << "epoch " << e;
    if (e == 4) {
      auto id = block.AddSource(MakeSpec(99, 40));
      EXPECT_TRUE(id.ok());
      EXPECT_EQ(*id, 4u);
    }
    if (e == 6) block.source(0).RequestFlush();
    const Micros merged = block.stream_processor().merged_watermark();
    if (merged != stream::WatermarkMerger::kUninitialized) {
      EXPECT_TRUE(last == stream::WatermarkMerger::kUninitialized ||
                  merged >= last)
          << "watermark regressed at epoch " << e;
      last = merged;
    }
    watermarks->push_back(merged);
  }
  EXPECT_TRUE(block.Finish(&results).ok());
  return results;
}

TEST(ChurnStressTest, ScriptedChurnIsThreadCountInvariant) {
  const query::CompiledQuery q = CompileS2S();
  std::vector<Micros> wm_serial, wm_mt;
  const stream::RecordBatch serial = RunScriptedChurn(q, 1, &wm_serial);
  ASSERT_FALSE(serial.empty());
  for (const int threads : {2, 4}) {
    wm_mt.clear();
    const stream::RecordBatch mt = RunScriptedChurn(q, threads, &wm_mt);
    // Bit-identical results and watermark trajectory: churn does not erode
    // the cross-thread determinism contract.
    EXPECT_EQ(mt, serial) << "threads=" << threads;
    EXPECT_EQ(wm_mt, wm_serial) << "threads=" << threads;
  }
}

TEST(ChurnStressTest, JoinerParticipatesAndHoldsThenReleasesWatermark) {
  const query::CompiledQuery q = CompileS2S();
  std::vector<BuildingBlock::SourceSpec> specs;
  specs.push_back(MakeSpec(5, 30));
  BuildingBlock block(q, std::move(specs), RuntimeConfig(), 2);
  ASSERT_TRUE(block.Init().ok());
  stream::RecordBatch results;
  for (int e = 0; e < 3; ++e) ASSERT_TRUE(block.RunEpoch(&results).ok());
  const Micros before_join = block.stream_processor().merged_watermark();
  ASSERT_NE(before_join, stream::WatermarkMerger::kUninitialized);

  ASSERT_TRUE(block.AddSource(MakeSpec(6, 30)).ok());
  // The joiner has not reported yet: the merged watermark must hold (not
  // regress, not advance past the newcomer).
  EXPECT_EQ(block.stream_processor().merged_watermark(),
            stream::WatermarkMerger::kUninitialized);
  ASSERT_TRUE(block.RunEpoch(&results).ok());
  const Micros after_join = block.stream_processor().merged_watermark();
  EXPECT_GE(after_join, before_join);
  for (int e = 0; e < 8; ++e) ASSERT_TRUE(block.RunEpoch(&results).ok());
  ASSERT_TRUE(block.Finish(&results).ok());
  // Both sources' pairs appear in the results: the joiner really ran.
  std::set<int64_t> src_ips;
  for (const stream::Record& r : results) src_ips.insert(r.i64(0));
  EXPECT_GE(src_ips.size(), 2u);
}

}  // namespace
}  // namespace jarvis::core
