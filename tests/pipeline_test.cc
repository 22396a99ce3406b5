#include <gtest/gtest.h>

#include "stream/group_aggregate.h"
#include "stream/ops.h"
#include "stream/pipeline.h"
#include "testing/test_util.h"

namespace jarvis::stream {
namespace {

using jarvis::testing::KvSchema;
using jarvis::testing::MakeRecord;

/// A one-record batch, for pushing records through a pipeline one by one.
RecordBatch One(Record&& rec) {
  RecordBatch batch;
  batch.push_back(std::move(rec));
  return batch;
}

Pipeline MakeWindowFilterAgg() {
  Pipeline p;
  p.Add(std::make_unique<WindowOp>("w", KvSchema(), Seconds(10)));
  p.Add(std::make_unique<FilterOp>(
      "f", KvSchema(), [](const Record& r) { return r.i64(0) != 0; }));
  p.Add(std::make_unique<GroupAggregateOp>(
      "g", KvSchema(), std::vector<size_t>{0},
      std::vector<AggSpec>{{AggKind::kCount, 0, "cnt"},
                           {AggKind::kSum, 1, "sum"}},
      Seconds(10), false));
  return p;
}

TEST(PipelineTest, PushCascades) {
  Pipeline p = MakeWindowFilterAgg();
  RecordBatch out;
  ASSERT_TRUE(p.PushBatch(One(MakeRecord(Seconds(1), 1, 2.0)), &out).ok());
  // k == 0: filtered.
  ASSERT_TRUE(p.PushBatch(One(MakeRecord(Seconds(2), 0, 9.0)), &out).ok());
  ASSERT_TRUE(p.PushBatch(One(MakeRecord(Seconds(3), 1, 3.0)), &out).ok());
  EXPECT_TRUE(out.empty());
  ASSERT_TRUE(p.OnWatermark(Seconds(10), &out).ok());
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].i64(0), 1);
  EXPECT_EQ(out[0].i64(1), 2);
  EXPECT_DOUBLE_EQ(out[0].f64(2), 5.0);
}

TEST(PipelineTest, PushBatchFromSkipsPrefix) {
  Pipeline p = MakeWindowFilterAgg();
  // Entering after the filter: even the k==0 record reaches the aggregate.
  Record r = MakeRecord(Seconds(1), 0, 1.0);
  r.window_start = 0;
  RecordBatch out;
  ASSERT_TRUE(p.PushBatchFrom(2, One(std::move(r)), &out).ok());
  ASSERT_TRUE(p.OnWatermark(Seconds(10), &out).ok());
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].i64(0), 0);
}

TEST(PipelineTest, PushBatchFromPastEndIsPassThrough) {
  Pipeline p = MakeWindowFilterAgg();
  RecordBatch out;
  ASSERT_TRUE(p.PushBatchFrom(3, One(MakeRecord(1, 5, 5.0)), &out).ok());
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].i64(0), 5);
}

TEST(PipelineTest, WatermarkEmissionsFlowDownstream) {
  // Aggregate followed by a filter on the aggregate output: window emissions
  // must pass through the downstream filter.
  Pipeline p;
  p.Add(std::make_unique<WindowOp>("w", KvSchema(), Seconds(10)));
  p.Add(std::make_unique<GroupAggregateOp>(
      "g", KvSchema(), std::vector<size_t>{0},
      std::vector<AggSpec>{{AggKind::kCount, 0, "cnt"}}, Seconds(10), false));
  Schema agg_schema = Schema::Of({{"k", ValueType::kInt64},
                                  {"cnt", ValueType::kInt64}});
  p.Add(std::make_unique<FilterOp>(
      "f2", agg_schema, [](const Record& r) { return r.i64(1) >= 2; }));

  RecordBatch out;
  ASSERT_TRUE(p.PushBatch(One(MakeRecord(1, 1, 0.0)), &out).ok());
  ASSERT_TRUE(p.PushBatch(One(MakeRecord(2, 1, 0.0)), &out).ok());
  ASSERT_TRUE(p.PushBatch(One(MakeRecord(3, 2, 0.0)), &out).ok());
  ASSERT_TRUE(p.OnWatermark(Seconds(10), &out).ok());
  ASSERT_EQ(out.size(), 1u);  // k=2 has count 1 and is filtered out
  EXPECT_EQ(out[0].i64(0), 1);
}

TEST(PipelineTest, ExpandingMapAfterAggregateSeesWindowCloses) {
  // Window -> count by k -> a Map that emits every row twice, the copy with
  // its count negated. Window closes (OnWatermark) and state flushes (Flush)
  // must reach the Map exactly as if handed to it by hand.
  const Schema agg_schema =
      Schema::Of({{"k", ValueType::kInt64}, {"cnt", ValueType::kInt64}});
  auto make_agg = [] {
    return std::make_unique<GroupAggregateOp>(
        "g", KvSchema(), std::vector<size_t>{0},
        std::vector<AggSpec>{{AggKind::kCount, 0, "cnt"}}, Seconds(10),
        false);
  };
  auto make_map = [&] {
    return std::make_unique<MapOp>(
        "m", agg_schema, [](Record&& r, RecordBatch* out) {
          out->push_back(r);
          r.fields[1] = Value(-r.i64(1));
          out->push_back(std::move(r));
          return Status::OK();
        });
  };
  RecordBatch input;
  for (const int64_t k : {1, 2, 1, 3, 1}) {
    input.push_back(MakeRecord(Seconds(1) + k, k, 0.0));
  }

  for (const bool flush : {false, true}) {
    Pipeline p;
    p.Add(std::make_unique<WindowOp>("w", KvSchema(), Seconds(10)));
    p.Add(make_agg());
    p.Add(make_map());
    RecordBatch out;
    ASSERT_TRUE(p.PushBatch(RecordBatch(input), &out).ok());
    ASSERT_TRUE(out.empty());
    ASSERT_TRUE(
        (flush ? p.Flush(&out) : p.OnWatermark(Seconds(10), &out)).ok());

    WindowOp window("w", KvSchema(), Seconds(10));
    auto agg = make_agg();
    auto map = make_map();
    RecordBatch want = input;
    ASSERT_TRUE(window.Process(&want).ok());
    ASSERT_TRUE(agg->Process(&want).ok());
    ASSERT_TRUE(want.empty());
    ASSERT_TRUE((flush ? agg->ExportPartialState(&want)
                       : agg->OnWatermark(Seconds(10), &want))
                    .ok());
    ASSERT_TRUE(map->Process(&want).ok());

    EXPECT_EQ(out, want) << (flush ? "Flush" : "OnWatermark");
    // Finalized rows expand 1->2; partial-state rows cross the Map as is.
    EXPECT_EQ(out.size(), flush ? 3u : 6u);
    for (const Record& r : out) {
      EXPECT_EQ(r.kind, flush ? RecordKind::kPartial : RecordKind::kData);
    }
    const OperatorStats& got = p.op(2).stats();
    EXPECT_EQ(got.records_in, map->stats().records_in);
    EXPECT_EQ(got.records_out, map->stats().records_out);
    EXPECT_EQ(got.bytes_in, map->stats().bytes_in);
    EXPECT_EQ(got.bytes_out, map->stats().bytes_out);
  }
}

TEST(PipelineTest, FlushExportsState) {
  Pipeline p = MakeWindowFilterAgg();
  RecordBatch out;
  ASSERT_TRUE(p.PushBatch(One(MakeRecord(Seconds(1), 1, 2.0)), &out).ok());
  ASSERT_TRUE(p.Flush(&out).ok());
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].kind, RecordKind::kPartial);
}

TEST(PipelineTest, ResetStatsClearsAllOperators) {
  Pipeline p = MakeWindowFilterAgg();
  RecordBatch out;
  ASSERT_TRUE(p.PushBatch(One(MakeRecord(1, 1, 1.0)), &out).ok());
  EXPECT_GT(p.op(0).stats().records_in, 0u);
  p.ResetStats();
  for (size_t i = 0; i < p.size(); ++i) {
    EXPECT_EQ(p.op(i).stats().records_in, 0u);
  }
}

TEST(PipelineTest, OutputSchemaIsLastOperators) {
  Pipeline p = MakeWindowFilterAgg();
  EXPECT_EQ(p.output_schema().field(1).name, "cnt");
}

}  // namespace
}  // namespace jarvis::stream
