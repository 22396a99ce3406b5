#include <gtest/gtest.h>

#include "stream/join.h"
#include "testing/test_util.h"

namespace jarvis::stream {
namespace {

using jarvis::testing::ProcessOne;

Schema ProbeSchema() { return jarvis::testing::KvSchema("ip", "rtt"); }

std::shared_ptr<StaticTable> MakeTable() {
  auto t = std::make_shared<StaticTable>(
      "ipAddr", Schema::Field{"torId", ValueType::kInt64});
  for (int64_t ip = 100; ip < 110; ++ip) t->Insert(ip, Value(ip / 5));
  return t;
}

Record Rec(int64_t ip, double rtt) {
  return jarvis::testing::MakeRecord(/*event_time=*/1, ip, rtt);
}

TEST(StaticTableTest, FindHitAndMiss) {
  auto t = MakeTable();
  ASSERT_NE(t->Find(100), nullptr);
  EXPECT_EQ(std::get<int64_t>(*t->Find(100)), 20);
  EXPECT_EQ(t->Find(999), nullptr);
  EXPECT_EQ(t->size(), 10u);
}

TEST(JoinOpTest, AppendsTableValue) {
  JoinOp op("j", ProbeSchema(), MakeTable(), 0);
  RecordBatch out;
  ASSERT_TRUE(ProcessOne(op, Rec(104, 1.5), &out).ok());
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].fields.size(), 3u);
  EXPECT_EQ(out[0].i64(2), 104 / 5);
  EXPECT_EQ(op.output_schema().field(2).name, "torId");
}

TEST(JoinOpTest, MissDropsAndCounts) {
  JoinOp op("j", ProbeSchema(), MakeTable(), 0);
  RecordBatch out;
  ASSERT_TRUE(ProcessOne(op, Rec(999, 1.5), &out).ok());
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(op.misses(), 1u);
}

TEST(JoinOpTest, PartialRecordsBypassJoin) {
  JoinOp op("j", ProbeSchema(), MakeTable(), 0);
  Record p = Rec(999, 1.0);
  p.kind = RecordKind::kPartial;
  RecordBatch out;
  ASSERT_TRUE(ProcessOne(op, std::move(p), &out).ok());
  EXPECT_EQ(out.size(), 1u);
  EXPECT_EQ(op.misses(), 0u);
}

TEST(JoinOpTest, OutOfRangeKeyFieldFails) {
  JoinOp op("j", ProbeSchema(), MakeTable(), 7);
  RecordBatch out;
  EXPECT_EQ(ProcessOne(op, Rec(100, 1.0), &out).code(),
            StatusCode::kOutOfRange);
}

TEST(JoinOpTest, StatsReflectEnrichment) {
  JoinOp op("j", ProbeSchema(), MakeTable(), 0);
  RecordBatch out;
  ASSERT_TRUE(ProcessOne(op, Rec(100, 1.0), &out).ok());
  // The appended column makes output records slightly larger.
  EXPECT_GT(op.stats().bytes_out, op.stats().bytes_in);
}

TEST(JoinOpTest, ChainedJoinsComposeSchemas) {
  auto t1 = MakeTable();
  auto t2 = std::make_shared<StaticTable>(
      "ipAddr", Schema::Field{"cluster", ValueType::kInt64});
  t2->Insert(100, Value(int64_t{9}));
  JoinOp j1("j1", ProbeSchema(), t1, 0);
  JoinOp j2("j2", j1.output_schema(), t2, 0);
  EXPECT_EQ(j2.output_schema().num_fields(), 4u);
  RecordBatch mid, out;
  ASSERT_TRUE(ProcessOne(j1, Rec(100, 1.0), &mid).ok());
  ASSERT_TRUE(ProcessOne(j2, std::move(mid[0]), &out).ok());
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].i64(3), 9);
}

}  // namespace
}  // namespace jarvis::stream
