#include <gtest/gtest.h>

#include <bit>
#include <cinttypes>
#include <cstdio>
#include <limits>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "stream/group_aggregate.h"
#include "testing/test_util.h"

namespace jarvis::stream {
namespace {

using jarvis::testing::BatchNear;
using jarvis::testing::MakeWindowedRecord;
using jarvis::testing::ProcessOne;

Schema InSchema() { return jarvis::testing::KvSchema("key", "val"); }

std::vector<AggSpec> AllAggs() {
  return {{AggKind::kCount, 0, "cnt"},
          {AggKind::kSum, 1, "sum"},
          {AggKind::kAvg, 1, "avg"},
          {AggKind::kMin, 1, "min"},
          {AggKind::kMax, 1, "max"}};
}


TEST(GroupAggregateTest, OutputSchemaLayout) {
  Schema out = GroupAggregateOp::MakeOutputSchema(InSchema(), {0}, AllAggs());
  ASSERT_EQ(out.num_fields(), 6u);
  EXPECT_EQ(out.field(0).name, "key");
  EXPECT_EQ(out.field(1).name, "cnt");
  EXPECT_EQ(out.field(1).type, ValueType::kInt64);
  EXPECT_EQ(out.field(2).type, ValueType::kDouble);
}

TEST(GroupAggregateTest, BasicAggregation) {
  GroupAggregateOp op("g", InSchema(), {0}, AllAggs(), Seconds(10),
                      /*emit_partials=*/false);
  RecordBatch out;
  ASSERT_TRUE(ProcessOne(op, MakeWindowedRecord(1, 0, 1, 2.0), &out).ok());
  ASSERT_TRUE(ProcessOne(op, MakeWindowedRecord(2, 0, 1, 4.0), &out).ok());
  ASSERT_TRUE(ProcessOne(op, MakeWindowedRecord(3, 0, 2, 10.0), &out).ok());
  EXPECT_TRUE(out.empty());  // emission only on window close
  EXPECT_EQ(op.open_windows(), 1u);

  ASSERT_TRUE(op.OnWatermark(Seconds(10), &out).ok());
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(op.open_windows(), 0u);

  // Groups are emitted in encoded-key order (key 1, then key 2).
  const Record& g1 = out[0];
  EXPECT_EQ(g1.i64(0), 1);
  EXPECT_EQ(g1.i64(1), 2);            // count
  EXPECT_DOUBLE_EQ(g1.f64(2), 6.0);   // sum
  EXPECT_DOUBLE_EQ(g1.f64(3), 3.0);   // avg
  EXPECT_DOUBLE_EQ(g1.f64(4), 2.0);   // min
  EXPECT_DOUBLE_EQ(g1.f64(5), 4.0);   // max

  const Record& g2 = out[1];
  EXPECT_EQ(g2.i64(0), 2);
  EXPECT_EQ(g2.i64(1), 1);
  EXPECT_DOUBLE_EQ(g2.f64(3), 10.0);
}

TEST(GroupAggregateTest, EmissionCarriesWindowTimes) {
  GroupAggregateOp op("g", InSchema(), {0}, AllAggs(), Seconds(10), false);
  RecordBatch out;
  ASSERT_TRUE(ProcessOne(op, MakeWindowedRecord(Seconds(12), Seconds(10), 1, 1.0), &out).ok());
  ASSERT_TRUE(op.OnWatermark(Seconds(20), &out).ok());
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].window_start, Seconds(10));
  EXPECT_EQ(out[0].event_time, Seconds(20));
}

TEST(GroupAggregateTest, WatermarkOnlyClosesDueWindows) {
  GroupAggregateOp op("g", InSchema(), {0}, AllAggs(), Seconds(10), false);
  RecordBatch out;
  ASSERT_TRUE(ProcessOne(op, MakeWindowedRecord(Seconds(5), 0, 1, 1.0), &out).ok());
  ASSERT_TRUE(ProcessOne(op, MakeWindowedRecord(Seconds(15), Seconds(10), 1, 1.0), &out).ok());
  ASSERT_TRUE(op.OnWatermark(Seconds(10), &out).ok());
  EXPECT_EQ(out.size(), 1u);  // only window [0,10) closed
  EXPECT_EQ(op.open_windows(), 1u);
  ASSERT_TRUE(op.OnWatermark(Seconds(20), &out).ok());
  EXPECT_EQ(out.size(), 2u);
}

TEST(GroupAggregateTest, UnwindowedInputIsError) {
  GroupAggregateOp op("g", InSchema(), {0}, AllAggs(), Seconds(10), false);
  Record r = MakeWindowedRecord(1, -1, 1, 1.0);
  r.window_start = -1;
  RecordBatch out;
  EXPECT_EQ(ProcessOne(op, std::move(r), &out).code(),
            StatusCode::kFailedPrecondition);
}

TEST(GroupAggregateTest, PartialModeEmitsPartialRecords) {
  GroupAggregateOp op("g", InSchema(), {0}, AllAggs(), Seconds(10),
                      /*emit_partials=*/true);
  RecordBatch out;
  ASSERT_TRUE(ProcessOne(op, MakeWindowedRecord(1, 0, 1, 2.0), &out).ok());
  ASSERT_TRUE(op.OnWatermark(Seconds(10), &out).ok());
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].kind, RecordKind::kPartial);
  // keys + 4 accumulator slots per agg.
  EXPECT_EQ(out[0].fields.size(), 1u + 4u * 5u);
}

using GroupAggregateSeededTest = jarvis::testing::SeededTest;

TEST_F(GroupAggregateSeededTest, PartialMergeEqualsDirectAggregation) {
  // Split a stream between two "source" operators in partial mode; merging
  // their exports on a third operator must equal aggregating everything
  // directly. This is the paper's losslessness claim in miniature.
  RecordBatch all;
  for (int i = 0; i < 500; ++i) {
    all.push_back(MakeWindowedRecord(i, 0,
                                     static_cast<int64_t>(rng().NextBounded(7)),
                                     rng().NextGaussian() * 10));
  }

  GroupAggregateOp direct("d", InSchema(), {0}, AllAggs(), Seconds(10), false);
  GroupAggregateOp src_a("a", InSchema(), {0}, AllAggs(), Seconds(10), true);
  GroupAggregateOp src_b("b", InSchema(), {0}, AllAggs(), Seconds(10), true);
  GroupAggregateOp merge("m", InSchema(), {0}, AllAggs(), Seconds(10), false);

  RecordBatch sink;
  for (size_t i = 0; i < all.size(); ++i) {
    Record copy = all[i];
    ASSERT_TRUE(ProcessOne(direct, std::move(copy), &sink).ok());
    Record split = all[i];
    ASSERT_TRUE(
        ProcessOne(i % 2 ? src_a : src_b, std::move(split), &sink).ok());
  }
  ASSERT_TRUE(sink.empty());

  RecordBatch partials;
  ASSERT_TRUE(src_a.OnWatermark(Seconds(10), &partials).ok());
  ASSERT_TRUE(src_b.OnWatermark(Seconds(10), &partials).ok());
  for (Record& p : partials) {
    ASSERT_EQ(p.kind, RecordKind::kPartial);
    ASSERT_TRUE(ProcessOne(merge, std::move(p), &sink).ok());
  }

  RecordBatch direct_out, merged_out;
  ASSERT_TRUE(direct.OnWatermark(Seconds(10), &direct_out).ok());
  ASSERT_TRUE(merge.OnWatermark(Seconds(10), &merged_out).ok());
  EXPECT_TRUE(BatchNear(merged_out, direct_out, 1e-9));
}

TEST(GroupAggregateTest, PartialArityMismatchRejected) {
  GroupAggregateOp op("g", InSchema(), {0}, AllAggs(), Seconds(10), false);
  Record bad;
  bad.kind = RecordKind::kPartial;
  bad.window_start = 0;
  bad.fields = {Value(int64_t{1})};  // too few accumulator fields
  RecordBatch out;
  EXPECT_EQ(ProcessOne(op, std::move(bad), &out).code(),
            StatusCode::kSerializationError);
}

TEST(GroupAggregateTest, ExportPartialStateDrainsEverything) {
  GroupAggregateOp op("g", InSchema(), {0}, AllAggs(), Seconds(10), false);
  RecordBatch out;
  ASSERT_TRUE(ProcessOne(op, MakeWindowedRecord(1, 0, 1, 1.0), &out).ok());
  ASSERT_TRUE(ProcessOne(op, MakeWindowedRecord(11, Seconds(10), 2, 2.0), &out).ok());
  RecordBatch exported;
  ASSERT_TRUE(op.ExportPartialState(&exported).ok());
  EXPECT_EQ(exported.size(), 2u);
  for (const Record& r : exported) {
    EXPECT_EQ(r.kind, RecordKind::kPartial);
  }
  EXPECT_EQ(op.open_windows(), 0u);
}

TEST(GroupAggregateTest, MultiKeyGrouping) {
  Schema schema = Schema::Of({{"a", ValueType::kInt64},
                              {"b", ValueType::kString},
                              {"v", ValueType::kDouble}});
  GroupAggregateOp op("g", schema, {0, 1}, {{AggKind::kCount, 0, "cnt"}},
                      Seconds(10), false);
  RecordBatch out;
  auto make = [](int64_t a, const char* b) {
    Record r;
    r.event_time = 1;
    r.window_start = 0;
    r.fields = {Value(a), Value(std::string(b)), Value(1.0)};
    return r;
  };
  ASSERT_TRUE(ProcessOne(op, make(1, "x"), &out).ok());
  ASSERT_TRUE(ProcessOne(op, make(1, "y"), &out).ok());
  ASSERT_TRUE(ProcessOne(op, make(1, "x"), &out).ok());
  ASSERT_TRUE(op.OnWatermark(Seconds(10), &out).ok());
  ASSERT_EQ(out.size(), 2u);
  std::map<std::string, int64_t> counts;
  for (const Record& r : out) counts[r.str(1)] = r.i64(2);
  EXPECT_EQ(counts["x"], 2);
  EXPECT_EQ(counts["y"], 1);
}

TEST(GroupAggregateTest, AggKindNames) {
  EXPECT_EQ(AggKindToString(AggKind::kCount), "count");
  EXPECT_EQ(AggKindToString(AggKind::kSum), "sum");
  EXPECT_EQ(AggKindToString(AggKind::kAvg), "avg");
  EXPECT_EQ(AggKindToString(AggKind::kMin), "min");
  EXPECT_EQ(AggKindToString(AggKind::kMax), "max");
}

// Property: for any interleaving split into k partial operators, merged
// results equal direct aggregation.
class PartialMergePropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(PartialMergePropertyTest, AnySplitIsLossless) {
  const int k = GetParam();
  Rng rng(1000 + k);
  std::vector<AggSpec> aggs = AllAggs();

  GroupAggregateOp direct("d", InSchema(), {0}, aggs, Seconds(10), false);
  std::vector<std::unique_ptr<GroupAggregateOp>> sources;
  for (int i = 0; i < k; ++i) {
    // std::string("s").append(...) sidesteps a gcc-12 -Wrestrict false
    // positive on operator+(const char*, std::string&&).
    sources.push_back(std::make_unique<GroupAggregateOp>(
        std::string("s").append(std::to_string(i)), InSchema(),
        std::vector<size_t>{0}, aggs, Seconds(10), true));
  }
  GroupAggregateOp merge("m", InSchema(), {0}, aggs, Seconds(10), false);

  RecordBatch sink;
  for (int i = 0; i < 300; ++i) {
    const Micros window = Seconds(10) * static_cast<Micros>(rng.NextBounded(3));
    Record r = MakeWindowedRecord(window + 1, window, static_cast<int64_t>(rng.NextBounded(5)),
                   rng.NextGaussian());
    Record copy = r;
    ASSERT_TRUE(ProcessOne(direct, std::move(copy), &sink).ok());
    ASSERT_TRUE(
        ProcessOne(*sources[rng.NextBounded(k)], std::move(r), &sink).ok());
  }
  RecordBatch partials;
  for (auto& s : sources) {
    ASSERT_TRUE(s->OnWatermark(Seconds(30), &partials).ok());
  }
  for (Record& p : partials) {
    ASSERT_TRUE(ProcessOne(merge, std::move(p), &sink).ok());
  }
  RecordBatch direct_out, merged_out;
  ASSERT_TRUE(direct.OnWatermark(Seconds(30), &direct_out).ok());
  ASSERT_TRUE(merge.OnWatermark(Seconds(30), &merged_out).ok());
  EXPECT_TRUE(BatchNear(merged_out, direct_out, 1e-9)) << "split k=" << k;
}

INSTANTIATE_TEST_SUITE_P(Splits, PartialMergePropertyTest,
                         ::testing::Values(1, 2, 3, 5, 8));

// ---------------------------------------------------------------------------
// Golden bytes: emitted rows and checkpoint bytes pinned to fixtures
// ---------------------------------------------------------------------------

/// Renders rows with every value exact: doubles as their bit patterns, so
/// -0.0 and +0.0 differ and no rounding hides a drift.
std::string RenderRows(const RecordBatch& rows) {
  std::string s;
  char buf[64];
  for (const Record& r : rows) {
    std::snprintf(buf, sizeof(buf), "%c %" PRId64 " %" PRId64,
                  r.kind == RecordKind::kPartial ? 'P' : 'D', r.window_start,
                  r.event_time);
    s += buf;
    for (const Value& v : r.fields) {
      switch (TypeOf(v)) {
        case ValueType::kInt64:
          std::snprintf(buf, sizeof(buf), " i%" PRId64, std::get<int64_t>(v));
          s += buf;
          break;
        case ValueType::kDouble:
          std::snprintf(buf, sizeof(buf), " d%016" PRIx64,
                        std::bit_cast<uint64_t>(std::get<double>(v)));
          s += buf;
          break;
        case ValueType::kString:
          s += " s'" + std::get<std::string>(v) + "'";
          break;
      }
    }
    s += ';';
  }
  return s;
}

std::string Hex(const std::vector<uint8_t>& bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string s;
  s.reserve(2 * bytes.size());
  for (uint8_t b : bytes) {
    s += kDigits[b >> 4];
    s += kDigits[b & 0xf];
  }
  return s;
}

Schema MixedSchema() {
  return Schema::Of({{"ki", ValueType::kInt64},
                     {"kd", ValueType::kDouble},
                     {"ks", ValueType::kString},
                     {"v", ValueType::kDouble}});
}

/// Avg over the double value and Min over the int64 key column (which
/// widens to double), so the accumulators see both numeric types.
std::vector<AggSpec> MixedAggs() {
  return {{AggKind::kAvg, 3, "avg_v"}, {AggKind::kMin, 0, "min_ki"}};
}

/// Record i of the fixed mixed-key input: int64, double (signed zeros
/// included) and string (empty included) key components; keys repeat with
/// period 8, so groups are both created and updated.
Record MixedRecord(int i, Micros window_start) {
  static constexpr int64_t kInts[] = {7, -3, 0,
                                      std::numeric_limits<int64_t>::max()};
  static constexpr double kDoubles[] = {-0.0, 0.0, 1.5, -2.25};
  static const char* const kStrings[] = {"", "a", "ab", "host-17"};
  Record r;
  r.event_time = window_start + 1;
  r.window_start = window_start;
  r.fields = {Value(kInts[i % 4]), Value(kDoubles[(i / 2) % 4]),
              Value(std::string(kStrings[(3 * i) % 4])),
              Value(0.5 * i - 3.0)};
  return r;
}

struct GoldenRun {
  std::string rows;
  std::vector<uint8_t> full;   // ExportStateDelta(kFull) after phase 1
  std::vector<uint8_t> delta;  // the kDelta that follows it
};

/// Phase 1 fills windows [0,10s) and [10s,20s); the keyframe is taken; phase
/// 2 updates [10s,20s) and opens [20s,30s); the watermark closes [0,10s);
/// the delta is taken; a final watermark closes everything.
GoldenRun RunGolden(bool emit_partials) {
  GroupAggregateOp op("g", MixedSchema(), {0, 1, 2}, MixedAggs(), Seconds(10),
                      emit_partials);
  GoldenRun run;
  RecordBatch sink, rows;
  for (int i = 0; i < 10; ++i) {
    EXPECT_TRUE(ProcessOne(op, MixedRecord(i, Seconds(10) * (i % 2)), &sink).ok());
  }
  ser::BufferWriter full;
  EXPECT_TRUE(op.ExportStateDelta(&full, StateExport::kFull).ok());
  run.full = full.Release();
  for (int i = 10; i < 18; ++i) {
    EXPECT_TRUE(
        ProcessOne(op, MixedRecord(i, Seconds(10) * (1 + i % 2)), &sink).ok());
  }
  EXPECT_TRUE(sink.empty());
  EXPECT_TRUE(op.OnWatermark(Seconds(10), &rows).ok());
  ser::BufferWriter delta;
  EXPECT_TRUE(op.ExportStateDelta(&delta, StateExport::kDelta).ok());
  run.delta = delta.Release();
  EXPECT_TRUE(op.OnWatermark(Seconds(30), &rows).ok());
  run.rows = RenderRows(rows);
  return run;
}

// Any change to group order, key encoding or accumulator layout shows here.
// The fixtures predate the flat group table, so they also prove that it
// kept results and checkpoint bytes unchanged.
constexpr const char* kGoldenDataRows =
    "D 0 10000000 i0 d0000000000000000 s'ab' dc000000000000000"
    " d0000000000000000;"
    "D 0 10000000 i0 dc002000000000000 s'ab' d0000000000000000"
    " d0000000000000000;"
    "D 0 10000000 i7 d8000000000000000 s'' dbff0000000000000"
    " d401c000000000000;"
    "D 0 10000000 i7 d3ff8000000000000 s'' dbff0000000000000"
    " d401c000000000000;"
    "D 10000000 20000000 i0 d0000000000000000 s'ab' d4000000000000000"
    " d0000000000000000;"
    "D 10000000 20000000 i0 dc002000000000000 s'ab' d4010000000000000"
    " d0000000000000000;"
    "D 10000000 20000000 i7 d8000000000000000 s'' d4014000000000000"
    " d401c000000000000;"
    "D 10000000 20000000 i7 d3ff8000000000000 s'' d4008000000000000"
    " d401c000000000000;"
    "D 10000000 20000000 i-3 d8000000000000000 s'host-17'"
    " dbfe0000000000000 dc008000000000000;"
    "D 10000000 20000000 i-3 d3ff8000000000000 s'host-17'"
    " dbfe0000000000000 dc008000000000000;"
    "D 10000000 20000000 i9223372036854775807 d0000000000000000 s'a'"
    " dbff8000000000000 d43e0000000000000;"
    "D 10000000 20000000 i9223372036854775807 dc002000000000000 s'a'"
    " d3fe0000000000000 d43e0000000000000;"
    "D 20000000 30000000 i-3 d8000000000000000 s'host-17'"
    " d4016000000000000 dc008000000000000;"
    "D 20000000 30000000 i-3 d3ff8000000000000 s'host-17'"
    " d400c000000000000 dc008000000000000;"
    "D 20000000 30000000 i9223372036854775807 d0000000000000000 s'a'"
    " d4004000000000000 d43e0000000000000;"
    "D 20000000 30000000 i9223372036854775807 dc002000000000000 s'a'"
    " d4012000000000000 d43e0000000000000;";
constexpr const char* kGoldenPartialRows =
    "P 0 10000000 i0 d0000000000000000 s'ab' i1 dc000000000000000"
    " dc000000000000000 dc000000000000000 i1 d0000000000000000"
    " d0000000000000000 d0000000000000000;"
    "P 0 10000000 i0 dc002000000000000 s'ab' i1 d0000000000000000"
    " d0000000000000000 d0000000000000000 i1 d0000000000000000"
    " d0000000000000000 d0000000000000000;"
    "P 0 10000000 i7 d8000000000000000 s'' i2 dc000000000000000"
    " dc008000000000000 d3ff0000000000000 i2 d402c000000000000"
    " d401c000000000000 d401c000000000000;"
    "P 0 10000000 i7 d3ff8000000000000 s'' i1 dbff0000000000000"
    " dbff0000000000000 dbff0000000000000 i1 d401c000000000000"
    " d401c000000000000 d401c000000000000;"
    "P 10000000 20000000 i0 d0000000000000000 s'ab' i1 d4000000000000000"
    " d4000000000000000 d4000000000000000 i1 d0000000000000000"
    " d0000000000000000 d0000000000000000;"
    "P 10000000 20000000 i0 dc002000000000000 s'ab' i1 d4010000000000000"
    " d4010000000000000 d4010000000000000 i1 d0000000000000000"
    " d0000000000000000 d0000000000000000;"
    "P 10000000 20000000 i7 d8000000000000000 s'' i1 d4014000000000000"
    " d4014000000000000 d4014000000000000 i1 d401c000000000000"
    " d401c000000000000 d401c000000000000;"
    "P 10000000 20000000 i7 d3ff8000000000000 s'' i1 d4008000000000000"
    " d4008000000000000 d4008000000000000 i1 d401c000000000000"
    " d401c000000000000 d401c000000000000;"
    "P 10000000 20000000 i-3 d8000000000000000 s'host-17' i2"
    " dbff0000000000000 dc004000000000000 d3ff8000000000000 i2"
    " dc018000000000000 dc008000000000000 dc008000000000000;"
    "P 10000000 20000000 i-3 d3ff8000000000000 s'host-17' i1"
    " dbfe0000000000000 dbfe0000000000000 dbfe0000000000000 i1"
    " dc008000000000000 dc008000000000000 dc008000000000000;"
    "P 10000000 20000000 i9223372036854775807 d0000000000000000 s'a' i1"
    " dbff8000000000000 dbff8000000000000 dbff8000000000000 i1"
    " d43e0000000000000 d43e0000000000000 d43e0000000000000;"
    "P 10000000 20000000 i9223372036854775807 dc002000000000000 s'a' i1"
    " d3fe0000000000000 d3fe0000000000000 d3fe0000000000000 i1"
    " d43e0000000000000 d43e0000000000000 d43e0000000000000;"
    "P 20000000 30000000 i-3 d8000000000000000 s'host-17' i1"
    " d4016000000000000 d4016000000000000 d4016000000000000 i1"
    " dc008000000000000 dc008000000000000 dc008000000000000;"
    "P 20000000 30000000 i-3 d3ff8000000000000 s'host-17' i1"
    " d400c000000000000 d400c000000000000 d400c000000000000 i1"
    " dc008000000000000 dc008000000000000 dc008000000000000;"
    "P 20000000 30000000 i9223372036854775807 d0000000000000000 s'a' i1"
    " d4004000000000000 d4004000000000000 d4004000000000000 i1"
    " d43e0000000000000 d43e0000000000000 d43e0000000000000;"
    "P 20000000 30000000 i9223372036854775807 dc002000000000000 s'a' i1"
    " d4012000000000000 d4012000000000000 d4012000000000000 i1"
    " d43e0000000000000 d43e0000000000000 d43e0000000000000;";
constexpr const char* kGoldenFullHex =
    "000200a1020416000000000000000000010000000000000000020261620200000000"
    "000000c000000000000000c000000000000000c00200000000000000000000000000"
    "0000000000000000000000160000000000000000000100000000000002c002026162"
    "02000000000000000000000000000000000000000000000000020000000000000000"
    "00000000000000000000000000000000140007000000000000000100000000000000"
    "8002000400000000000000c000000000000008c0000000000000f03f040000000000"
    "002c400000000000001c400000000000001c40140007000000000000000100000000"
    "0000f83f020002000000000000f0bf000000000000f0bf000000000000f0bf020000"
    "000000001c400000000000001c400000000000001c4080dac409ad02041b00fdffff"
    "ffffffffff0100000000000000800207686f73742d313704000000000000f0bf0000"
    "0000000004c0000000000000f83f0400000000000018c000000000000008c0000000"
    "00000008c01b00fdffffffffffffff01000000000000f83f0207686f73742d313702"
    "000000000000e0bf000000000000e0bf000000000000e0bf0200000000000008c000"
    "000000000008c000000000000008c01500ffffffffffffff7f010000000000000000"
    "02016102000000000000f8bf000000000000f8bf000000000000f8bf020000000000"
    "00e043000000000000e043000000000000e0431500ffffffffffffff7f0100000000"
    "000002c002016102000000000000e03f000000000000e03f000000000000e03f0200"
    "0000000000e043000000000000e043000000000000e043";
constexpr const char* kGoldenDeltaHex =
    "01000280dac409cd0408160000000000000000000100000000000000000202616202"
    "00000000000000400000000000000040000000000000004002000000000000000000"
    "000000000000000000000000000000160000000000000000000100000000000002c0"
    "02026162020000000000001040000000000000104000000000000010400200000000"
    "00000000000000000000000000000000000000001400070000000000000001000000"
    "00000000800200020000000000001440000000000000144000000000000014400200"
    "00000000001c400000000000001c400000000000001c401400070000000000000001"
    "000000000000f83f0200020000000000000840000000000000084000000000000008"
    "40020000000000001c400000000000001c400000000000001c401b00fdffffffffff"
    "ffff0100000000000000800207686f73742d313704000000000000f0bf0000000000"
    "0004c0000000000000f83f0400000000000018c000000000000008c0000000000000"
    "08c01b00fdffffffffffffff01000000000000f83f0207686f73742d313702000000"
    "000000e0bf000000000000e0bf000000000000e0bf0200000000000008c000000000"
    "000008c000000000000008c01500ffffffffffffff7f010000000000000000020161"
    "02000000000000f8bf000000000000f8bf000000000000f8bf02000000000000e043"
    "000000000000e043000000000000e0431500ffffffffffffff7f0100000000000002"
    "c002016102000000000000e03f000000000000e03f000000000000e03f0200000000"
    "0000e043000000000000e043000000000000e04380b48913ad02041b00fdffffffff"
    "ffffff0100000000000000800207686f73742d313702000000000000164000000000"
    "0000164000000000000016400200000000000008c000000000000008c00000000000"
    "0008c01b00fdffffffffffffff01000000000000f83f0207686f73742d3137020000"
    "000000000c400000000000000c400000000000000c400200000000000008c0000000"
    "00000008c000000000000008c01500ffffffffffffff7f0100000000000000000201"
    "610200000000000004400000000000000440000000000000044002000000000000e0"
    "43000000000000e043000000000000e0431500ffffffffffffff7f01000000000000"
    "02c00201610200000000000012400000000000001240000000000000124002000000"
    "000000e043000000000000e043000000000000e043";

TEST(GroupAggregateGoldenTest, EmittedRowsMatchFixtures) {
  EXPECT_EQ(RunGolden(/*emit_partials=*/false).rows, kGoldenDataRows);
  EXPECT_EQ(RunGolden(/*emit_partials=*/true).rows, kGoldenPartialRows);
}

TEST(GroupAggregateGoldenTest, CheckpointBytesMatchFixtures) {
  // Output mode does not touch state, so both modes export the same bytes.
  for (const bool partials : {false, true}) {
    const GoldenRun run = RunGolden(partials);
    EXPECT_EQ(Hex(run.full), kGoldenFullHex) << "partials=" << partials;
    EXPECT_EQ(Hex(run.delta), kGoldenDeltaHex) << "partials=" << partials;
  }
}

TEST(GroupAggregateGoldenTest, ExportRestoreExportRoundTrips) {
  const GoldenRun run = RunGolden(false);
  GroupAggregateOp restored("g", MixedSchema(), {0, 1, 2}, MixedAggs(),
                            Seconds(10), false);
  ser::BufferReader rf(run.full);
  ASSERT_TRUE(restored.RestoreState(&rf).ok());
  EXPECT_TRUE(rf.AtEnd());
  ser::BufferWriter again;
  ASSERT_TRUE(restored.ExportStateDelta(&again, StateExport::kFull).ok());
  EXPECT_EQ(Hex(again.data()), Hex(run.full));

  // Keyframe then delta rebuilds the state the delta was taken from: the
  // two windows left open after the first watermark.
  ser::BufferReader rd(run.delta);
  ASSERT_TRUE(restored.RestoreState(&rd).ok());
  EXPECT_TRUE(rd.AtEnd());
  EXPECT_EQ(restored.open_windows(), 2u);
  RecordBatch rows;
  ASSERT_TRUE(restored.OnWatermark(Seconds(30), &rows).ok());
  EXPECT_NE(std::string(kGoldenDataRows).find(RenderRows(rows)),
            std::string::npos);
}

// ---------------------------------------------------------------------------
// Property: table growth under mixed data updates and partial merges
// ---------------------------------------------------------------------------

/// Independent reference: std::map keyed by (window, encoded key), with the
/// key encoding written out here rather than borrowed from the operator.
struct RefAcc {
  int64_t count = 0;
  double sum = 0.0;
  double min = 0.0;
  double max = 0.0;
};

std::string RefEncodeKey(int64_t a, const std::string& b) {
  std::string k;
  k += static_cast<char>(ValueType::kInt64);
  for (int i = 0; i < 8; ++i) {
    k += static_cast<char>(static_cast<uint64_t>(a) >> (8 * i));
  }
  k += static_cast<char>(ValueType::kString);
  k += static_cast<char>(b.size());  // every test string is < 128 bytes
  k += b;
  return k;
}

TEST_F(GroupAggregateSeededTest, GrowthWithMixedMergesMatchesMapReference) {
  const Schema schema = Schema::Of({{"a", ValueType::kInt64},
                                    {"b", ValueType::kString},
                                    {"v", ValueType::kDouble}});
  const std::vector<AggSpec> aggs = {{AggKind::kCount, 0, "cnt"},
                                     {AggKind::kSum, 2, "sum"},
                                     {AggKind::kMin, 2, "min"},
                                     {AggKind::kMax, 2, "max"}};
  const std::vector<size_t> keys = {0, 1};
  static const char* const kStrings[] = {"", "x", "yy", "a-longer-host-name"};
  constexpr int kWindows = 4;
  constexpr int kRecords = 80000;

  GroupAggregateOp op("op", schema, keys, aggs, Seconds(10), false);
  GroupAggregateOp side_a("sa", schema, keys, aggs, Seconds(10), true);
  GroupAggregateOp side_b("sb", schema, keys, aggs, Seconds(10), true);
  std::map<std::pair<Micros, std::string>, RefAcc> ref;
  std::map<std::pair<Micros, std::string>, std::pair<int64_t, std::string>>
      ref_keys;

  RecordBatch sink;
  auto drain_side = [&](GroupAggregateOp& side) {
    RecordBatch partials;
    ASSERT_TRUE(side.ExportPartialState(&partials).ok());
    // Half the partials go in one batch, the rest one by one.
    RecordBatch batch(partials.begin(), partials.begin() + partials.size() / 2);
    ASSERT_TRUE(op.Process(&batch).ok());
    MoveAppend(std::move(batch), &sink);
    for (size_t i = partials.size() / 2; i < partials.size(); ++i) {
      ASSERT_TRUE(ProcessOne(op, std::move(partials[i]), &sink).ok());
    }
  };
  for (int i = 0; i < kRecords; ++i) {
    const Micros ws = Seconds(10) * static_cast<Micros>(rng().NextBounded(kWindows));
    const int64_t a = static_cast<int64_t>(rng().NextBounded(4000)) - 2000;
    const std::string b = kStrings[rng().NextBounded(4)];
    // Integral values keep every sum exact whatever the merge order.
    const double v = static_cast<double>(rng().NextBounded(2001)) - 1000.0;
    Record r;
    r.event_time = ws + 1;
    r.window_start = ws;
    r.fields = {Value(a), Value(b), Value(v)};
    switch (rng().NextBounded(3)) {
      case 0:
        ASSERT_TRUE(ProcessOne(op, std::move(r), &sink).ok());
        break;
      case 1:
        ASSERT_TRUE(ProcessOne(side_a, std::move(r), &sink).ok());
        break;
      default:
        ASSERT_TRUE(ProcessOne(side_b, std::move(r), &sink).ok());
        break;
    }
    if (i % 9973 == 0) drain_side(side_a);
    if (i % 15013 == 0) drain_side(side_b);

    const auto key = std::make_pair(ws, RefEncodeKey(a, b));
    RefAcc& acc = ref[key];
    if (acc.count == 0) {
      acc.min = acc.max = v;
      ref_keys[key] = {a, b};
    } else {
      acc.min = std::min(acc.min, v);
      acc.max = std::max(acc.max, v);
    }
    acc.count += 1;
    acc.sum += v;
  }
  drain_side(side_a);
  drain_side(side_b);
  ASSERT_TRUE(sink.empty());
  ASSERT_GE(ref.size(), 10000u);
  EXPECT_EQ(op.open_windows(), static_cast<size_t>(kWindows));

  // Close the windows one watermark at a time.
  RecordBatch out;
  for (int w = 1; w <= kWindows; ++w) {
    ASSERT_TRUE(op.OnWatermark(Seconds(10) * w, &out).ok());
  }
  ASSERT_EQ(out.size(), ref.size());
  size_t i = 0;
  for (const auto& [key, acc] : ref) {
    const Record& r = out[i++];
    ASSERT_EQ(r.window_start, key.first);
    ASSERT_EQ(r.i64(0), ref_keys[key].first);
    ASSERT_EQ(r.str(1), ref_keys[key].second);
    ASSERT_EQ(r.i64(2), acc.count);
    ASSERT_EQ(r.f64(3), acc.sum);
    ASSERT_EQ(r.f64(4), acc.min);
    ASSERT_EQ(r.f64(5), acc.max);
  }
  // Within each window, emission ascends strictly by encoded key.
  for (size_t j = 1; j < out.size(); ++j) {
    if (out[j].window_start != out[j - 1].window_start) continue;
    EXPECT_LT(RefEncodeKey(out[j - 1].i64(0), out[j - 1].str(1)),
              RefEncodeKey(out[j].i64(0), out[j].str(1)))
        << "row " << j;
  }
}

}  // namespace
}  // namespace jarvis::stream
