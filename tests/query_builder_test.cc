#include <gtest/gtest.h>

#include "query/query_builder.h"
#include "workloads/queries.h"

namespace jarvis::query {
namespace {

using stream::Schema;
using stream::ValueType;

Schema ProbeSchema() {
  return Schema::Of({{"srcIp", ValueType::kInt64},
                     {"dstIp", ValueType::kInt64},
                     {"rtt", ValueType::kDouble},
                     {"errCode", ValueType::kInt64}});
}

TEST(QueryBuilderTest, Listing1StyleQueryBuilds) {
  QueryBuilder q(ProbeSchema());
  q.Window(Seconds(10))
      .FilterI64Eq("errCode", 0)
      .GroupApply({"srcIp", "dstIp"})
      .Aggregate({Avg("rtt", "avg_rtt"), Max("rtt", "max_rtt"),
                  Min("rtt", "min_rtt")});
  auto plan = q.Build();
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_EQ(plan->ops.size(), 3u);  // window, filter, fused G+R
  EXPECT_EQ(plan->window_width, Seconds(10));
  const Schema& out = plan->output_schema();
  ASSERT_EQ(out.num_fields(), 5u);
  EXPECT_EQ(out.field(0).name, "srcIp");
  EXPECT_EQ(out.field(2).name, "avg_rtt");
}

TEST(QueryBuilderTest, UnknownFieldFailsAtBuild) {
  QueryBuilder q(ProbeSchema());
  q.Window(Seconds(10)).FilterI64Eq("nope", 0);
  EXPECT_EQ(q.Build().status().code(), StatusCode::kNotFound);
}

TEST(QueryBuilderTest, UnknownGroupKeyFails) {
  QueryBuilder q(ProbeSchema());
  q.Window(Seconds(10)).GroupApply({"missing"}).Aggregate({Count("c")});
  EXPECT_FALSE(q.Build().ok());
}

TEST(QueryBuilderTest, UnknownAggFieldFails) {
  QueryBuilder q(ProbeSchema());
  q.Window(Seconds(10)).GroupApply({"srcIp"}).Aggregate({Avg("ghost", "a")});
  EXPECT_FALSE(q.Build().ok());
}

TEST(QueryBuilderTest, NumericAggOverStringFieldFails) {
  const Schema logs = Schema::Of({{"host", ValueType::kString},
                                  {"msg", ValueType::kString},
                                  {"bytes", ValueType::kInt64}});
  for (const AggDecl& agg : {Avg("msg", "a"), Sum("msg", "s"),
                             Min("msg", "lo"), Max("msg", "hi")}) {
    QueryBuilder q(logs);
    q.Window(Seconds(10)).GroupApply({"host"}).Aggregate({agg});
    auto plan = q.Build();
    ASSERT_FALSE(plan.ok());
    EXPECT_EQ(plan.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(plan.status().message().find("msg"), std::string::npos);
  }
  // Count ignores its field, and numeric fields (int64 widens) still build.
  QueryBuilder ok(logs);
  ok.Window(Seconds(10)).GroupApply({"host"}).Aggregate(
      {Count("c"), Sum("bytes", "b"), Max("bytes", "m")});
  EXPECT_TRUE(ok.Build().ok());
}

TEST(QueryBuilderTest, AggregateWithoutGroupApplyFails) {
  QueryBuilder q(ProbeSchema());
  q.Window(Seconds(10)).Aggregate({Count("c")});
  EXPECT_EQ(q.Build().status().code(), StatusCode::kFailedPrecondition);
}

TEST(QueryBuilderTest, GroupApplyWithoutAggregateFails) {
  QueryBuilder q(ProbeSchema());
  q.Window(Seconds(10)).GroupApply({"srcIp"});
  EXPECT_FALSE(q.Build().ok());
}

TEST(QueryBuilderTest, GroupWithoutWindowFails) {
  QueryBuilder q(ProbeSchema());
  q.GroupApply({"srcIp"}).Aggregate({Count("c")});
  EXPECT_EQ(q.Build().status().code(), StatusCode::kFailedPrecondition);
}

TEST(QueryBuilderTest, EmptyQueryFails) {
  QueryBuilder q(ProbeSchema());
  EXPECT_EQ(q.Build().status().code(), StatusCode::kInvalidArgument);
}

TEST(QueryBuilderTest, DoubleWindowFails) {
  QueryBuilder q(ProbeSchema());
  q.Window(Seconds(10)).Window(Seconds(20));
  EXPECT_FALSE(q.Build().ok());
}

TEST(QueryBuilderTest, NonPositiveWindowFails) {
  QueryBuilder q(ProbeSchema());
  q.Window(0);
  EXPECT_FALSE(q.Build().ok());
}

TEST(QueryBuilderTest, FirstErrorWins) {
  QueryBuilder q(ProbeSchema());
  q.FilterI64Eq("ghost1", 0).FilterI64Eq("ghost2", 0);
  auto plan = q.Build();
  ASSERT_FALSE(plan.ok());
  EXPECT_NE(plan.status().message().find("ghost1"), std::string::npos);
}

TEST(QueryBuilderTest, JoinRequiresInt64Key) {
  auto table = workloads::MakeIpToTorTable(0, 10, 5);
  QueryBuilder q(ProbeSchema());
  q.Join(table, "rtt");  // double-typed field
  EXPECT_EQ(q.Build().status().code(), StatusCode::kInvalidArgument);
}

TEST(QueryBuilderTest, ProjectTracksSchema) {
  QueryBuilder q(ProbeSchema());
  q.Window(Seconds(10)).Project({"rtt", "srcIp"});
  auto plan = q.Build();
  ASSERT_TRUE(plan.ok());
  const stream::Schema& out = plan->output_schema();
  ASSERT_EQ(out.num_fields(), 2u);
  EXPECT_EQ(out.field(0).name, "rtt");
  EXPECT_EQ(out.field(1).name, "srcIp");
}

TEST(PaperQueriesTest, S2SProbeBuilds) {
  auto plan = workloads::MakeS2SProbeQuery();
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_EQ(plan->ops.size(), 3u);
  EXPECT_EQ(plan->ops[0].kind, stream::OpKind::kWindow);
  EXPECT_EQ(plan->ops[1].kind, stream::OpKind::kFilter);
  EXPECT_EQ(plan->ops[2].kind, stream::OpKind::kGroupAggregate);
}

TEST(PaperQueriesTest, T2TProbeBuilds) {
  auto src = workloads::MakeIpToTorTable(0, 100, 10, "srcToR");
  auto dst = workloads::MakeIpToTorTable(0, 100, 10, "dstToR");
  auto plan = workloads::MakeT2TProbeQuery(src, dst);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  ASSERT_EQ(plan->ops.size(), 6u);
  EXPECT_EQ(plan->ops[2].kind, stream::OpKind::kJoin);
  EXPECT_EQ(plan->ops[3].kind, stream::OpKind::kJoin);
  EXPECT_EQ(plan->ops[4].kind, stream::OpKind::kProject);
  const stream::Schema& out = plan->output_schema();
  EXPECT_EQ(out.field(0).name, "srcToR");
  EXPECT_EQ(out.field(1).name, "dstToR");
}

TEST(PaperQueriesTest, T2TRejectsAmbiguousTorColumns) {
  auto src = workloads::MakeIpToTorTable(0, 100, 10);
  auto dst = workloads::MakeIpToTorTable(0, 100, 10);
  EXPECT_FALSE(workloads::MakeT2TProbeQuery(src, dst).ok());
}

TEST(PaperQueriesTest, LogAnalyticsBuilds) {
  auto plan = workloads::MakeLogAnalyticsQuery();
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_EQ(plan->ops.size(), 6u);
  EXPECT_EQ(plan->output_schema().field(3).name, "count");
}

}  // namespace
}  // namespace jarvis::query
