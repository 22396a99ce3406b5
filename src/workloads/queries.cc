#include "workloads/queries.h"

#include <algorithm>
#include <array>
#include <charconv>
#include <cmath>
#include <string_view>

#include "query/query_builder.h"
#include "workloads/loganalytics.h"
#include "workloads/pingmesh.h"

namespace jarvis::workloads {

using query::Avg;
using query::Count;
using query::Max;
using query::Min;
using query::QueryBuilder;
using stream::Record;
using stream::RecordBatch;
using stream::Schema;
using stream::Value;
using stream::ValueType;

Result<query::LogicalPlan> MakeS2SProbeQuery() {
  QueryBuilder q(PingmeshGenerator::Schema());
  q.Window(Seconds(10))
      .FilterI64Eq("errCode", 0)
      .GroupApply({"srcIp", "dstIp"})
      .Aggregate({Avg("rtt", "avg_rtt"), Max("rtt", "max_rtt"),
                  Min("rtt", "min_rtt")});
  return q.Build();
}

std::shared_ptr<stream::StaticTable> MakeIpToTorTable(
    int64_t first_ip, int64_t num_servers, int64_t servers_per_tor,
    const std::string& value_name) {
  auto table = std::make_shared<stream::StaticTable>(
      "ipAddr", Schema::Field{value_name, ValueType::kInt64});
  for (int64_t i = 0; i < num_servers; ++i) {
    table->Insert(first_ip + i, Value((first_ip + i) / servers_per_tor));
  }
  return table;
}

Result<query::LogicalPlan> MakeT2TProbeQuery(
    std::shared_ptr<stream::StaticTable> ip_to_tor_src,
    std::shared_ptr<stream::StaticTable> ip_to_tor_dst) {
  const std::string src_col = ip_to_tor_src->value_field().name;
  const std::string dst_col = ip_to_tor_dst->value_field().name;
  if (src_col == dst_col) {
    return Status::InvalidArgument(
        "the two ToR mapping tables must use distinct value column names");
  }
  QueryBuilder q(PingmeshGenerator::Schema());
  q.Window(Seconds(10)).FilterI64Eq("errCode", 0);
  // First join appends the src ToR id; the second the dst ToR id. Distinct
  // table handles let the caller vary the table size (Fig. 8b grows it 10x).
  q.Join(std::move(ip_to_tor_src), "srcIp");
  q.Join(std::move(ip_to_tor_dst), "dstIp");
  q.Project({src_col, dst_col, "rtt"});
  q.GroupApply({src_col, dst_col})
      .Aggregate({Avg("rtt", "avg_rtt"), Max("rtt", "max_rtt"),
                  Min("rtt", "min_rtt")});
  return q.Build();
}

Result<query::LogicalPlan> MakeLogAnalyticsQuery() {
  static const std::array<std::string, 4> kPatterns = {
      "tenant name", "job running time", "cpu util", "memory util"};

  QueryBuilder q(LogAnalyticsGenerator::Schema());
  const Schema clean_schema = LogAnalyticsGenerator::Schema();
  q.Window(Seconds(10));
  // Map 1: trim + lowercase (string normalization cost). Trims in place,
  // tail first so the head erase shifts fewer bytes. The ASCII 'A'..'Z' loop
  // equals std::tolower because the process never leaves the "C" locale.
  q.Map("normalize", clean_schema, [](Record&& rec, RecordBatch* out) {
    std::string& s = std::get<std::string>(rec.fields[0]);
    const size_t e = s.find_last_not_of(" \t");
    s.erase(e == std::string::npos ? 0 : e + 1);
    s.erase(0, s.find_first_not_of(" \t"));
    for (char& c : s) {
      if (c >= 'A' && c <= 'Z') c = static_cast<char>(c - 'A' + 'a');
    }
    out->push_back(std::move(rec));
    return Status::OK();
  });
  // Filter: keep lines matching any pattern. Substring search is outside
  // the typed predicate mini-language (which only has ordered comparisons),
  // so this filter stays on the std::function fallback — the Pingmesh
  // queries' errCode filters compile to typed predicates via FilterI64Eq.
  q.Filter("filter(patterns)", [](const Record& rec) {
    const std::string& s = std::get<std::string>(rec.fields[0]);
    for (const std::string& p : kPatterns) {
      if (s.find(p) != std::string::npos) return true;
    }
    return false;
  });
  // Map 2: parse JobStats and explode into (tenant, stat_name, stat).
  const Schema stats_schema = Schema::Of({{"tenant", ValueType::kString},
                                          {"stat_name", ValueType::kString},
                                          {"stat", ValueType::kDouble}});
  q.Map("parse(JobStats)", stats_schema, [](Record&& rec, RecordBatch* out) {
    // Grammar: "tenant name=tK job running time=X cpu util=Y memory util=Z".
    // A value runs from its key's '=' to the next space.
    const std::string_view s = std::get<std::string>(rec.fields[0]);
    auto value_after = [s](std::string_view key) -> std::string_view {
      const size_t at = s.find(key);
      if (at == std::string_view::npos) return {};
      const size_t begin = at + key.size();
      const size_t end = s.find(' ', begin);
      return s.substr(begin, end == std::string_view::npos
                                 ? std::string_view::npos
                                 : end - begin);
    };
    const std::string_view tenant = value_after("tenant name=");
    if (tenant.empty()) return Status::OK();  // unparsable: drop
    struct Stat {
      std::string_view key;
      std::string_view name;
      double scale;
    };
    // Job time is scaled into [0,100] so one bucketizer serves all three
    // statistics (10 s of job time => bucket ceiling).
    static constexpr Stat kStats[] = {{"job running time=", "job_ms", 0.01},
                                      {"cpu util=", "cpu", 1.0},
                                      {"memory util=", "mem", 1.0}};
    for (const Stat& st : kStats) {
      // The value's leading number as std::from_chars reads it (no leading
      // '+', whitespace or hex). A value that is empty, not a number, or out
      // of double's range drops this stat only; the line's other stats
      // still go out.
      const std::string_view raw = value_after(st.key);
      double stat = 0;
      if (std::from_chars(raw.data(), raw.data() + raw.size(), stat).ec !=
          std::errc()) {
        continue;
      }
      Record& r = out->emplace_back();
      r.event_time = rec.event_time;
      r.window_start = rec.window_start;
      r.fields.reserve(3);
      r.fields.emplace_back(std::in_place_type<std::string>, tenant);
      r.fields.emplace_back(std::in_place_type<std::string>, st.name);
      r.fields.emplace_back(stat * st.scale);
    }
    return Status::OK();
  });
  // Map 3: width_bucket(stat, 0, 100, 10).
  q.Map("width_bucket", stats_schema, [](Record&& rec, RecordBatch* out) {
    const double v = std::get<double>(rec.fields[2]);
    const double bucket = std::clamp(std::floor(v / 10.0), 0.0, 9.0);
    rec.fields[2] = Value(bucket);
    out->push_back(std::move(rec));
    return Status::OK();
  });
  q.GroupApply({"tenant", "stat_name", "stat"})
      .Aggregate({Count("count")});
  return q.Build();
}

}  // namespace jarvis::workloads
