#include "perfbench/workload.h"

#include <chrono>
#include <tuple>
#include <utility>

#include "common/rng.h"
#include "workloads/loganalytics.h"
#include "workloads/pingmesh.h"
#include "workloads/queries.h"

namespace perfbench {

namespace core = jarvis::core;
namespace wl = jarvis::workloads;
using jarvis::Seconds;
using jarvis::Status;
using jarvis::stream::Record;
using jarvis::stream::RecordBatch;

bool WorkloadConfig::Make(const std::string& name, uint64_t seed,
                          WorkloadConfig* out) {
  WorkloadConfig c;
  c.name = name;
  c.seed = seed;
  if (name == "s2s_pinned") {
    // The fig10 exec-sweep shape: every source runs its whole placeable
    // prefix, so the source data plane, the partial-state drain and the SP
    // merge carry nearly all the work.
    c.id = WorkloadId::kS2sPinned;
    c.sources = 100;
    c.per_source_rate = 200;
    c.epochs = 40;
    c.pin_load_factors = true;
  } else if (name == "log_adaptive") {
    // A binding CPU budget stepped down halfway: profiling, the LP and
    // fine-tuning all run, and operators execute on both sides of the wire.
    c.id = WorkloadId::kLogAdaptive;
    c.sources = 16;
    c.per_source_rate = 600;
    c.epochs = 48;
    c.compress = true;
    c.budget = 0.4;
    c.budget_after = 0.2;
    c.step_epoch = 23;
  } else if (name == "t2t_recovery") {
    // Checkpoints every epoch, one crash restored from its chain and
    // replayed, and a flash burst the overload controller sheds.
    c.id = WorkloadId::kT2tRecovery;
    c.sources = 16;
    c.per_source_rate = 1000;
    c.epochs = 40;
    c.fault_tolerant = true;
    c.crash_epoch = 8;
    c.crash_source = 3;
    c.burst_epoch = 24;
    c.burst_source = 9;
    c.burst_epochs = 3;
    c.burst_factor = 6;
    c.budget = 0.5;
  } else {
    return false;
  }
  *out = c;
  return true;
}

std::string WorkloadConfig::InputSize() const {
  const char* unit = id == WorkloadId::kLogAdaptive ? "lines" : "probes";
  return std::to_string(sources) + " sources x " +
         std::to_string(per_source_rate) + " " + unit + "/s x " +
         std::to_string(epochs) + " epochs per pass";
}

jarvis::Result<WorkloadSetup> MakeSetup(const WorkloadConfig& cfg) {
  jarvis::Result<jarvis::query::LogicalPlan> plan =
      Status::InvalidArgument("unknown workload");
  std::vector<double> costs;
  switch (cfg.id) {
    case WorkloadId::kS2sPinned:
      plan = wl::MakeS2SProbeQuery();
      // Near-zero modeled cost: the budget never binds.
      costs = {1e-9, 1e-9, 1e-9};
      break;
    case WorkloadId::kLogAdaptive:
      plan = wl::MakeLogAnalyticsQuery();
      // The per-operator costs of examples/loganalytics_monitor.cpp, scaled
      // so this source rate needs the same ~62% of a core as its 3000
      // lines/s: the 0.4 budget binds, and the 0.2 step binds harder.
      costs = {0.02 / 3000, 0.16 / 3000, 0.14 / 3000,
               0.12 / 2700, 0.04 / 2700, 0.14 / 2700};
      for (double& c : costs) {
        c *= 3000.0 / static_cast<double>(cfg.per_source_rate);
      }
      break;
    case WorkloadId::kT2tRecovery: {
      // One ToR table covers every source and destination IP: source s
      // probes source_ip + 1 + pair, and the IP ranges are contiguous.
      const int64_t ips =
          static_cast<int64_t>(cfg.sources) * (cfg.per_source_rate + 1) + 1;
      plan = wl::MakeT2TProbeQuery(wl::MakeIpToTorTable(1, ips, 40, "srcTor"),
                                   wl::MakeIpToTorTable(1, ips, 40, "dstTor"));
      costs = {2e-6, 1e-5, 3e-5, 3e-5, 5e-6, 6e-5};
      break;
    }
  }
  JARVIS_RETURN_IF_ERROR(plan.status());
  JARVIS_ASSIGN_OR_RETURN(jarvis::query::CompiledQuery query,
                          jarvis::query::Compile(std::move(plan).value()));
  if (costs.size() != query.num_source_ops()) {
    return Status::Internal("cost vector does not match the source prefix");
  }
  WorkloadSetup setup{std::move(query), {}, {}, {}, {}, {}, {}, {}};
  auto model = std::make_shared<core::FixedCostModel>(costs);
  setup.cost_models.assign(cfg.sources, model);
  setup.options.cpu_budget_fraction = cfg.budget;
  if (cfg.pin_load_factors) {
    setup.runtime_config.detect_epochs = 1 << 30;  // never adapt
  }
  setup.codec.compress = cfg.compress;
  if (cfg.fault_tolerant) {
    setup.ft.checkpoint_interval = 1;
    setup.ft.checkpoint_retain = 4;
    JARVIS_ASSIGN_OR_RETURN(
        setup.fault_plan,
        core::FaultPlan::Parse("seed=" + std::to_string(cfg.seed) +
                               ";crash@" + std::to_string(cfg.crash_epoch) +
                               ":" + std::to_string(cfg.crash_source)));
    setup.overload.seed = cfg.seed;
  } else {
    setup.ft.checkpoint_interval = -1;  // off, whatever the environment says
  }
  return setup;
}

Inputs::Inputs(const WorkloadConfig& cfg) : cfg_(cfg), staged_(cfg.sources) {
  for (size_t s = 0; s < cfg.sources; ++s) {
    const uint64_t seed = jarvis::SplitMix64(cfg.seed * 1000003 + s);
    if (cfg.id == WorkloadId::kLogAdaptive) {
      wl::LogAnalyticsConfig lc;
      lc.seed = seed;
      lc.lines_per_sec = static_cast<double>(cfg.per_source_rate);
      lc.num_tenants = 8;
      auto gen = std::make_shared<wl::LogAnalyticsGenerator>(lc);
      gens_.push_back(
          [gen](Micros from, Micros to) { return gen->Generate(from, to); });
    } else {
      wl::PingmeshConfig pc;
      pc.seed = seed;
      pc.source_ip =
          1 + static_cast<int64_t>(s) * (cfg.per_source_rate + 1);
      pc.num_pairs = cfg.per_source_rate;
      pc.probe_interval = Seconds(1);
      auto gen = std::make_shared<wl::PingmeshGenerator>(pc);
      gens_.push_back(
          [gen](Micros from, Micros to) { return gen->Generate(from, to); });
    }
  }
  if (cfg.burst_epoch >= 0) {
    auto plan = core::TrafficPlan::Parse(
        "seed=" + std::to_string(cfg.seed) + ";burst@" +
        std::to_string(cfg.burst_epoch) + ":" +
        std::to_string(cfg.burst_source) + "x" +
        std::to_string(cfg.burst_epochs) + "*" +
        std::to_string(cfg.burst_factor));
    JARVIS_CHECK(plan.ok());
    shaper_ = std::make_unique<core::TrafficShaper>(std::move(plan).value());
  }
}

RecordBatch Inputs::Generate(size_t s, Micros from, Micros to) const {
  RecordBatch batch = gens_[s](from, to);
  if (shaper_) {
    shaper_->Shape(s, static_cast<int64_t>(from / Seconds(1)), &batch);
  }
  return batch;
}

void Inputs::Stage(int e) {
  const auto start = std::chrono::steady_clock::now();
  staged_from_ = Seconds(e);
  for (size_t s = 0; s < cfg_.sources; ++s) {
    staged_[s] = Generate(s, Seconds(e), Seconds(e + 1));
    staged_records_ += staged_[s].size();
  }
  gen_seconds_ += std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - start)
                      .count();
}

RecordBatch Inputs::Take(size_t s) { return std::move(staged_[s]); }

std::function<RecordBatch(Micros, Micros)> Inputs::Generator(size_t s) {
  return [this, s](Micros from, Micros to) {
    if (from == staged_from_ && to == staged_from_ + Seconds(1)) {
      return Take(s);
    }
    RecordBatch batch = Generate(s, from, to);
    on_demand_records_ += batch.size();
    return batch;
  };
}

void AfterEpoch(const WorkloadConfig& cfg, int e,
                core::SourceExecutor* source) {
  if (cfg.pin_load_factors) {
    source->SetLoadFactors(std::vector<double>(source->num_ops(), 1.0));
  }
  if (e == cfg.step_epoch) source->SetCpuBudget(cfg.budget_after);
}

bool S2sReference::Key::operator<(const Key& o) const {
  return std::tie(window, src, dst) < std::tie(o.window, o.src, o.dst);
}

void S2sReference::Add(const RecordBatch& probes) {
  using F = wl::PingmeshGenerator::Field;
  for (const Record& r : probes) {
    if (r.i64(F::kErrCode) != 0) continue;
    const Key key{r.event_time - r.event_time % kWindow, r.i64(F::kSrcIp),
                  r.i64(F::kDstIp)};
    const double rtt = r.f64(F::kRttUs);
    auto [it, fresh] = open_.try_emplace(key);
    Agg& a = it->second;
    if (fresh) {
      a.max = rtt;
      a.min = rtt;
    }
    a.sum += rtt;
    ++a.count;
    a.max = std::max(a.max, rtt);
    a.min = std::min(a.min, rtt);
  }
}

void S2sReference::CloseUpTo(Micros watermark, const Emit& emit) {
  RecordBatch out;
  auto it = open_.begin();
  while (it != open_.end() && it->first.window + kWindow <= watermark) {
    const Agg& a = it->second;
    Record r(it->first.window,
             {it->first.src, it->first.dst,
              a.sum / static_cast<double>(a.count), a.max, a.min});
    r.window_start = it->first.window;
    out.push_back(std::move(r));
    it = open_.erase(it);
  }
  if (!out.empty()) emit(out);
}

}  // namespace perfbench
