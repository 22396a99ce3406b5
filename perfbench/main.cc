// The Jarvis runtime benchmark: runs one workload on core::BuildingBlock,
// checks its results, and prints every metric by name and unit. The last
// stdout line is one JSON object: {"correct", "attempted", "failed",
// "metrics"}. With --trace 0 the metrics are the end-to-end set, measured on
// untraced passes; with --trace 1 they are the per-layer set, measured on the
// benchmark's traced serial epoch loop next to untraced passes.
//
//   jarvis_perfbench --workload s2s_pinned --seed 1 --seconds 20 --trace 0
//   jarvis_perfbench --describe      # metric table with the layer map

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "perfbench/measure.h"
#include "perfbench/passes.h"
#include "perfbench/workload.h"

namespace perfbench {
namespace {

struct MetricDef {
  const char* name;
  const char* unit;
  const char* better;
  /// Layer metrics: the end-to-end metric it should move, and where.
  const char* moves;
  const char* where;
};

// The single source of truth for names, units and directions; run.py checks
// BENCHMARK.json against the metrics a run reports.
constexpr MetricDef kEndToEnd[] = {
    {"records_per_s", "records/s", "higher", "",
     "input records / wall s inside RunEpoch, threads=1, median of passes"},
    {"epoch_ms_p50", "ms", "lower", "", "median RunEpoch wall time, threads=1"},
    {"epoch_ms_p95", "ms", "lower", "", "p95 RunEpoch wall time, threads=1"},
    {"result_latency_ms_p90", "ms", "lower", "",
     "p90 over results of the RunEpoch wall time from the epoch holding the "
     "window's last input through the epoch emitting the result"},
    {"wire_bytes_per_record", "B/record", "lower", "",
     "encoded frame bytes source->SP, checkpoints included / input records"},
    {"sp_records_per_record", "ratio", "lower", "",
     "SpExecutor::records_consumed / input records"},
    {"peak_rss_mb", "MiB", "lower", "",
     "peak resident memory after set-up and one threads=1 pass"},
    {"setup_s", "s", "lower", "",
     "query compile + BuildingBlock construction + Init, median"},
};

constexpr MetricDef kPerLayer[] = {
    {"source.ingest_ns_per_rec", "ns/record", "lower", "records_per_s",
     "s2s, log"},
    {"source.run_epoch_ns_per_rec", "ns/record", "lower",
     "records_per_s, epoch_ms_p50", "s2s; smaller on log"},
    {"source.drained_fraction", "ratio", "lower",
     "sp_records_per_record, wire_bytes_per_record", "log"},
    {"source.budget_used", "ratio", "lower", "converge_epochs",
     "log, t2t; ~0 on s2s"},
    {"source.pending_records", "records", "lower",
     "result_lag_s_p95, shed_fraction", "t2t"},
    {"wire.encode_ns_per_rec", "ns/record", "lower", "records_per_s",
     "log (LZ4 strings); small on s2s"},
    {"wire.decode_ns_per_rec", "ns/record", "lower", "records_per_s", "log"},
    {"wire.bytes_per_rec", "B/record", "lower", "wire_bytes_per_record",
     "all"},
    {"wire.ratio", "ratio", "lower", "wire_bytes_per_record", "all"},
    {"sp.consume_ns_per_rec", "ns/record", "lower", "records_per_s",
     "log, s2s"},
    {"sp.end_epoch_ms_p50", "ms", "lower", "epoch_ms_p95", "s2s"},
    {"sp.end_epoch_ms_max", "ms", "lower", "epoch_ms_p95",
     "s2s window-close epochs"},
    {"runtime.decide_us_p50", "us", "lower", "epoch_ms_p95, converge_epochs",
     "log; ~0 on s2s"},
    {"runtime.decide_us_max", "us", "lower", "epoch_ms_p95, converge_epochs",
     "log"},
    {"runtime.profile_epochs", "count", "lower", "converge_epochs", "log"},
    {"runtime.adaptations", "count", "lower", "converge_epochs", "log"},
    {"ckpt.export_us_per_epoch", "us", "lower", "records_per_s, epoch_ms_p50",
     "t2t"},
    {"ckpt.bytes_per_epoch", "B", "lower", "wire_bytes_per_record", "t2t"},
    {"ckpt.restore_ms", "ms", "lower", "epoch_ms_p95, result_latency_ms_p90",
     "t2t"},
    {"ckpt.records_replayed", "count", "lower",
     "epoch_ms_p95, result_latency_ms_p90",
     "t2t (records the restored source re-ran)"},
    {"ft.frames_per_epoch", "count", "lower", "records_per_s", "t2t"},
    {"ft.retransmits", "count", "lower", "records_per_s", "t2t"},
    {"ft.duplicates_dropped", "count", "lower", "records_per_s", "t2t"},
    {"overload.tick_ns", "ns", "lower", "epoch_ms_p50", "t2t"},
    {"overload.shedding_epochs", "count", "lower", "shed_fraction", "t2t"},
    {"overload.escalations", "count", "lower", "shed_fraction", "t2t"},
    {"records_per_s_t4", "records/s", "higher", "",
     "records_per_s at threads=min(4, nproc); read against host.cpu_scaling"},
    {"pool.speedup", "ratio", "higher", "records_per_s_t4", "all"},
    {"pool.speedup_vs_host", "ratio", "higher", "records_per_s_t4", "s2s"},
    {"host.cpu_scaling", "ratio", "higher", "",
     "host probe (the machine, not the program)"},
    {"host.mem_scaling", "ratio", "higher", "",
     "host probe (the machine, not the program)"},
    {"gen.ns_per_rec", "ns/record", "lower", "",
     "input generator, outside timing"},
    {"trace.coverage", "ratio", "higher", "", "layer spans / traced loop wall"},
    {"trace.overhead", "ratio", "lower", "",
     "traced loop wall / untraced loop wall - 1"},
    {"result_lag_s_p95", "model_s", "lower", "result_latency_ms_p90",
     "t2t (the crash holds the watermark)"},
    {"shed_fraction", "ratio", "lower", "", "t2t"},
    {"failed_fraction", "ratio", "lower", "", "all (0 expected)"},
    {"converge_epochs", "epochs", "lower", "", "log, t2t"},
};

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  std::string trace_out;
  bool describe = false;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (k == "--describe") {
      a->describe = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string v = argv[++i];
    if (k == "--workload") {
      a->workload = v;
    } else if (k == "--seed") {
      a->seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      a->seconds = std::strtod(v.c_str(), nullptr);
    } else if (k == "--trace") {
      a->trace = std::atoi(v.c_str());
    } else if (k == "--trace-out") {
      a->trace_out = v;
    } else {
      return false;
    }
  }
  return a->describe || (!a->workload.empty() && a->seconds > 0 &&
                         (a->trace == 0 || a->trace == 1));
}

void Describe() {
  std::printf("end_to_end\n");
  for (const MetricDef& m : kEndToEnd) {
    std::printf("%s\t%s\t%s\t%s\n", m.name, m.unit, m.better, m.where);
  }
  std::printf("per_layer\n");
  for (const MetricDef& m : kPerLayer) {
    std::printf("%s\t%s\t%s\tmoves: %s\twhere: %s\n", m.name, m.unit,
                m.better, m.moves[0] ? m.moves : "-", m.where);
  }
}

// Per-result latency samples of one untraced pass: each window's results
// wait from the epoch that held the window's last input to the epoch that
// emitted them. Flush-time emissions (epoch -1) are end-of-run artifacts.
void LatencySamples(const PassResult& p, std::vector<Weighted>* wall_ms,
                    std::vector<Weighted>* lag_s) {
  for (const auto& [key, count] : p.emissions) {
    const auto [window, emit] = key;
    if (emit < 0 || window < 0) continue;
    const int last =
        static_cast<int>((window + kWindow) / jarvis::Seconds(1)) - 1;
    if (last > emit) continue;
    double ms = 0.0;
    for (int e = last; e <= emit; ++e) ms += p.epoch_s[e] * 1e3;
    wall_ms->push_back({ms, static_cast<double>(count)});
    lag_s->push_back(
        {static_cast<double>(emit - last), static_cast<double>(count)});
  }
}

struct Run {
  WorkloadConfig cfg;
  PassResult warmup;
  PassResult acct;
  std::vector<PassResult> t1, tn, traced;
  int threads_n = 1;
  HostScaling host2, hostn;
  double peak_rss_mb = 0.0;
};

std::string CheckPass(const Run& r, const PassResult& p) {
  if (std::string d = p.fp.Diff(r.acct.fp); !d.empty()) {
    return std::string(p.traced ? "traced loop" : "threads=") +
           (p.traced ? "" : std::to_string(p.threads)) +
           " results differ from the threads=1 run: " + d;
  }
  if (p.traced || !r.cfg.fault_tolerant) return "";
  const jarvis::core::FaultStats& f = p.fault;
  if (f.records_sent !=
      f.records_delivered + f.records_lost + f.records_shed + p.in_flight) {
    return "conservation broken: sent " + std::to_string(f.records_sent) +
           " != delivered " + std::to_string(f.records_delivered) +
           " + lost " + std::to_string(f.records_lost) + " + shed " +
           std::to_string(f.records_shed) + " + in_flight " +
           std::to_string(p.in_flight);
  }
  if (f.records_lost != 0) {
    return "checkpointing on, yet " + std::to_string(f.records_lost) +
           " records lost";
  }
  if (f.crashes == 0 || f.checkpoint_restores == 0) {
    return "the scripted crash did not crash and restore a source";
  }
  if (f.records_shed == 0) return "the scripted burst shed nothing";
  return "";
}

std::string CheckRun(const Run& r) {
  if (r.acct.fp.results == 0) {
    return "the workload emitted no results";
  }
  for (const auto* group : {&r.t1, &r.tn, &r.traced}) {
    for (const PassResult& p : *group) {
      if (std::string err = CheckPass(r, p); !err.empty()) return err;
    }
  }
  if (std::string err = CheckPass(r, r.warmup); !err.empty()) return err;
  return CheckPass(r, r.acct);
}

double Rps(const PassResult& p) {
  return static_cast<double>(p.records) / p.wall_s();
}

double MedianOf(const std::vector<PassResult>& ps,
                double (*f)(const PassResult&)) {
  std::vector<double> v;
  for (const PassResult& p : ps) v.push_back(f(p));
  return Median(v);
}

using Metrics = std::vector<std::pair<const MetricDef*, double>>;

template <size_t N>
void Put(Metrics* m, const MetricDef (&defs)[N], const std::string& name,
         double v) {
  for (const MetricDef& d : defs) {
    if (name == d.name) {
      m->push_back({&d, v});
      return;
    }
  }
  std::fprintf(stderr, "perfbench: unknown metric %s\n", name.c_str());
  std::abort();
}

Metrics EndToEnd(const Run& r) {
  Metrics m;
  std::vector<double> epoch_ms;
  std::vector<Weighted> latency, lag;
  for (const PassResult& p : r.t1) {
    for (double s : p.epoch_s) epoch_ms.push_back(s * 1e3);
    LatencySamples(p, &latency, &lag);
  }
  const double records = static_cast<double>(r.acct.records);
  Put(&m, kEndToEnd, "records_per_s", MedianOf(r.t1, Rps));
  Put(&m, kEndToEnd, "epoch_ms_p50", Quantile(epoch_ms, 0.5));
  Put(&m, kEndToEnd, "epoch_ms_p95", Quantile(epoch_ms, 0.95));
  Put(&m, kEndToEnd, "result_latency_ms_p90",
      WeightedQuantile(latency, 0.90));
  Put(&m, kEndToEnd, "wire_bytes_per_record",
      static_cast<double>(r.acct.wire_bytes) / records);
  Put(&m, kEndToEnd, "sp_records_per_record",
      static_cast<double>(r.acct.sp_consumed) / records);
  Put(&m, kEndToEnd, "peak_rss_mb", r.peak_rss_mb);
  std::vector<double> setup_s;
  for (const auto* group : {&r.t1, &r.tn}) {
    for (const PassResult& p : *group) {
      setup_s.insert(setup_s.end(), p.setup_s.begin(), p.setup_s.end());
    }
  }
  Put(&m, kEndToEnd, "setup_s", Median(setup_s));
  return m;
}

// Sum of one layer's span durations in a traced pass, in nanoseconds.
double LayerNs(const PassResult& p, Layer layer) {
  double ns = 0.0;
  for (const Span& s : p.spans) {
    if (s.layer == layer) ns += static_cast<double>(s.end_ns - s.start_ns);
  }
  return ns;
}

std::vector<double> SpanDurations(const std::vector<PassResult>& ps,
                                  Layer layer, double scale) {
  std::vector<double> v;
  for (const PassResult& p : ps) {
    for (const Span& s : p.spans) {
      if (s.layer == layer) {
        v.push_back(static_cast<double>(s.end_ns - s.start_ns) * scale);
      }
    }
  }
  return v;
}

// Median over traced passes of a layer's ns per input record.
double NsPerRec(const Run& r, Layer layer) {
  std::vector<double> v;
  for (const PassResult& p : r.traced) {
    v.push_back(LayerNs(p, layer) / static_cast<double>(p.records));
  }
  return Median(v);
}

double Ratio(double a, double b) { return b > 0 ? a / b : 0.0; }

// Layer metrics read from the untraced passes: counters of the mechanisms
// the traced loop cannot follow, parallel scaling, and the service-level
// counts that are zero on some workloads. Untraced runs print them too.
Metrics UntracedLayers(const Run& r) {
  Metrics m;
  const PassResult& up = r.t1.front();  // counters are deterministic
  const double epochs = static_cast<double>(r.cfg.epochs);
  std::vector<double> restore_ms;
  for (const PassResult& p : r.t1) {
    if (p.restore_epoch < 0) continue;
    restore_ms.push_back(
        (p.epoch_s[p.restore_epoch] - Median(p.epoch_s)) * 1e3);
  }
  Put(&m, kPerLayer, "ckpt.restore_ms", Median(restore_ms));
  Put(&m, kPerLayer, "ckpt.records_replayed",
      static_cast<double>(up.on_demand_records));
  Put(&m, kPerLayer, "ft.frames_per_epoch",
      static_cast<double>(up.fault.frames_sent) / epochs);
  Put(&m, kPerLayer, "ft.retransmits",
      static_cast<double>(up.fault.retransmits));
  Put(&m, kPerLayer, "ft.duplicates_dropped",
      static_cast<double>(up.fault.duplicates_dropped));
  Put(&m, kPerLayer, "overload.shedding_epochs",
      static_cast<double>(up.overload.shedding_epochs));
  Put(&m, kPerLayer, "overload.escalations",
      static_cast<double>(up.overload.escalations));
  const double speedup = MedianOf(r.tn, Rps) / MedianOf(r.t1, Rps);
  Put(&m, kPerLayer, "records_per_s_t4", MedianOf(r.tn, Rps));
  Put(&m, kPerLayer, "pool.speedup", speedup);
  Put(&m, kPerLayer, "pool.speedup_vs_host", Ratio(speedup, r.hostn.mem));
  Put(&m, kPerLayer, "host.cpu_scaling", r.hostn.cpu);
  Put(&m, kPerLayer, "host.mem_scaling", r.hostn.mem);
  std::vector<Weighted> latency, lag;
  LatencySamples(up, &latency, &lag);
  Put(&m, kPerLayer, "result_lag_s_p95", WeightedQuantile(lag, 0.95));
  Put(&m, kPerLayer, "shed_fraction",
      static_cast<double>(up.fault.records_shed) /
          static_cast<double>(up.records));
  Put(&m, kPerLayer, "failed_fraction",
      Ratio(static_cast<double>(up.fault.records_lost),
            static_cast<double>(up.fault.records_sent)));
  Put(&m, kPerLayer, "converge_epochs",
      static_cast<double>(up.converge_epochs));
  return m;
}

// Layer metrics from the traced loop's spans and counters.
Metrics TracedLayers(const Run& r) {
  Metrics m;
  const PassResult& tp = r.traced.front();  // counters are deterministic
  const double records = static_cast<double>(tp.records);
  const double epochs = static_cast<double>(r.cfg.epochs);
  Put(&m, kPerLayer, "source.ingest_ns_per_rec", NsPerRec(r, kIngest));
  Put(&m, kPerLayer, "source.run_epoch_ns_per_rec", NsPerRec(r, kRunEpoch));
  Put(&m, kPerLayer, "source.drained_fraction",
      Ratio(static_cast<double>(tp.proxy_drained),
            static_cast<double>(tp.proxy_arrived)));
  Put(&m, kPerLayer, "source.budget_used",
      Ratio(tp.cpu_spent_s, tp.cpu_budget_s));
  Put(&m, kPerLayer, "source.pending_records",
      static_cast<double>(tp.pending_sum) / epochs);
  Put(&m, kPerLayer, "wire.encode_ns_per_rec", NsPerRec(r, kEncode));
  Put(&m, kPerLayer, "wire.decode_ns_per_rec", NsPerRec(r, kDecode));
  Put(&m, kPerLayer, "wire.bytes_per_rec",
      static_cast<double>(tp.data_wire_bytes + tp.ckpt_bytes) / records);
  Put(&m, kPerLayer, "wire.ratio",
      Ratio(static_cast<double>(tp.data_wire_bytes),
            static_cast<double>(tp.modeled_bytes)));
  Put(&m, kPerLayer, "sp.consume_ns_per_rec", NsPerRec(r, kConsume));
  const std::vector<double> end_ms = SpanDurations(r.traced, kEndEpoch, 1e-6);
  Put(&m, kPerLayer, "sp.end_epoch_ms_p50", Quantile(end_ms, 0.5));
  Put(&m, kPerLayer, "sp.end_epoch_ms_max", Quantile(end_ms, 1.0));
  const std::vector<double> decide_us =
      SpanDurations(r.traced, kDecide, 1e-3);
  Put(&m, kPerLayer, "runtime.decide_us_p50", Quantile(decide_us, 0.5));
  Put(&m, kPerLayer, "runtime.decide_us_max", Quantile(decide_us, 1.0));
  Put(&m, kPerLayer, "runtime.profile_epochs",
      static_cast<double>(tp.profile_epochs));
  Put(&m, kPerLayer, "runtime.adaptations",
      static_cast<double>(tp.adaptations));
  std::vector<double> export_us, tick_ns, coverage;
  for (const PassResult& p : r.traced) {
    export_us.push_back(LayerNs(p, kCkptExport) * 1e-3 / epochs);
    tick_ns.push_back(Ratio(LayerNs(p, kTick), static_cast<double>(p.ticks)));
    double layers = 0.0;
    for (int l = kIngest; l < kNumLayers; ++l) {
      layers += LayerNs(p, static_cast<Layer>(l));
    }
    coverage.push_back(layers * 1e-9 / p.wall_s());
  }
  Put(&m, kPerLayer, "ckpt.export_us_per_epoch", Median(export_us));
  Put(&m, kPerLayer, "ckpt.bytes_per_epoch",
      static_cast<double>(tp.ckpt_bytes) / epochs);
  Put(&m, kPerLayer, "overload.tick_ns", Median(tick_ns));
  double gen_s = 0.0;
  double gen_records = 0.0;
  for (const auto* group : {&r.t1, &r.tn, &r.traced}) {
    for (const PassResult& p : *group) {
      gen_s += p.gen_s;
      gen_records += static_cast<double>(p.records);
    }
  }
  Put(&m, kPerLayer, "gen.ns_per_rec", gen_s * 1e9 / gen_records);
  Put(&m, kPerLayer, "trace.coverage", Median(coverage));
  // The overhead compares the epochs the traced loop follows: not the crash and
  // the restore on t2t.
  std::set<int> skip;
  if (r.cfg.crash_epoch >= 0) skip.insert(r.cfg.crash_epoch);
  if (r.t1.front().restore_epoch >= 0) skip.insert(r.t1.front().restore_epoch);
  std::vector<double> traced_wall, untraced_wall;
  for (const PassResult& p : r.traced) {
    traced_wall.push_back(p.wall_s_except(skip));
  }
  for (const PassResult& p : r.t1) {
    untraced_wall.push_back(p.wall_s_except(skip));
  }
  Put(&m, kPerLayer, "trace.overhead",
      Median(traced_wall) / Median(untraced_wall) - 1.0);
  return m;
}

void WriteSpans(const std::string& path, const Run& r) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "pass,layer,epoch,source,start_ns,end_ns\n");
  for (size_t i = 0; i < r.traced.size(); ++i) {
    for (const Span& s : r.traced[i].spans) {
      std::fprintf(f, "%zu,%s,%u,%u,%" PRId64 ",%" PRId64 "\n", i,
                   LayerName(s.layer), s.epoch, s.source, s.start_ns,
                   s.end_ns);
    }
  }
  std::fclose(f);
}

int Main(const Args& args) {
  Run r;
  if (!WorkloadConfig::Make(args.workload, args.seed, &r.cfg)) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }
  const WorkloadConfig& cfg = r.cfg;
  r.threads_n = std::max(
      1, std::min(4, static_cast<int>(std::thread::hardware_concurrency())));
  std::printf("workload %s seed %" PRIu64 ": %s, threads 1 and %d\n",
              cfg.name.c_str(), cfg.seed, cfg.InputSize().c_str(),
              r.threads_n);

  auto fail = [](const std::string& what) {
    std::fprintf(stderr, "perfbench: FAILED: %s\n", what.c_str());
    return 1;
  };
  // A warm-up pass at threads=1 runs before anything else, so the peak
  // resident memory read after it is the serial runtime's: the worker
  // threads' malloc arenas and the benchmark's own reference state come
  // later. Then one untimed accounting pass (wire bytes, the reference
  // check), then timed passes cycle until the measuring time is spent.
  if (std::string err = RunUntraced(cfg, 1, false, &r.warmup); !err.empty()) {
    return fail(err);
  }
  r.peak_rss_mb = PeakRssMb();
  if (std::string err = RunUntraced(cfg, 1, true, &r.acct); !err.empty()) {
    return fail(err);
  }
  const double until = NowSeconds() + args.seconds;
  // Untraced runs report only serial timings, so they need just enough
  // threads=N passes for the cross-thread result check.
  enum Kind { kSerial, kParallel, kTraced };
  const std::vector<Kind> cycle =
      args.trace ? std::vector<Kind>{kSerial, kParallel, kTraced}
                 : std::vector<Kind>{kSerial, kSerial, kSerial, kParallel};
  for (size_t i = 0;; ++i) {
    const Kind kind = cycle[i % cycle.size()];
    PassResult p;
    std::string err =
        kind == kTraced
            ? RunTraced(cfg, &p)
            : RunUntraced(cfg, kind == kSerial ? 1 : r.threads_n, false, &p);
    if (!err.empty()) return fail(err);
    (kind == kSerial ? r.t1 : kind == kParallel ? r.tn : r.traced)
        .push_back(std::move(p));
    if (NowSeconds() >= until && (i + 1) % cycle.size() == 0) break;
  }
  r.host2 = ProbeHost(2);
  r.hostn = ProbeHost(r.threads_n);
  if (std::string err = CheckRun(r); !err.empty()) return fail(err);

  Metrics m = args.trace ? TracedLayers(r) : EndToEnd(r);
  const Metrics untraced_layers = UntracedLayers(r);
  if (args.trace) {
    m.insert(m.end(), untraced_layers.begin(), untraced_layers.end());
  }
  if (args.trace && !args.trace_out.empty()) WriteSpans(args.trace_out, r);

  uint64_t attempted = r.acct.records;
  uint64_t failed = r.acct.fault.records_lost;
  for (const auto* group : {&r.t1, &r.tn}) {
    for (const PassResult& p : *group) {
      attempted += p.records;
      failed += p.fault.records_lost;
    }
  }
  std::printf("passes: %zu at threads=1, %zu at threads=%d, %zu traced; "
              "host scaling at 2/%d threads: cpu %.2f/%.2f mem %.2f/%.2f\n",
              r.t1.size(), r.tn.size(), r.threads_n, r.traced.size(),
              r.threads_n, r.host2.cpu, r.hostn.cpu, r.host2.mem,
              r.hostn.mem);
  size_t epochs = 0;
  std::set<std::pair<size_t, Micros>> windows;
  for (size_t i = 0; i < r.t1.size(); ++i) {
    epochs += r.t1[i].epoch_s.size();
    for (const auto& [key, count] : r.t1[i].emissions) {
      if (key.second >= 0) windows.insert({i, key.first});
    }
  }
  std::printf("threads=1 samples: %zu epochs, %zu window emissions\n",
              epochs, windows.size());
  if (r.acct.on_demand_records > 0) {
    std::printf("records generated on demand for crash replay: %" PRIu64
                "\n", r.acct.on_demand_records);
  }
  if (args.trace && cfg.fault_tolerant) {
    std::printf("traced loop: crash quarantine/replay not reproduced "
                "(zero-loss recovery keeps results equal); restore and "
                "fault counters come from the untraced passes\n");
  }
  for (const auto& [def, v] : m) {
    std::printf("  %-30s %16.6g %s\n", def->name, v, def->unit);
  }
  if (!args.trace) {
    std::printf("per-layer metrics of the untraced passes (not gated):\n");
    for (const auto& [def, v] : untraced_layers) {
      std::printf("  %-30s %16.6g %s\n", def->name, v, def->unit);
    }
  }
  std::printf("{\"correct\": true, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 ", \"metrics\": {",
              attempted, failed);
  for (size_t i = 0; i < m.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
                i ? ", " : "", m[i].first->name, m[i].second,
                m[i].first->unit);
  }
  std::printf("}}\n");
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: jarvis_perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--trace-out FILE] | --describe\n");
    return 2;
  }
  if (args.describe) {
    perfbench::Describe();
    return 0;
  }
  return perfbench::Main(args);
}
