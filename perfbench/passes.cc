#include "perfbench/passes.h"

#include <algorithm>
#include <chrono>
#include <limits>
#include <type_traits>
#include <utility>

#include "core/checkpoint.h"
#include "core/drain_wire.h"
#include "core/overload.h"
#include "core/runtime.h"
#include "core/source_executor.h"
#include "core/sp_executor.h"
#include "ser/buffer.h"

namespace perfbench {

namespace core = jarvis::core;
using jarvis::Seconds;
using jarvis::Status;
using jarvis::stream::RecordBatch;

const char* LayerName(Layer layer) {
  static constexpr const char* kNames[kNumLayers] = {
      "epoch",  "ingest", "run_epoch", "shed",   "encode",    "ckpt_export",
      "decode", "consume", "decide",   "apply_plan", "tick",  "end_epoch"};
  return kNames[layer];
}

double PassResult::wall_s() const {
  double sum = 0.0;
  for (double s : epoch_s) sum += s;
  return sum;
}

double PassResult::wall_s_except(const std::set<int>& skip) const {
  double sum = 0.0;
  for (size_t e = 0; e < epoch_s.size(); ++e) {
    if (skip.count(static_cast<int>(e)) == 0) sum += epoch_s[e];
  }
  return sum;
}

namespace {

// Builds a BuildingBlock for the workload: the set-up the benchmark times.
std::string BuildBlock(const WorkloadConfig& cfg, const WorkloadSetup& setup,
                       Inputs* inputs, int threads,
                       std::unique_ptr<core::BuildingBlock>* out) {
  std::vector<core::BuildingBlock::SourceSpec> specs(cfg.sources);
  for (size_t s = 0; s < cfg.sources; ++s) {
    specs[s].cost_model = setup.cost_models[s];
    specs[s].options = setup.options;
    specs[s].generate = inputs->Generator(s);
  }
  auto block = std::make_unique<core::BuildingBlock>(
      setup.query, std::move(specs), setup.runtime_config, threads);
  if (Status st = block->Init(); !st.ok()) {
    return "BuildingBlock init: " + st.ToString();
  }
  block->SetWireCodec(setup.codec);
  if (cfg.fault_tolerant) {
    block->EnableFaultTolerance(setup.ft);
    block->SetFaultPlan(setup.fault_plan);
    block->EnableOverloadControl(setup.overload);
  }
  *out = std::move(block);
  return "";
}

}  // namespace

std::string RunUntraced(const WorkloadConfig& cfg, int threads, bool account,
                        PassResult* out) {
  out->threads = threads;
  Inputs inputs(cfg);
  // Set-up samples are spread over the run, a few before every pass, so
  // their median reflects the whole run rather than one moment of it.
  constexpr int kSetupReps = 4;
  std::unique_ptr<WorkloadSetup> setup_ptr;
  std::unique_ptr<core::BuildingBlock> block;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    block.reset();
    setup_ptr.reset();
    const double start = NowSeconds();
    auto made = MakeSetup(cfg);
    if (!made.ok()) return "set-up: " + made.status().ToString();
    setup_ptr = std::make_unique<WorkloadSetup>(std::move(made).value());
    std::string err = BuildBlock(cfg, *setup_ptr, &inputs, threads, &block);
    out->setup_s.push_back(NowSeconds() - start);
    if (!err.empty()) return err;
  }
  const WorkloadSetup& setup = *setup_ptr;
  const bool plain_wire = account && !cfg.fault_tolerant;
  if (plain_wire) {
    // The plain path encodes and decodes inside RunEpoch without exposing
    // the byte count; the tap sees the decoded drain and re-encodes a copy
    // with the same codec (encoding is deterministic, so the size matches).
    block->SetEpochTap([&](size_t, const core::SourceEpochOutput& o) {
      core::SourceEpochOutput copy = o;
      uint32_t seq = 0;
      out->wire_bytes += core::SerializeDrain(&copy, &seq, setup.codec)
                             .wire_bytes;
    });
  }
  std::unique_ptr<S2sReference> ref;
  Fingerprint ref_fp;
  if (account && cfg.id == WorkloadId::kS2sPinned) {
    ref = std::make_unique<S2sReference>();
  }
  for (size_t s = 0; s < cfg.sources; ++s) {
    AfterEpoch(cfg, -1, &block->source(s));
  }
  RecordBatch results;
  uint64_t restores = 0;
  for (int e = 0; e < cfg.epochs; ++e) {
    inputs.Stage(e);
    if (ref) {
      for (size_t s = 0; s < cfg.sources; ++s) ref->Add(inputs.staged(s));
    }
    const double start = NowSeconds();
    const Status st = block->RunEpoch(&results);
    out->epoch_s.push_back(NowSeconds() - start);
    if (!st.ok()) {
      return "epoch " + std::to_string(e) + " failed: " + st.ToString();
    }
    out->fp.Fold(results);
    NoteEmissions(results, e, &out->emissions);
    results.clear();
    if (block->fault_stats().checkpoint_restores != restores) {
      restores = block->fault_stats().checkpoint_restores;
      out->restore_epoch = e;
    }
    for (size_t s = 0; s < cfg.sources; ++s) {
      AfterEpoch(cfg, e, &block->source(s));
    }
    if (ref) {
      ref->CloseUpTo(Seconds(e + 1),
                     [&](const RecordBatch& b) { ref_fp.Fold(b); });
    }
  }
  if (Status st = block->Finish(&results); !st.ok()) {
    return "Finish failed: " + st.ToString();
  }
  out->fp.Fold(results);
  NoteEmissions(results, -1, &out->emissions);
  results.clear();

  out->records = inputs.staged_records();
  out->on_demand_records = inputs.on_demand_records();
  out->gen_s = inputs.gen_seconds();
  out->fault = block->fault_stats();
  out->overload = block->overload_stats();
  out->in_flight = block->records_in_flight();
  out->sp_consumed = block->stream_processor().records_consumed();
  if (cfg.fault_tolerant) out->wire_bytes = out->fault.wire_bytes_sent;
  for (size_t s = 0; s < cfg.sources; ++s) {
    out->converge_epochs = std::max(
        out->converge_epochs, block->runtime(s).last_convergence_epochs());
  }
  if (ref) {
    ref->CloseUpTo(std::numeric_limits<Micros>::max() - kWindow,
                   [&](const RecordBatch& b) { ref_fp.Fold(b); });
    if (std::string d = out->fp.Diff(ref_fp); !d.empty()) {
      return "S2S results differ from the reference evaluator: " + d;
    }
  }
  return "";
}

namespace {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Mirror of BuildingBlock's private wire-ratio fold: a profiling epoch's
// measured wire bytes become the LP's per-operator wire_ratio, so the
// traced loop's placement decisions match the runtime's.
void FoldWireRatios(const core::WireByteProfile& profile, uint64_t ckpt_bytes,
                    core::EpochObservation* obs) {
  if (!obs->profiles_valid || obs->profiles.empty()) return;
  const double overall =
      profile.modeled_total > 0
          ? static_cast<double>(profile.wire_total) /
                static_cast<double>(profile.modeled_total)
          : 1.0;
  const double ckpt_mult =
      profile.wire_total > 0
          ? static_cast<double>(profile.wire_total + ckpt_bytes) /
                static_cast<double>(profile.wire_total)
          : 1.0;
  const size_t m = obs->profiles.size();
  std::vector<core::WireByteProfile::Entry> per(m);
  for (size_t e = 0; e < profile.per_entry.size(); ++e) {
    core::WireByteProfile::Entry& slot = per[std::min(e, m - 1)];
    slot.modeled += profile.per_entry[e].modeled;
    slot.wire += profile.per_entry[e].wire;
  }
  for (size_t i = 0; i < m; ++i) {
    const double ratio = per[i].modeled > 0
                             ? static_cast<double>(per[i].wire) /
                                   static_cast<double>(per[i].modeled)
                             : overall;
    obs->profiles[i].wire_ratio = std::clamp(ratio * ckpt_mult, 0.0, 64.0);
  }
}

// Records a span around `fn` and returns what it returns.
template <typename Fn>
auto Timed(std::vector<Span>* spans, Layer layer, int epoch, size_t source,
           Fn&& fn) {
  Span span{layer, static_cast<uint32_t>(epoch),
            static_cast<uint32_t>(source), NowNs(), 0};
  if constexpr (std::is_void_v<decltype(fn())>) {
    fn();
    span.end_ns = NowNs();
    spans->push_back(span);
  } else {
    auto r = fn();
    span.end_ns = NowNs();
    spans->push_back(span);
    return r;
  }
}

}  // namespace

std::string RunTraced(const WorkloadConfig& cfg, PassResult* out) {
  auto made = MakeSetup(cfg);
  if (!made.ok()) return "set-up: " + made.status().ToString();
  const WorkloadSetup& setup = *made;
  out->threads = 1;
  out->traced = true;
  const size_t n = cfg.sources;
  const bool ft = cfg.fault_tolerant;
  std::vector<std::unique_ptr<core::SourceExecutor>> sources;
  std::vector<std::unique_ptr<core::JarvisRuntime>> runtimes;
  for (size_t s = 0; s < n; ++s) {
    sources.push_back(std::make_unique<core::SourceExecutor>(
        setup.query, setup.cost_models[s], setup.options));
    if (Status st = sources.back()->Init(); !st.ok()) return st.ToString();
    runtimes.push_back(std::make_unique<core::JarvisRuntime>(
        setup.query.num_source_ops(), setup.runtime_config));
    AfterEpoch(cfg, -1, sources.back().get());
  }
  core::SpExecutor sp(setup.query, n);
  if (Status st = sp.Init(); !st.ok()) return st.ToString();
  std::unique_ptr<core::OverloadController> overload;
  if (ft) {
    sp.SetCheckpointRetain(static_cast<size_t>(setup.ft.checkpoint_retain));
    overload = std::make_unique<core::OverloadController>(setup.overload, n);
  }
  std::vector<uint32_t> next_seq(n, 0);
  std::vector<bool> profile_next(n, false);
  std::vector<core::IngressDirective> ingress(n);
  std::vector<core::PressureSample> samples(n);
  uint64_t sp_consumed_last = 0;

  Inputs inputs(cfg);
  RecordBatch results;
  std::vector<Span>& spans = out->spans;
  spans.reserve(static_cast<size_t>(cfg.epochs) * (n * 9 + 3));
  for (int e = 0; e < cfg.epochs; ++e) {
    inputs.Stage(e);
    const Micros to = Seconds(e + 1);
    const int64_t epoch_start = NowNs();
    for (size_t s = 0; s < n; ++s) {
      core::SourceExecutor& src = *sources[s];
      const core::IngressDirective ing = ingress[s];
      Timed(&spans, kIngest, e, s, [&] {
        if (ft) src.SetIngressLimits({ing.admit_cap, ing.defer_cap});
        src.Ingest(inputs.Take(s));
      });
      jarvis::Result<core::SourceEpochOutput> res = Timed(
          &spans, kRunEpoch, e, s,
          [&] { return src.RunEpoch(to, profile_next[s]); });
      if (!res.ok()) return "traced RunEpoch: " + res.status().ToString();
      core::SourceEpochOutput& o = *res;
      const core::EpochObservation& ob = o.observation;
      for (const core::ProxyObservation& p : ob.proxies) {
        out->proxy_arrived += p.arrived;
        out->proxy_drained += p.drained;
        out->pending_sum += p.pending;
      }
      out->cpu_spent_s += ob.cpu_spent_seconds;
      out->cpu_budget_s += ob.cpu_budget_seconds;
      if (profile_next[s]) ++out->profile_epochs;
      uint64_t shed_drain = 0;
      if (ft && ing.drain_cap != core::IngressDirective::kUnlimited) {
        uint64_t chunks = 0;
        shed_drain = Timed(&spans, kShed, e, s, [&] {
          return core::ShedDrainChunks(ing.drain_cap, &o, &chunks);
        });
      }
      if (ft) {
        core::PressureSample& smp = samples[s];
        smp.offered = o.ingress_offered;
        smp.admitted = o.ingress_admitted;
        smp.deferred = o.ingress_deferred;
        smp.shed = o.ingress_shed + shed_drain;
        smp.drained = o.DrainedRecords();
        smp.pending = src.buffered_input();
        for (const core::ProxyObservation& p : ob.proxies) {
          smp.pending += p.pending;
        }
      }
      out->modeled_bytes += o.drained_bytes;
      const Micros wm = o.watermark;
      core::WireByteProfile wp;
      const bool profiled = ob.profiles_valid;
      core::WireDrain wire = Timed(&spans, kEncode, e, s, [&] {
        return core::SerializeDrain(&o, &next_seq[s], setup.codec,
                                    profiled ? &wp : nullptr);
      });
      out->data_wire_bytes += wire.wire_bytes;
      uint64_t ckpt_bytes = 0;
      if (ft) {
        // Mirror of BuildingBlock::MaybeBuildCheckpointFrame at interval 1:
        // every retain-th checkpoint is a full keyframe.
        Status st = Timed(&spans, kCkptExport, e, s, [&]() -> Status {
          const bool full = e % setup.ft.checkpoint_retain == 0;
          jarvis::ser::BufferWriter body;
          JARVIS_RETURN_IF_ERROR(src.ExportCheckpointBody(
              &body, full ? jarvis::stream::StateExport::kFull
                          : jarvis::stream::StateExport::kDelta));
          const uint32_t seq = next_seq[s]++;
          core::WireFrame frame = core::MakeCheckpointFrame(
              seq, core::SealCheckpointPayload(full, e, seq + 1, body.data()),
              setup.codec);
          ckpt_bytes = frame.bytes.size();
          wire.frames.push_back(std::move(frame));
          return Status::OK();
        });
        if (!st.ok()) return "traced checkpoint: " + st.ToString();
        out->ckpt_bytes += ckpt_bytes;
      }
      FoldWireRatios(wp, ckpt_bytes, &o.observation);
      if (ing.pressure > 0.0 && o.observation.profiles_valid) {
        for (core::OperatorProfile& p : o.observation.profiles) {
          p.pressure = ing.pressure;
        }
      }
      const core::EpochObservation obs = o.observation;
      if (!ft) {
        Status st = Timed(&spans, kDecode, e, s,
                          [&] { return core::DecodeDrain(wire, &o.to_sp); });
        if (st.ok()) {
          st = Timed(&spans, kConsume, e, s,
                     [&] { return sp.Consume(s, std::move(o), &results); });
        }
        if (!st.ok()) return "traced consume: " + st.ToString();
      } else {
        for (const core::WireFrame& f : wire.frames) {
          auto hdr = Timed(&spans, kDecode, e, s,
                           [&] { return core::PeekFrameHeader(f); });
          if (!hdr.ok()) {
            return "traced frame header: " + hdr.status().ToString();
          }
          auto disp = Timed(&spans, kConsume, e, s,
                            [&] { return sp.ConsumeFrame(s, f, &results); });
          if (!disp.ok() || *disp != core::FrameDisposition::kDelivered) {
            return "traced frame not delivered";
          }
        }
        Timed(&spans, kConsume, e, s, [&] { sp.ConsumeWatermark(s, wm); });
      }
      const core::JarvisRuntime::Decision d = Timed(
          &spans, kDecide, e, s, [&] { return runtimes[s]->OnEpochEnd(obs); });
      Timed(&spans, kApplyPlan, e, s, [&] {
        src.SetLoadFactors(d.load_factors);
        if (d.flush_pending) src.RequestFlush();
      });
      profile_next[s] = d.request_profile;
    }
    if (overload) {
      // Mirror of BuildingBlock::TickOverload: ticks in ascending source
      // order; any escalation re-profiles every source.
      bool escalated = false;
      Timed(&spans, kTick, e, 0, [&] {
        const uint64_t consumed = sp.records_consumed();
        overload->NoteSpInflow(consumed - sp_consumed_last);
        sp_consumed_last = consumed;
        for (size_t s = 0; s < n; ++s) {
          ingress[s] = overload->Tick(s, samples[s]);
          escalated = escalated || overload->EscalatedLastTick();
        }
      });
      out->ticks += n;
      if (escalated) {
        for (size_t s = 0; s < n; ++s) {
          runtimes[s]->TriggerReplan();
          profile_next[s] = true;
        }
      }
    }
    Status st = Timed(&spans, kEndEpoch, e, 0,
                      [&] { return sp.EndEpoch(&results); });
    const int64_t epoch_end = NowNs();
    spans.push_back({kEpoch, static_cast<uint32_t>(e), 0, epoch_start,
                     epoch_end});
    out->epoch_s.push_back(static_cast<double>(epoch_end - epoch_start) * 1e-9);
    if (!st.ok()) return "traced EndEpoch: " + st.ToString();
    out->fp.Fold(results);
    NoteEmissions(results, e, &out->emissions);
    results.clear();
    for (size_t s = 0; s < n; ++s) AfterEpoch(cfg, e, sources[s].get());
  }
  // Mirror of BuildingBlock::Finish on a healthy block.
  const Micros far = Seconds(cfg.epochs) + Seconds(3600);
  for (size_t s = 0; s < n; ++s) {
    sources[s]->SetIngressLimits(core::IngressLimits());
    auto res = sources[s]->RunEpoch(far, false);
    if (!res.ok()) return "traced finish: " + res.status().ToString();
    if (Status st = sp.Consume(s, std::move(res).value(), &results);
        !st.ok()) {
      return "traced finish: " + st.ToString();
    }
  }
  if (Status st = sp.EndEpoch(&results); !st.ok()) return st.ToString();
  if (Status st = sp.Flush(&results); !st.ok()) return st.ToString();
  out->fp.Fold(results);
  NoteEmissions(results, -1, &out->emissions);
  out->records = inputs.staged_records();
  out->gen_s = inputs.gen_seconds();
  out->sp_consumed = sp.records_consumed();
  for (size_t s = 0; s < n; ++s) {
    out->adaptations +=
        static_cast<uint64_t>(runtimes[s]->adaptations_completed());
  }
  return "";
}

}  // namespace perfbench
