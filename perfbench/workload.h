// The benchmark's three workloads: their queries, sources, input staging,
// and per-epoch scripts. Everything here is a pure function of the seed, so
// every pass of a run (untraced, traced, threads 1 or N) sees the same input.
#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/building_block.h"
#include "core/fault.h"
#include "core/overload.h"
#include "core/runtime.h"
#include "core/source_executor.h"
#include "query/compile.h"
#include "stream/record.h"

namespace perfbench {

using jarvis::Micros;

enum class WorkloadId { kS2sPinned, kLogAdaptive, kT2tRecovery };

/// Static description of one workload. The scripts below (pinning, budget
/// step, crash, burst) are applied identically by the untraced
/// BuildingBlock passes and the traced loop.
struct WorkloadConfig {
  WorkloadId id = WorkloadId::kS2sPinned;
  std::string name;
  size_t sources = 0;
  int epochs = 0;  ///< epochs per pass; one modeled second each
  uint64_t seed = 1;
  /// Per-source input per modeled second (probe pairs or log lines).
  int64_t per_source_rate = 0;
  /// Drain wire compression (SetWireCodec).
  bool compress = false;
  /// Fault-tolerant path with an epoch checkpoint every epoch, a scripted
  /// crash and overload control.
  bool fault_tolerant = false;
  int crash_epoch = -1;
  size_t crash_source = 0;
  int burst_epoch = -1;
  size_t burst_source = 0;
  int burst_epochs = 0;
  int burst_factor = 0;
  /// Load factors pinned at 1.0 after every epoch (whole prefix at source).
  bool pin_load_factors = false;
  /// Budget step: from `budget` to `budget_after` after epoch `step_epoch`.
  double budget = 1.0;
  double budget_after = 1.0;
  int step_epoch = -1;

  static bool Make(const std::string& name, uint64_t seed,
                   WorkloadConfig* out);
  /// One line: what one pass of this workload feeds the runtime.
  std::string InputSize() const;
};

/// Everything needed to build one BuildingBlock (or the traced loop's
/// hand-wired equivalent) for a workload.
struct WorkloadSetup {
  jarvis::query::CompiledQuery query;
  std::vector<std::shared_ptr<const jarvis::core::CostModel>> cost_models;
  jarvis::core::SourceExecutorOptions options;
  jarvis::core::RuntimeConfig runtime_config;
  jarvis::core::WireCodecOptions codec;
  jarvis::core::FaultToleranceOptions ft;
  jarvis::core::FaultPlan fault_plan;
  jarvis::core::OverloadOptions overload;
};

/// Compiles the workload's query and fills in every knob.
jarvis::Result<WorkloadSetup> MakeSetup(const WorkloadConfig& cfg);

/// Seeded per-source input with epoch staging. Before each epoch the
/// benchmark calls Stage(), outside any timed region; the generate callback
/// handed to BuildingBlock then returns the staged batch. A request for any
/// other interval (crash replay) is generated on demand and counted.
class Inputs {
 public:
  explicit Inputs(const WorkloadConfig& cfg);
  Inputs(const Inputs&) = delete;
  Inputs& operator=(const Inputs&) = delete;

  /// Generates (and shapes) every source's batch for epoch `e`.
  void Stage(int e);
  /// The staged batch of source `s` (moved out; valid once per Stage).
  jarvis::stream::RecordBatch Take(size_t s);
  /// Read-only view of a staged batch (reference evaluator input).
  const jarvis::stream::RecordBatch& staged(size_t s) const {
    return staged_[s];
  }

  /// The SourceSpec generate callback for source `s`.
  std::function<jarvis::stream::RecordBatch(Micros, Micros)> Generator(
      size_t s);

  uint64_t staged_records() const { return staged_records_; }
  double gen_seconds() const { return gen_seconds_; }
  uint64_t on_demand_records() const { return on_demand_records_.load(); }

 private:
  jarvis::stream::RecordBatch Generate(size_t s, Micros from, Micros to) const;

  WorkloadConfig cfg_;
  std::vector<std::function<jarvis::stream::RecordBatch(Micros, Micros)>>
      gens_;
  std::unique_ptr<jarvis::core::TrafficShaper> shaper_;
  std::vector<jarvis::stream::RecordBatch> staged_;
  Micros staged_from_ = -1;
  uint64_t staged_records_ = 0;
  double gen_seconds_ = 0.0;
  std::atomic<uint64_t> on_demand_records_{0};
};

/// The workload's between-epoch script for one source, run after epoch `e`
/// returns and before epoch e+1 is staged: load-factor pinning and the CPU
/// budget step.
void AfterEpoch(const WorkloadConfig& cfg, int e,
                jarvis::core::SourceExecutor* source);

/// Listing 1 evaluated naively over the staged probes: errCode == 0, then
/// avg/max/min rtt per (srcIp, dstIp, 10 s window). Independent of the
/// engine; closed windows are handed to `emit` as result records in the
/// engine's result layout.
class S2sReference {
 public:
  using Emit = std::function<void(const jarvis::stream::RecordBatch&)>;
  /// Folds one epoch of probes.
  void Add(const jarvis::stream::RecordBatch& probes);
  /// Emits every window that ends at or before `watermark`.
  void CloseUpTo(Micros watermark, const Emit& emit);

 private:
  struct Agg {
    double sum = 0.0;
    int64_t count = 0;
    double max = 0.0;
    double min = 0.0;
  };
  struct Key {
    Micros window;
    int64_t src;
    int64_t dst;
    bool operator<(const Key& o) const;
  };
  std::map<Key, Agg> open_;
};

inline constexpr Micros kWindow = 10'000'000;  // every query: 10 s windows

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_
