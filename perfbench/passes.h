// One pass = one fresh runtime driven through every epoch of a workload.
// Untraced passes run core::BuildingBlock and time only RunEpoch; traced
// passes run the benchmark's own serial epoch loop, which makes the same
// public calls as BuildingBlock's serial loop with a span around each.
#ifndef PERFBENCH_PASSES_H_
#define PERFBENCH_PASSES_H_

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "core/building_block.h"
#include "perfbench/measure.h"
#include "perfbench/workload.h"

namespace perfbench {

/// Layers the traced loop puts spans around (the public call named in
/// each comment). kEpoch is the parent span of one epoch.
enum Layer : uint8_t {
  kEpoch,       ///< one whole epoch of the traced loop
  kIngest,      ///< SourceExecutor::SetIngressLimits + Ingest
  kRunEpoch,    ///< SourceExecutor::RunEpoch
  kShed,        ///< ShedDrainChunks (overload drain shedding)
  kEncode,      ///< SerializeDrain
  kCkptExport,  ///< ExportCheckpointBody + SealCheckpointPayload +
                ///< MakeCheckpointFrame
  kDecode,      ///< DecodeDrain, or PeekFrameHeader per frame
  kConsume,     ///< SpExecutor::Consume, or ConsumeFrame + ConsumeWatermark
  kDecide,      ///< JarvisRuntime::OnEpochEnd
  kApplyPlan,   ///< SetLoadFactors / RequestFlush
  kTick,        ///< OverloadController::NoteSpInflow + Tick
  kEndEpoch,    ///< SpExecutor::EndEpoch
  kNumLayers,
};

const char* LayerName(Layer layer);

/// One span. Layer spans of an epoch share its epoch index; the kEpoch span
/// with the same index is their parent.
struct Span {
  Layer layer = kEpoch;
  uint32_t epoch = 0;
  uint32_t source = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

/// Everything one pass measured.
struct PassResult {
  int threads = 1;
  bool traced = false;
  std::vector<double> epoch_s;  ///< wall seconds of each epoch
  uint64_t records = 0;         ///< input records handed to sources
  uint64_t on_demand_records = 0;
  double gen_s = 0.0;
  /// Set-up wall seconds (MakeSetup + BuildBlock), several per pass.
  std::vector<double> setup_s;
  Fingerprint fp;
  Emissions emissions;
  int restore_epoch = -1;  ///< epoch whose RunEpoch ran a checkpoint restore

  // Counters read after the pass (untraced passes).
  jarvis::core::FaultStats fault;
  jarvis::core::OverloadStats overload;
  uint64_t in_flight = 0;
  uint64_t sp_consumed = 0;
  uint64_t wire_bytes = 0;  ///< encoded bytes shipped, checkpoints included
  int converge_epochs = 0;

  // Traced passes only.
  std::vector<Span> spans;
  uint64_t modeled_bytes = 0;   ///< SourceEpochOutput::drained_bytes
  uint64_t data_wire_bytes = 0; ///< data frames only
  uint64_t ckpt_bytes = 0;
  uint64_t proxy_arrived = 0;
  uint64_t proxy_drained = 0;
  uint64_t pending_sum = 0;     ///< proxy queues at epoch end, all epochs
  double cpu_spent_s = 0.0;
  double cpu_budget_s = 0.0;
  uint64_t profile_epochs = 0;  ///< source-epochs run in profiling mode
  uint64_t adaptations = 0;
  uint64_t ticks = 0;

  double wall_s() const;
  /// Wall seconds over every epoch not in `skip`.
  double wall_s_except(const std::set<int>& skip) const;
};

/// Untraced pass on BuildingBlock at `threads`. The set-up (query compile,
/// block construction, Init) is timed a few times before the pass. With
/// `account` set the pass also counts plain-path wire bytes (re-encoding a
/// copy of each drain in an epoch tap, which costs time — never set on a
/// timed pass) and checks the S2S results against the independent reference
/// evaluator. Returns an error message on any failure.
std::string RunUntraced(const WorkloadConfig& cfg, int threads, bool account,
                        PassResult* out);

/// Traced pass: the serial epoch loop over hand-wired executors. It does not
/// reproduce the scripted crash (quarantine and replay are private to
/// BuildingBlock); zero-loss recovery makes the results of a run with the
/// crash equal those of a run without it.
std::string RunTraced(const WorkloadConfig& cfg, PassResult* out);

}  // namespace perfbench

#endif  // PERFBENCH_PASSES_H_
