#ifndef JARVIS_CORE_CONTROL_PROXY_H_
#define JARVIS_CORE_CONTROL_PROXY_H_

#include <cstddef>
#include <cstdint>
#include <deque>
#include <vector>

#include "core/types.h"
#include "stream/record.h"

namespace jarvis::core {

/// FIFO of records held as whole batches: an appended batch becomes one
/// chunk, so a batch that passes a stage unsplit is handed on by moving its
/// buffer, never record by record. Takes from the front swap out a whole
/// chunk when the request covers exactly that chunk, and otherwise move
/// records across chunk boundaries. A partially taken front chunk is
/// re-packed into a right-sized buffer once more than half of it is
/// consumed, so a standing backlog never pins more dead slots than it has
/// live records.
class BatchFifo {
 public:
  /// Pending records across all chunks.
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// Appends `batch` as one chunk (an empty batch is ignored). Takes the
  /// batch's buffer: the caller's vector is left empty with no capacity.
  void Append(stream::RecordBatch&& batch);

  /// Moves the oldest min(n, size()) records onto the end of `*out`, in
  /// order. O(1) when `*out` is empty and `n` covers exactly an untouched
  /// front chunk.
  void TakeFront(size_t n, stream::RecordBatch* out);

  /// Appends copies of all pending records to `*out`, oldest first, without
  /// consuming them.
  void CopyTo(stream::RecordBatch* out) const;

  void Clear();

 private:
  std::deque<stream::RecordBatch> chunks_;
  size_t head_ = 0;  // records already taken from chunks_.front()
  size_t size_ = 0;
};

/// The light-weight routing element bridging two adjacent stream operators
/// (Section IV-A). A proxy forwards a fraction `load_factor` of arriving
/// records to its local downstream operator and drains the rest to the
/// replicated operator on the stream processor.
///
/// Routing is deterministic fractional apportioning (error diffusion): after
/// n arrivals, the number forwarded is floor-or-ceil of n*p, never a random
/// draw. This keeps every test and benchmark bit-reproducible and the split
/// exact even for tiny epochs.
class ControlProxy {
 public:
  explicit ControlProxy(size_t op_index) : op_index_(op_index) {}

  size_t op_index() const { return op_index_; }

  double load_factor() const { return load_factor_; }
  void set_load_factor(double p);

  /// Routes an arriving record: returns true to forward locally (the caller
  /// enqueues it), false to drain it to the stream processor. Updates epoch
  /// counters.
  bool Route();

  /// Routes a whole arriving batch with the same error-diffusion decision
  /// sequence as per-record Route(): forwarded records append to the local
  /// queue, drained records append to `*drained`, both in arrival order. A
  /// batch routed entirely one way moves as a whole — into the queue as one
  /// chunk, or onto `*drained` with MoveAppend; only a mixed batch is split
  /// record by record.
  void RouteBatch(stream::RecordBatch&& batch, stream::RecordBatch* drained);

  /// The local queue of forwarded-but-unprocessed records. The executor takes
  /// from its front as CPU budget allows; what remains at epoch end is
  /// backpressure.
  BatchFifo& queue() { return queue_; }
  const BatchFifo& queue() const { return queue_; }

  /// Marks `n` records as consumed by the local operator.
  void CountProcessed(uint64_t n) { processed_ += n; }

  /// Resets epoch counters (queue contents persist across epochs).
  void BeginEpoch();

  /// Snapshot of this epoch's counters plus queue depth.
  ProxyObservation Observe() const;

 private:
  size_t op_index_;
  double load_factor_ = 0.0;
  double route_accum_ = 0.0;

  uint64_t arrived_ = 0;
  uint64_t forwarded_ = 0;
  uint64_t drained_ = 0;
  uint64_t processed_ = 0;
  BatchFifo queue_;
};

}  // namespace jarvis::core

#endif  // JARVIS_CORE_CONTROL_PROXY_H_
