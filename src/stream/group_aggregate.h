#ifndef JARVIS_STREAM_GROUP_AGGREGATE_H_
#define JARVIS_STREAM_GROUP_AGGREGATE_H_

#include <map>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "ser/buffer.h"
#include "stream/operator.h"

namespace jarvis::stream {

/// Incrementally updatable aggregations (rule R-1: only such aggregations may
/// run on data sources; exact quantiles, for example, may not).
enum class AggKind { kCount, kSum, kAvg, kMin, kMax };

std::string_view AggKindToString(AggKind kind);

/// One aggregation column: apply `kind` to input field `field`; emit it under
/// `out_name`. kCount ignores `field`.
struct AggSpec {
  AggKind kind;
  size_t field = 0;
  std::string out_name;
};

/// The fused GroupApply+Aggregate (G+R) operator: groups records by key
/// fields within each tumbling window and maintains mergeable accumulators.
///
/// Two output modes:
///  - finalize mode (stream processor): closed windows emit one kData row per
///    group with the finalized aggregate values;
///  - partial mode (data source): closed windows emit kPartial rows carrying
///    raw accumulators (count/sum/min/max per agg) that the stream-processor
///    replica merges before finalizing. This is what makes data-level
///    partitioning lossless.
class GroupAggregateOp : public Operator {
 public:
  GroupAggregateOp(std::string name, const Schema& input_schema,
                   std::vector<size_t> key_fields, std::vector<AggSpec> aggs,
                   Micros window_width, bool emit_partials);

  OpKind kind() const override { return OpKind::kGroupAggregate; }
  bool IsStateful() const override { return true; }

  Status OnWatermark(Micros wm, RecordBatch* out) override;
  Status ExportPartialState(RecordBatch* out) override;

  /// Checkpoint state API. Sections are keyed by window_start: a section
  /// replaces that window's whole group table (min/max accumulators are not
  /// arithmetically delta-able, so deltas work at window granularity);
  /// tombstones name windows flushed since the previous export. Delta
  /// tracking starts at the first export — before that, a delta degenerates
  /// to a full export, and non-checkpointed runs pay nothing.
  Status ExportStateDelta(ser::BufferWriter* w, StateExport mode) override;
  Status RestoreState(ser::BufferReader* r) override;

  /// Output schema for the finalize mode (keys then aggregate columns).
  static Schema MakeOutputSchema(const Schema& input,
                                 const std::vector<size_t>& keys,
                                 const std::vector<AggSpec>& aggs);

  /// Number of open (not yet flushed) windows; exposed for tests.
  size_t open_windows() const { return windows_.size(); }

 protected:
  /// Consumes the whole batch into accumulator state, then clears it:
  /// G+R emits on window close, not per record.
  Status DoProcess(RecordBatch* batch) override;

 private:
  /// Mergeable accumulator: enough to finalize any AggKind.
  struct Acc {
    int64_t count = 0;
    double sum = 0.0;
    double min = 0.0;
    double max = 0.0;

    void AddValue(double v);
    void Merge(const Acc& other);
    Value Finalize(AggKind kind) const;
  };

  /// One window's groups, stored flat: encoded keys packed back to back in
  /// one byte arena, `naggs` accumulators per group in one vector, and an
  /// open-addressing (linear probing) index of group ids. Creating a group
  /// allocates nothing per group; a probe costs one hash plus usually one
  /// key compare. Group ids follow creation order, so every reader that
  /// emits or serializes walks SortedIds() instead: output never depends on
  /// hash order.
  class GroupTable {
   public:
    explicit GroupTable(size_t naggs)
        : naggs_(naggs), slots_(kMinSlots, Slot{0, kEmpty}) {}

    size_t size() const { return key_offsets_.size() - 1; }
    std::string_view key(uint32_t id) const {
      return std::string_view(arena_.data() + key_offsets_[id],
                              key_offsets_[id + 1] - key_offsets_[id]);
    }
    Acc* accs(uint32_t id) { return accs_.data() + id * naggs_; }
    const Acc* accs(uint32_t id) const { return accs_.data() + id * naggs_; }

    /// Id of the group keyed `key`, created with empty accumulators when
    /// absent (callers that care compare size() before and after).
    uint32_t FindOrInsert(std::string_view key);
    /// Group ids in ascending encoded-key order.
    std::vector<uint32_t> SortedIds() const;

   private:
    struct Slot {
      uint32_t hash;
      uint32_t id;  // kEmpty when unused
    };
    static constexpr uint32_t kEmpty = ~uint32_t{0};
    static constexpr size_t kMinSlots = 16;

    void Rehash(size_t capacity);

    size_t naggs_;
    std::vector<char> arena_;
    std::vector<size_t> key_offsets_{0};  // key i is [off[i], off[i+1])
    std::vector<Acc> accs_;
    std::vector<Slot> slots_;  // power-of-two size, at most half full
  };

  /// Per-record cursor DoProcess threads through consecutive records:
  /// the window map is looked up once per run of same-window records, not
  /// once per record.
  struct WindowCursor {
    Micros window_start = -1;
    GroupTable* groups = nullptr;
  };

  Status UpdateFromData(const Record& rec, WindowCursor* cursor);
  Status MergeFromPartial(const Record& rec, WindowCursor* cursor);
  /// Points the cursor at `window_start`'s table, creating it if needed.
  void SeekWindow(Micros window_start, WindowCursor* cursor);
  void EmitWindow(Micros window_start, const GroupTable& groups,
                  RecordBatch* out);

  /// Appends one window's section ([zigzag window_start][varint len][groups])
  /// to `w` via the reused section scratch buffer.
  void WriteWindowSection(ser::BufferWriter* w, Micros window_start,
                          const GroupTable& groups);
  /// Records that `window_start`'s contents changed (delta bookkeeping).
  void MarkDirty(Micros window_start) {
    if (delta_tracking_) dirty_windows_.insert(window_start);
  }

  /// Appends one key component's binary encoding to key_buf_.
  void AppendKeyValue(const Value& v);
  /// Accumulators of the group keyed by key_buf_'s contents in the cursor's
  /// window, created on first touch.
  Acc* CurrentGroup(const WindowCursor& cursor);

  std::vector<size_t> key_fields_;
  std::vector<AggSpec> aggs_;
  Micros window_width_;
  bool emit_partials_;
  // window_start -> groups. std::map keeps window flush order deterministic
  // and its nodes stable, so a cursor's table pointer survives inserts of
  // other windows.
  std::map<Micros, GroupTable> windows_;
  ser::BufferWriter key_buf_;  // reused across records; never shrinks

  // Checkpoint delta bookkeeping, active only once ExportStateDelta has been
  // called (no cost and no unbounded growth in non-checkpointed runs).
  bool delta_tracking_ = false;
  std::set<Micros> dirty_windows_;    // changed since the previous export
  std::set<Micros> flushed_windows_;  // discarded since the previous export
  ser::BufferWriter section_buf_;     // reused section scratch
};

}  // namespace jarvis::stream

#endif  // JARVIS_STREAM_GROUP_AGGREGATE_H_
