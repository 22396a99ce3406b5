#include "stream/join.h"

#include "ser/buffer.h"

namespace jarvis::stream {

JoinOp::JoinOp(std::string name, const Schema& input_schema,
               std::shared_ptr<const StaticTable> table,
               size_t stream_key_field)
    : Operator(std::move(name), input_schema.Append(table->value_field())),
      table_(std::move(table)),
      stream_key_field_(stream_key_field) {}

Status JoinOp::DoProcess(RecordBatch* batch) {
  // Stable compaction over table misses; hits grow by the table value.
  size_t w = 0;
  for (size_t r = 0; r < batch->size(); ++r) {
    Record& rec = (*batch)[r];
    if (rec.kind != RecordKind::kPartial) {
      if (stream_key_field_ >= rec.fields.size()) {
        return Status::OutOfRange("join key index out of range");
      }
      const Value* v = table_->Find(rec.i64(stream_key_field_));
      if (v == nullptr) {
        misses_ += 1;
        continue;
      }
      rec.fields.push_back(*v);
    }
    if (w != r) (*batch)[w] = std::move(rec);
    ++w;
  }
  batch->resize(w);
  return Status::OK();
}

Status JoinOp::ExportStateDelta(ser::BufferWriter* w, StateExport mode) {
  w->PutVarU64(0);  // no tombstones: the counter is replaced, never dropped
  if (mode == StateExport::kFull || misses_ != exported_misses_) {
    w->PutVarU64(1);
    w->PutVarI64(0);  // section key 0: the miss counter
    ser::BufferWriter section;
    section.PutVarU64(misses_);
    w->PutVarU64(section.size());
    w->PutBytes(section.data().data(), section.size());
  } else {
    w->PutVarU64(0);
  }
  exported_misses_ = misses_;
  return Status::OK();
}

Status JoinOp::RestoreState(ser::BufferReader* r) {
  uint64_t n_tombstones = 0;
  JARVIS_RETURN_IF_ERROR(r->GetVarU64(&n_tombstones));
  if (n_tombstones != 0) {
    return Status::SerializationError("join state has no tombstones");
  }
  uint64_t n_sections = 0;
  JARVIS_RETURN_IF_ERROR(r->GetVarU64(&n_sections));
  for (uint64_t i = 0; i < n_sections; ++i) {
    int64_t key = 0;
    JARVIS_RETURN_IF_ERROR(r->GetVarI64(&key));
    uint64_t len = 0;
    JARVIS_RETURN_IF_ERROR(r->GetVarU64(&len));
    if (len > r->remaining()) {
      return Status::SerializationError("join state section overruns");
    }
    if (key != 0) {
      return Status::SerializationError("unknown join state section");
    }
    ser::BufferReader section(r->cursor(), len);
    r->Advance(len);
    uint64_t misses = 0;
    JARVIS_RETURN_IF_ERROR(section.GetVarU64(&misses));
    if (!section.AtEnd()) {
      return Status::SerializationError("trailing bytes in join state");
    }
    misses_ = misses;
    exported_misses_ = misses;
  }
  return Status::OK();
}

}  // namespace jarvis::stream
