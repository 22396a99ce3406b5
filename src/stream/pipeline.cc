#include "stream/pipeline.h"

namespace jarvis::stream {

Status Pipeline::PushBatch(RecordBatch&& batch, RecordBatch* out) {
  return PushBatchFrom(0, std::move(batch), out);
}

Status Pipeline::PushBatchFrom(size_t start, RecordBatch&& batch,
                               RecordBatch* out) {
  for (size_t i = start; i < ops_.size() && !batch.empty(); ++i) {
    JARVIS_RETURN_IF_ERROR(ops_[i]->Process(&batch));
  }
  MoveAppend(std::move(batch), out);
  return Status::OK();
}

Status Pipeline::OnWatermark(Micros wm, RecordBatch* out) {
  // Records emitted by upstream operators' window closures are processed
  // first; this operator's own emissions are appended after them.
  RecordBatch carried;
  for (OperatorPtr& op : ops_) {
    if (!carried.empty()) JARVIS_RETURN_IF_ERROR(op->Process(&carried));
    JARVIS_RETURN_IF_ERROR(op->OnWatermark(wm, &carried));
  }
  MoveAppend(std::move(carried), out);
  return Status::OK();
}

Status Pipeline::Flush(RecordBatch* out) {
  RecordBatch carried;
  for (OperatorPtr& op : ops_) {
    if (!carried.empty()) JARVIS_RETURN_IF_ERROR(op->Process(&carried));
    JARVIS_RETURN_IF_ERROR(op->ExportPartialState(&carried));
  }
  MoveAppend(std::move(carried), out);
  return Status::OK();
}

void Pipeline::ResetStats() {
  for (auto& op : ops_) op->ResetStats();
}

}  // namespace jarvis::stream
