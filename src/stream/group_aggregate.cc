#include "stream/group_aggregate.h"

#include <algorithm>
#include <numeric>

#include "common/logging.h"
#include "ser/buffer.h"

namespace jarvis::stream {

namespace {

/// Decodes the AppendKeyValue byte encoding ([u8 type][payload] per
/// component) back into key column values, appending them to `keys`.
Status DecodeEncodedKeys(std::string_view key, std::vector<Value>* keys) {
  ser::BufferReader kr(reinterpret_cast<const uint8_t*>(key.data()),
                       key.size());
  while (!kr.AtEnd()) {
    uint8_t type = 0;
    JARVIS_RETURN_IF_ERROR(kr.GetU8(&type));
    switch (static_cast<ValueType>(type)) {
      case ValueType::kInt64: {
        uint64_t v = 0;
        JARVIS_RETURN_IF_ERROR(kr.GetU64(&v));
        keys->emplace_back(static_cast<int64_t>(v));
        break;
      }
      case ValueType::kDouble: {
        double v = 0.0;
        JARVIS_RETURN_IF_ERROR(kr.GetDouble(&v));
        keys->emplace_back(v);
        break;
      }
      case ValueType::kString: {
        std::string v;
        JARVIS_RETURN_IF_ERROR(kr.GetString(&v));
        keys->emplace_back(std::move(v));
        break;
      }
      default:
        return Status::SerializationError("bad key type tag in checkpoint");
    }
  }
  return Status::OK();
}

}  // namespace

std::string_view AggKindToString(AggKind kind) {
  switch (kind) {
    case AggKind::kCount:
      return "count";
    case AggKind::kSum:
      return "sum";
    case AggKind::kAvg:
      return "avg";
    case AggKind::kMin:
      return "min";
    case AggKind::kMax:
      return "max";
  }
  return "?";
}

void GroupAggregateOp::Acc::AddValue(double v) {
  if (count == 0) {
    min = v;
    max = v;
  } else {
    min = std::min(min, v);
    max = std::max(max, v);
  }
  count += 1;
  sum += v;
}

void GroupAggregateOp::Acc::Merge(const Acc& other) {
  if (other.count == 0) return;
  if (count == 0) {
    *this = other;
    return;
  }
  min = std::min(min, other.min);
  max = std::max(max, other.max);
  count += other.count;
  sum += other.sum;
}

Value GroupAggregateOp::Acc::Finalize(AggKind kind) const {
  switch (kind) {
    case AggKind::kCount:
      return Value(count);
    case AggKind::kSum:
      return Value(sum);
    case AggKind::kAvg:
      return Value(count == 0 ? 0.0 : sum / static_cast<double>(count));
    case AggKind::kMin:
      return Value(min);
    case AggKind::kMax:
      return Value(max);
  }
  return Value(int64_t{0});
}

Schema GroupAggregateOp::MakeOutputSchema(const Schema& input,
                                          const std::vector<size_t>& keys,
                                          const std::vector<AggSpec>& aggs) {
  std::vector<Schema::Field> fields;
  fields.reserve(keys.size() + aggs.size());
  for (size_t k : keys) fields.push_back(input.field(k));
  for (const AggSpec& a : aggs) {
    ValueType t =
        a.kind == AggKind::kCount ? ValueType::kInt64 : ValueType::kDouble;
    fields.push_back({a.out_name, t});
  }
  return Schema(std::move(fields));
}

GroupAggregateOp::GroupAggregateOp(std::string name,
                                   const Schema& input_schema,
                                   std::vector<size_t> key_fields,
                                   std::vector<AggSpec> aggs,
                                   Micros window_width, bool emit_partials)
    : Operator(std::move(name),
               MakeOutputSchema(input_schema, key_fields, aggs)),
      key_fields_(std::move(key_fields)),
      aggs_(std::move(aggs)),
      window_width_(window_width),
      emit_partials_(emit_partials) {}

void GroupAggregateOp::AppendKeyValue(const Value& v) {
  key_buf_.PutU8(static_cast<uint8_t>(TypeOf(v)));
  switch (TypeOf(v)) {
    case ValueType::kInt64:
      key_buf_.PutU64(static_cast<uint64_t>(std::get<int64_t>(v)));
      break;
    case ValueType::kDouble:
      key_buf_.PutDouble(std::get<double>(v));
      break;
    case ValueType::kString:
      key_buf_.PutString(std::get<std::string>(v));
      break;
  }
}

uint32_t GroupAggregateOp::GroupTable::FindOrInsert(std::string_view key) {
  // The frame checksum doubles as the key hash: it mixes every byte through
  // a full-avalanche finalizer, so its low bits index the slot array well.
  const uint32_t hash = ser::FrameChecksum(
      reinterpret_cast<const uint8_t*>(key.data()), key.size());
  const size_t mask = slots_.size() - 1;
  for (size_t i = hash & mask;; i = (i + 1) & mask) {
    Slot& slot = slots_[i];
    if (slot.id == kEmpty) {
      const auto id = static_cast<uint32_t>(size());
      slot = {hash, id};
      arena_.insert(arena_.end(), key.begin(), key.end());
      key_offsets_.push_back(arena_.size());
      accs_.resize(accs_.size() + naggs_);
      if (2 * size() > slots_.size()) Rehash(2 * slots_.size());
      return id;
    }
    if (slot.hash == hash && this->key(slot.id) == key) return slot.id;
  }
}

void GroupAggregateOp::GroupTable::Rehash(size_t capacity) {
  std::vector<Slot> slots(capacity, Slot{0, kEmpty});
  const size_t mask = capacity - 1;
  for (const Slot& s : slots_) {
    if (s.id == kEmpty) continue;
    size_t i = s.hash & mask;
    while (slots[i].id != kEmpty) i = (i + 1) & mask;
    slots[i] = s;
  }
  slots_.swap(slots);
}

std::vector<uint32_t> GroupAggregateOp::GroupTable::SortedIds() const {
  std::vector<uint32_t> ids(size());
  std::iota(ids.begin(), ids.end(), uint32_t{0});
  // string_view compares bytes as unsigned char, shorter prefix first. This
  // order is part of the result order and the checkpoint format.
  std::sort(ids.begin(), ids.end(),
            [this](uint32_t a, uint32_t b) { return key(a) < key(b); });
  return ids;
}

void GroupAggregateOp::SeekWindow(Micros window_start, WindowCursor* cursor) {
  if (cursor->groups != nullptr && cursor->window_start == window_start) {
    return;
  }
  cursor->groups =
      &windows_.try_emplace(window_start, aggs_.size()).first->second;
  cursor->window_start = window_start;
  MarkDirty(window_start);
}

GroupAggregateOp::Acc* GroupAggregateOp::CurrentGroup(
    const WindowCursor& cursor) {
  const std::string_view key(
      reinterpret_cast<const char*>(key_buf_.data().data()), key_buf_.size());
  return cursor.groups->accs(cursor.groups->FindOrInsert(key));
}

Status GroupAggregateOp::UpdateFromData(const Record& rec,
                                        WindowCursor* cursor) {
  if (rec.window_start < 0) {
    return Status::FailedPrecondition(
        "GroupAggregate requires windowed input (no window_start)");
  }
  key_buf_.Clear();
  for (size_t k : key_fields_) {
    if (k >= rec.fields.size()) {
      return Status::OutOfRange("group key index out of range");
    }
    AppendKeyValue(rec.fields[k]);
  }
  SeekWindow(rec.window_start, cursor);
  Acc* accs = CurrentGroup(*cursor);
  for (size_t i = 0; i < aggs_.size(); ++i) {
    const AggSpec& a = aggs_[i];
    if (a.kind == AggKind::kCount) {
      accs[i].AddValue(0.0);
    } else {
      if (a.field >= rec.fields.size()) {
        return Status::OutOfRange("aggregate field index out of range");
      }
      accs[i].AddValue(rec.AsDouble(a.field));
    }
  }
  return Status::OK();
}

Status GroupAggregateOp::MergeFromPartial(const Record& rec,
                                          WindowCursor* cursor) {
  // Partial layout: keys..., then per agg: count(i64), sum(f64), min(f64),
  // max(f64).
  const size_t nk = key_fields_.size();
  const size_t expected = nk + 4 * aggs_.size();
  if (rec.fields.size() != expected) {
    return Status::SerializationError("partial record arity mismatch");
  }
  key_buf_.Clear();
  for (size_t k = 0; k < nk; ++k) AppendKeyValue(rec.fields[k]);
  SeekWindow(rec.window_start, cursor);
  Acc* accs = CurrentGroup(*cursor);
  for (size_t i = 0; i < aggs_.size(); ++i) {
    Acc other;
    other.count = std::get<int64_t>(rec.fields[nk + 4 * i]);
    other.sum = std::get<double>(rec.fields[nk + 4 * i + 1]);
    other.min = std::get<double>(rec.fields[nk + 4 * i + 2]);
    other.max = std::get<double>(rec.fields[nk + 4 * i + 3]);
    accs[i].Merge(other);
  }
  return Status::OK();
}

Status GroupAggregateOp::DoProcess(RecordBatch* batch) {
  WindowCursor cursor;
  for (const Record& rec : *batch) {
    if (rec.kind == RecordKind::kPartial) {
      JARVIS_RETURN_IF_ERROR(MergeFromPartial(rec, &cursor));
    } else {
      JARVIS_RETURN_IF_ERROR(UpdateFromData(rec, &cursor));
    }
  }
  batch->clear();
  return Status::OK();
}

void GroupAggregateOp::EmitWindow(Micros window_start,
                                  const GroupTable& groups, RecordBatch* out) {
  GrowForAppend(out, groups.size());
  const size_t arity =
      key_fields_.size() + aggs_.size() * (emit_partials_ ? 4 : 1);
  for (uint32_t id : groups.SortedIds()) {
    Record r;
    r.event_time = window_start + window_width_;
    r.window_start = window_start;
    r.fields.reserve(arity);
    // Table keys were encoded by AppendKeyValue or validated on restore.
    JARVIS_CHECK(DecodeEncodedKeys(groups.key(id), &r.fields).ok());
    const Acc* accs = groups.accs(id);
    if (emit_partials_) {
      r.kind = RecordKind::kPartial;
      for (size_t i = 0; i < aggs_.size(); ++i) {
        r.fields.emplace_back(accs[i].count);
        r.fields.emplace_back(accs[i].sum);
        r.fields.emplace_back(accs[i].min);
        r.fields.emplace_back(accs[i].max);
      }
    } else {
      r.kind = RecordKind::kData;
      for (size_t i = 0; i < aggs_.size(); ++i) {
        r.fields.push_back(accs[i].Finalize(aggs_[i].kind));
      }
    }
    out->push_back(std::move(r));
  }
}

Status GroupAggregateOp::OnWatermark(Micros wm, RecordBatch* out) {
  const size_t first = out->size();
  auto it = windows_.begin();
  while (it != windows_.end() && it->first + window_width_ <= wm) {
    if (delta_tracking_) {
      flushed_windows_.insert(it->first);
      dirty_windows_.erase(it->first);
    }
    EmitWindow(it->first, it->second, out);
    it = windows_.erase(it);
  }
  CountOutputs(*out, first);
  return Status::OK();
}

Status GroupAggregateOp::ExportPartialState(RecordBatch* out) {
  const size_t first = out->size();
  const bool saved = emit_partials_;
  emit_partials_ = true;
  for (auto& [start, groups] : windows_) {
    if (delta_tracking_) {
      flushed_windows_.insert(start);
      dirty_windows_.erase(start);
    }
    EmitWindow(start, groups, out);
  }
  emit_partials_ = saved;
  windows_.clear();
  CountOutputs(*out, first);
  return Status::OK();
}

void GroupAggregateOp::WriteWindowSection(ser::BufferWriter* w,
                                          Micros window_start,
                                          const GroupTable& groups) {
  section_buf_.Clear();
  section_buf_.PutVarU64(groups.size());
  for (uint32_t id : groups.SortedIds()) {
    const std::string_view key = groups.key(id);
    section_buf_.PutVarU64(key.size());
    section_buf_.PutBytes(reinterpret_cast<const uint8_t*>(key.data()),
                          key.size());
    const Acc* accs = groups.accs(id);
    for (size_t i = 0; i < aggs_.size(); ++i) {
      section_buf_.PutVarI64(accs[i].count);
      section_buf_.PutDouble(accs[i].sum);
      section_buf_.PutDouble(accs[i].min);
      section_buf_.PutDouble(accs[i].max);
    }
  }
  w->PutVarI64(window_start);
  w->PutVarU64(section_buf_.size());
  w->PutBytes(section_buf_.data().data(), section_buf_.size());
}

Status GroupAggregateOp::ExportStateDelta(ser::BufferWriter* w,
                                          StateExport mode) {
  // Before the first export there is no "previous export" to delta against,
  // so a delta request degenerates to a full keyframe.
  const bool full = mode == StateExport::kFull || !delta_tracking_;
  delta_tracking_ = true;
  if (full) {
    w->PutVarU64(0);  // a keyframe re-encodes everything; no tombstones
    w->PutVarU64(windows_.size());
    for (const auto& [start, groups] : windows_) {
      WriteWindowSection(w, start, groups);
    }
  } else {
    w->PutVarU64(flushed_windows_.size());
    for (Micros start : flushed_windows_) w->PutVarI64(start);
    size_t n_sections = 0;
    for (Micros start : dirty_windows_) {
      n_sections += windows_.count(start) != 0 ? 1 : 0;
    }
    w->PutVarU64(n_sections);
    for (Micros start : dirty_windows_) {
      auto it = windows_.find(start);
      if (it != windows_.end()) WriteWindowSection(w, start, it->second);
    }
  }
  flushed_windows_.clear();
  dirty_windows_.clear();
  return Status::OK();
}

Status GroupAggregateOp::RestoreState(ser::BufferReader* r) {
  uint64_t n_tombstones = 0;
  JARVIS_RETURN_IF_ERROR(r->GetVarU64(&n_tombstones));
  for (uint64_t i = 0; i < n_tombstones; ++i) {
    int64_t start = 0;
    JARVIS_RETURN_IF_ERROR(r->GetVarI64(&start));
    windows_.erase(start);
    dirty_windows_.erase(start);
    flushed_windows_.erase(start);
  }
  uint64_t n_sections = 0;
  JARVIS_RETURN_IF_ERROR(r->GetVarU64(&n_sections));
  std::vector<Value> keys;  // decode scratch: validates each restored key
  for (uint64_t i = 0; i < n_sections; ++i) {
    int64_t start = 0;
    JARVIS_RETURN_IF_ERROR(r->GetVarI64(&start));
    uint64_t len = 0;
    JARVIS_RETURN_IF_ERROR(r->GetVarU64(&len));
    if (len > r->remaining()) {
      return Status::SerializationError("window section overruns checkpoint");
    }
    ser::BufferReader section(r->cursor(), len);
    r->Advance(len);
    uint64_t n_groups = 0;
    JARVIS_RETURN_IF_ERROR(section.GetVarU64(&n_groups));
    GroupTable groups(aggs_.size());
    for (uint64_t gi = 0; gi < n_groups; ++gi) {
      uint64_t klen = 0;
      JARVIS_RETURN_IF_ERROR(section.GetVarU64(&klen));
      if (klen > section.remaining()) {
        return Status::SerializationError("group key overruns window section");
      }
      const std::string_view key(
          reinterpret_cast<const char*>(section.cursor()), klen);
      section.Advance(klen);
      keys.clear();
      JARVIS_RETURN_IF_ERROR(DecodeEncodedKeys(key, &keys));
      if (keys.size() != key_fields_.size()) {
        return Status::SerializationError("group key arity mismatch");
      }
      const size_t before = groups.size();
      Acc* accs = groups.accs(groups.FindOrInsert(key));
      if (groups.size() == before) {
        return Status::SerializationError(
            "duplicate group key in window section");
      }
      for (size_t i = 0; i < aggs_.size(); ++i) {
        JARVIS_RETURN_IF_ERROR(section.GetVarI64(&accs[i].count));
        JARVIS_RETURN_IF_ERROR(section.GetDouble(&accs[i].sum));
        JARVIS_RETURN_IF_ERROR(section.GetDouble(&accs[i].min));
        JARVIS_RETURN_IF_ERROR(section.GetDouble(&accs[i].max));
      }
    }
    if (!section.AtEnd()) {
      return Status::SerializationError("trailing bytes in window section");
    }
    windows_.insert_or_assign(start, std::move(groups));
    dirty_windows_.erase(start);
    flushed_windows_.erase(start);
  }
  return Status::OK();
}

}  // namespace jarvis::stream
