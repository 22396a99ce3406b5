#include "core/control_proxy.h"

#include <algorithm>
#include <utility>

namespace jarvis::core {

void BatchFifo::Append(stream::RecordBatch&& batch) {
  if (batch.empty()) return;
  size_ += batch.size();
  chunks_.push_back(std::move(batch));
}

void BatchFifo::TakeFront(size_t n, stream::RecordBatch* out) {
  n = std::min(n, size_);
  if (n == 0) return;
  size_ -= n;
  if (head_ == 0 && n == chunks_.front().size() && out->empty()) {
    std::swap(*out, chunks_.front());
    chunks_.pop_front();
    return;
  }
  stream::GrowForAppend(out, n);
  while (n > 0) {
    stream::RecordBatch& front = chunks_.front();
    const size_t take = std::min(n, front.size() - head_);
    for (size_t k = head_; k < head_ + take; ++k) {
      out->push_back(std::move(front[k]));
    }
    head_ += take;
    n -= take;
    if (head_ == front.size()) {
      chunks_.pop_front();
      head_ = 0;
    }
  }
  if (head_ == 0) return;
  // A standing backlog must not pin a mostly consumed chunk: once more than
  // half of the front chunk is gone, move the rest into a right-sized buffer.
  stream::RecordBatch& front = chunks_.front();
  if (head_ * 2 <= front.size()) return;
  stream::RecordBatch rest;
  rest.reserve(front.size() - head_);
  for (size_t k = head_; k < front.size(); ++k) {
    rest.push_back(std::move(front[k]));
  }
  front = std::move(rest);
  head_ = 0;
}

void BatchFifo::CopyTo(stream::RecordBatch* out) const {
  stream::GrowForAppend(out, size_);
  size_t skip = head_;
  for (const stream::RecordBatch& chunk : chunks_) {
    out->insert(out->end(), chunk.begin() + static_cast<ptrdiff_t>(skip),
                chunk.end());
    skip = 0;
  }
}

void BatchFifo::Clear() {
  chunks_.clear();
  head_ = 0;
  size_ = 0;
}

void ControlProxy::set_load_factor(double p) {
  load_factor_ = std::clamp(p, 0.0, 1.0);
}

bool ControlProxy::Route() {
  arrived_ += 1;
  route_accum_ += load_factor_;
  // A small epsilon absorbs floating point drift so p == 1.0 forwards every
  // record.
  if (route_accum_ >= 1.0 - 1e-9) {
    route_accum_ -= 1.0;
    forwarded_ += 1;
    return true;
  }
  drained_ += 1;
  return false;
}

void ControlProxy::RouteBatch(stream::RecordBatch&& batch,
                              stream::RecordBatch* drained) {
  const size_t n = batch.size();
  if (n == 0) return;
  // Nothing moves while the decisions agree with the first one.
  const bool lead = Route();
  size_t k = 1;
  while (k < n && Route() == lead) ++k;
  if (k == n) {
    if (lead) {
      queue_.Append(std::move(batch));
    } else {
      stream::MoveAppend(std::move(batch), drained);
    }
    return;
  }
  // Mixed batch: record k went the other way (its Route() call ran in the
  // loop above); from there on each record is placed as it is routed. Error
  // diffusion forwards at most m*p + 1 of the next m arrivals, which sizes
  // the forwarded chunk.
  stream::RecordBatch forwarded;
  forwarded.reserve(std::min(
      n, (lead ? k : 0) +
             static_cast<size_t>(static_cast<double>(n - k) * load_factor_) +
             2));
  stream::RecordBatch* lead_out = lead ? &forwarded : drained;
  stream::RecordBatch* other_out = lead ? drained : &forwarded;
  for (size_t j = 0; j < k; ++j) lead_out->push_back(std::move(batch[j]));
  other_out->push_back(std::move(batch[k]));
  for (size_t j = k + 1; j < n; ++j) {
    (Route() ? forwarded : *drained).push_back(std::move(batch[j]));
  }
  queue_.Append(std::move(forwarded));
}

void ControlProxy::BeginEpoch() {
  arrived_ = 0;
  forwarded_ = 0;
  drained_ = 0;
  processed_ = 0;
}

ProxyObservation ControlProxy::Observe() const {
  ProxyObservation obs;
  obs.arrived = arrived_;
  obs.forwarded = forwarded_;
  obs.drained = drained_;
  obs.processed = processed_;
  obs.pending = queue_.size();
  obs.load_factor = load_factor_;
  return obs;
}

}  // namespace jarvis::core
