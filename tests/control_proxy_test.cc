#include <gtest/gtest.h>

#include <algorithm>
#include <deque>

#include "core/control_proxy.h"
#include "testing/test_util.h"

namespace jarvis::core {
namespace {

TEST(ControlProxyTest, ZeroLoadFactorDrainsEverything) {
  ControlProxy p(0);
  p.set_load_factor(0.0);
  for (int i = 0; i < 100; ++i) EXPECT_FALSE(p.Route());
  ProxyObservation obs = p.Observe();
  EXPECT_EQ(obs.arrived, 100u);
  EXPECT_EQ(obs.drained, 100u);
  EXPECT_EQ(obs.forwarded, 0u);
}

TEST(ControlProxyTest, FullLoadFactorForwardsEverything) {
  ControlProxy p(0);
  p.set_load_factor(1.0);
  for (int i = 0; i < 100; ++i) EXPECT_TRUE(p.Route());
  EXPECT_EQ(p.Observe().forwarded, 100u);
}

TEST(ControlProxyTest, FractionalRoutingIsExact) {
  // Error-diffusion routing: after n arrivals, forwarded == round(n*p) +- 1.
  for (double lf : {0.1, 0.25, 0.5, 0.83, 0.99}) {
    ControlProxy p(0);
    p.set_load_factor(lf);
    int fwd = 0;
    const int n = 10000;
    for (int i = 0; i < n; ++i) fwd += p.Route() ? 1 : 0;
    EXPECT_NEAR(fwd, n * lf, 1.0) << "lf=" << lf;
  }
}

TEST(ControlProxyTest, RoutingIsDeterministic) {
  ControlProxy a(0), b(0);
  a.set_load_factor(0.37);
  b.set_load_factor(0.37);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.Route(), b.Route());
}

TEST(ControlProxyTest, LoadFactorClamped) {
  ControlProxy p(0);
  p.set_load_factor(1.5);
  EXPECT_EQ(p.load_factor(), 1.0);
  p.set_load_factor(-0.5);
  EXPECT_EQ(p.load_factor(), 0.0);
}

TEST(ControlProxyTest, BeginEpochResetsCountersNotQueue) {
  ControlProxy p(0);
  p.set_load_factor(1.0);
  p.Route();
  p.queue().Append(stream::RecordBatch{stream::Record{}});
  p.BeginEpoch();
  ProxyObservation obs = p.Observe();
  EXPECT_EQ(obs.arrived, 0u);
  EXPECT_EQ(obs.pending, 1u);  // queue contents persist across epochs
}

TEST(ControlProxyTest, ProcessedCounting) {
  ControlProxy p(3);
  p.CountProcessed(5);
  p.CountProcessed(2);
  EXPECT_EQ(p.Observe().processed, 7u);
  EXPECT_EQ(p.op_index(), 3u);
}

TEST(ControlProxyTest, MidEpochLoadFactorChangeApplies) {
  ControlProxy p(0);
  p.set_load_factor(0.0);
  for (int i = 0; i < 10; ++i) p.Route();
  p.set_load_factor(1.0);
  int fwd = 0;
  for (int i = 0; i < 10; ++i) fwd += p.Route() ? 1 : 0;
  EXPECT_EQ(fwd, 10);
}

// ---------------------------------------------------------------------------
// The proxy's queue is a FIFO of whole batches (BatchFifo). These tests hold
// it to a per-record std::deque reference.
// ---------------------------------------------------------------------------

stream::Record Tagged(int64_t seq) {
  return stream::Record(seq, {stream::Value(seq)});
}

TEST(BatchFifoTest, AppendTakesTheBufferAndWholeTakeHandsItOver) {
  BatchFifo q;
  stream::RecordBatch batch = {Tagged(1), Tagged(2), Tagged(3)};
  const stream::Record* buffer = batch.data();
  q.Append(std::move(batch));
  EXPECT_EQ(batch.capacity(), 0u);
  EXPECT_EQ(q.size(), 3u);
  stream::RecordBatch out;
  q.TakeFront(3, &out);
  EXPECT_EQ(out.data(), buffer);  // O(1) hand-off, no record moved
  EXPECT_TRUE(q.empty());
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[2].event_time, 3);
}

class BatchFifoPropertyTest : public jarvis::testing::SeededTest {};

TEST_F(BatchFifoPropertyTest, MatchesDequeReference) {
  // Random Append (empty batches included), partial, whole-chunk,
  // cross-chunk and whole-queue takes, checked after every step against a
  // per-record deque. `chunk_left` models how many untaken records each
  // appended batch still holds, which is what lets the test aim a take at
  // exactly the front chunk or just past it.
  ControlProxy p(0);
  BatchFifo& q = p.queue();
  std::deque<stream::Record> ref;
  std::deque<size_t> chunk_left;
  int64_t next_seq = 0;
  stream::RecordBatch out;
  for (int step = 0; step < 4000; ++step) {
    const int64_t op = rng().NextInRange(0, 9);
    if (op < 4 || ref.empty()) {
      // Append a batch of 0..60 records.
      const int64_t n = rng().NextInRange(0, op == 0 ? 0 : 60);
      stream::RecordBatch batch;
      for (int64_t k = 0; k < n; ++k) {
        batch.push_back(Tagged(next_seq));
        ref.push_back(Tagged(next_seq));
        ++next_seq;
      }
      if (n > 0) chunk_left.push_back(static_cast<size_t>(n));
      q.Append(std::move(batch));
    } else {
      size_t n = 0;
      const size_t front = chunk_left.front();
      switch (op) {
        case 4:  // partial take of the front chunk
        case 5:
          n = static_cast<size_t>(
              rng().NextInRange(1, static_cast<int64_t>(front)));
          break;
        case 6:  // exactly the front chunk
          n = front;
          break;
        case 7:  // across chunk boundaries
          n = static_cast<size_t>(rng().NextInRange(
              static_cast<int64_t>(std::min(front + 1, ref.size())),
              static_cast<int64_t>(ref.size())));
          break;
        case 8:  // drain the whole queue
          n = ref.size();
          break;
        default:  // more than is queued: clamps
          n = ref.size() + 3;
          break;
      }
      // Half the takes land in an empty output, half after existing records.
      out.clear();
      const bool prefill = rng().NextInRange(0, 1) == 1;
      if (prefill) out.push_back(Tagged(-1));
      q.TakeFront(n, &out);
      const size_t taken = std::min(n, ref.size());
      const size_t first = prefill ? 1 : 0;
      ASSERT_EQ(out.size(), first + taken) << "step " << step;
      if (prefill) {
        EXPECT_EQ(out.front().event_time, -1);
      }
      for (size_t k = 0; k < taken; ++k) {
        ASSERT_EQ(out[first + k], ref.front()) << "step " << step;
        ref.pop_front();
      }
      for (size_t left = taken; left > 0;) {
        const size_t c = std::min(left, chunk_left.front());
        chunk_left.front() -= c;
        left -= c;
        if (chunk_left.front() == 0) chunk_left.pop_front();
      }
    }
    ASSERT_EQ(q.size(), ref.size()) << "step " << step;
    ASSERT_EQ(q.empty(), ref.empty());
    ASSERT_EQ(p.Observe().pending, ref.size()) << "step " << step;
    if (step % 50 == 0) {
      stream::RecordBatch copy;
      q.CopyTo(&copy);
      ASSERT_TRUE(std::equal(copy.begin(), copy.end(), ref.begin(),
                             ref.end()))
          << "step " << step;
    }
  }
}

TEST_F(BatchFifoPropertyTest, RouteBatchMatchesPerRecordRoute) {
  // RouteBatch must make Route()'s decisions one for one, move whole
  // batches when every decision agrees, and keep arrival order on both
  // sides; load factors 0 and 1 exercise the whole-batch paths.
  ControlProxy batched(0), single(0);
  std::deque<stream::Record> ref_queue;
  stream::RecordBatch ref_drained;
  int64_t next_seq = 0;
  for (int round = 0; round < 300; ++round) {
    const int64_t pick = rng().NextInRange(0, 3);
    const double lf = pick == 0   ? 0.0
                      : pick == 1 ? 1.0
                                  : rng().NextDouble();
    batched.set_load_factor(lf);
    single.set_load_factor(lf);
    const int64_t n = rng().NextInRange(0, 80);
    stream::RecordBatch batch;
    for (int64_t k = 0; k < n; ++k) {
      const stream::Record rec = Tagged(next_seq++);
      batch.push_back(rec);
      if (single.Route()) {
        ref_queue.push_back(rec);
      } else {
        ref_drained.push_back(rec);
      }
    }
    stream::RecordBatch drained;
    batched.RouteBatch(std::move(batch), &drained);
    ASSERT_EQ(drained, ref_drained) << "round " << round << " lf " << lf;
    ref_drained.clear();
    if (rng().NextInRange(0, 2) == 0) {
      const size_t take = static_cast<size_t>(
          rng().NextInRange(0, static_cast<int64_t>(ref_queue.size())));
      stream::RecordBatch out;
      batched.queue().TakeFront(take, &out);
      ASSERT_EQ(out.size(), take);
      for (const stream::Record& rec : out) {
        ASSERT_EQ(rec, ref_queue.front()) << "round " << round;
        ref_queue.pop_front();
      }
    }
    const ProxyObservation a = batched.Observe();
    const ProxyObservation b = single.Observe();
    ASSERT_EQ(a.arrived, b.arrived);
    ASSERT_EQ(a.forwarded, b.forwarded);
    ASSERT_EQ(a.drained, b.drained);
    ASSERT_EQ(a.pending, ref_queue.size());
  }
}

}  // namespace
}  // namespace jarvis::core
