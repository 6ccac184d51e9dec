// The engine's admission queue with QoS off (a qos::FairQueue built from
// a default QosConfig: one lane): bounded admission, FIFO batching pops,
// shutdown semantics, and MPMC safety.
#include "service/queue.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "qos/fair_queue.hpp"
#include "service/batcher.hpp"

namespace pslocal::service {
namespace {

Admission push(qos::FairQueue& q, Pending&& pending) {
  return q.admit(std::move(pending)).admission;
}

Pending make_pending(std::uint64_t id, std::uint64_t key_seed = 0) {
  Pending p;
  p.request.id = id;
  // instance_hash feeds cache_key; vary it to control batch grouping.
  p.request.instance_hash = key_seed == 0 ? 1 : key_seed;
  return p;
}

TEST(ServiceQueueTest, AdmitsUpToCapacityThenRejectsDeterministically) {
  qos::FairQueue q(qos::QosConfig{}, 3);
  for (std::uint64_t i = 0; i < 3; ++i)
    EXPECT_EQ(push(q, make_pending(i)), Admission::kAccepted);
  // Queue full and nothing draining: every further push is rejected.
  for (std::uint64_t i = 3; i < 8; ++i)
    EXPECT_EQ(push(q, make_pending(i)), Admission::kQueueFull);
  EXPECT_EQ(q.depth(), 3u);
}

TEST(ServiceQueueTest, PopBatchIsFifoAndBounded) {
  qos::FairQueue q(qos::QosConfig{}, 8);
  for (std::uint64_t i = 0; i < 5; ++i)
    ASSERT_EQ(push(q, make_pending(i)), Admission::kAccepted);
  std::vector<Pending> out;
  EXPECT_EQ(q.pop_batch(out, 3), 3u);
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0].request.id, 0u);
  EXPECT_EQ(out[2].request.id, 2u);
  EXPECT_EQ(q.pop_batch(out, 3), 2u);  // appends the remaining two
  ASSERT_EQ(out.size(), 5u);
  EXPECT_EQ(out[4].request.id, 4u);
}

TEST(ServiceQueueTest, ShutdownRejectsPushesAndWakesConsumers) {
  qos::FairQueue q(qos::QosConfig{}, 4);
  ASSERT_EQ(push(q, make_pending(0)), Admission::kAccepted);
  std::thread consumer([&q] {
    std::vector<Pending> out;
    // First pop gets the queued item; second observes shutdown-and-empty.
    EXPECT_EQ(q.pop_batch(out, 4), 1u);
    EXPECT_EQ(q.pop_batch(out, 4), 0u);
  });
  q.shutdown();
  consumer.join();
  EXPECT_EQ(push(q, make_pending(1)), Admission::kShutdown);
}

TEST(ServiceQueueTest, DrainMovesEverythingWithoutBlocking) {
  qos::FairQueue q(qos::QosConfig{}, 4);
  for (std::uint64_t i = 0; i < 4; ++i)
    ASSERT_EQ(push(q, make_pending(i)), Admission::kAccepted);
  q.shutdown();
  std::vector<Pending> out;
  EXPECT_EQ(q.drain(out), 4u);
  EXPECT_EQ(q.depth(), 0u);
  EXPECT_EQ(q.drain(out), 0u);
}

TEST(ServiceQueueTest, ConcurrentProducersConsumersLoseNothing) {
  qos::FairQueue q(qos::QosConfig{}, 16);
  constexpr std::uint64_t kPerProducer = 400;
  constexpr int kProducers = 3;
  std::atomic<std::uint64_t> popped{0};
  std::atomic<bool> done{false};
  std::vector<std::thread> consumers;
  for (int c = 0; c < 2; ++c) {
    consumers.emplace_back([&] {
      std::vector<Pending> out;
      while (!done.load() || q.depth() > 0) {
        out.clear();
        const std::size_t got = q.pop_batch(out, 8);
        popped.fetch_add(got);
        if (got == 0) return;  // shutdown and empty
      }
    });
  }
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&q, p] {
      for (std::uint64_t i = 0; i < kPerProducer; ++i) {
        Pending pending =
            make_pending(static_cast<std::uint64_t>(p) * kPerProducer + i);
        while (push(q, std::move(pending)) != Admission::kAccepted)
          std::this_thread::yield();
      }
    });
  }
  for (auto& t : producers) t.join();
  done.store(true);
  q.shutdown();  // wake blocked consumers once the queue empties
  for (auto& t : consumers) t.join();
  EXPECT_EQ(popped.load(), kPerProducer * kProducers);
}

TEST(ServiceQueueTest, BatcherGroupsByKeyInArrivalOrder) {
  std::vector<Pending> drained;
  // Keys: A B A C B A  -> batches [A:{0,2,5}] [B:{1,4}] [C:{3}]
  drained.push_back(make_pending(0, 100));
  drained.push_back(make_pending(1, 200));
  drained.push_back(make_pending(2, 100));
  drained.push_back(make_pending(3, 300));
  drained.push_back(make_pending(4, 200));
  drained.push_back(make_pending(5, 100));
  const auto batches = form_batches(drained);
  ASSERT_EQ(batches.size(), 3u);
  EXPECT_EQ(batches[0].members, (std::vector<std::size_t>{0, 2, 5}));
  EXPECT_EQ(batches[1].members, (std::vector<std::size_t>{1, 4}));
  EXPECT_EQ(batches[2].members, (std::vector<std::size_t>{3}));
  EXPECT_EQ(batches[0].key, cache_key(drained[0].request));
}

TEST(ServiceQueueTest, AdmissionNamesAreStable) {
  EXPECT_STREQ(admission_name(Admission::kAccepted), "accepted");
  EXPECT_STREQ(admission_name(Admission::kQueueFull), "queue_full");
  EXPECT_STREQ(admission_name(Admission::kShutdown), "shutdown");
}

}  // namespace
}  // namespace pslocal::service
