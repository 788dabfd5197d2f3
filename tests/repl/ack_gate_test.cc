// The ack-mode reply gate: waits for the log head, degrades to async
// after consecutive timeouts, re-engages once the sender ships again,
// and stands aside while a seed snapshot is in progress.
#include "repl/ack_gate.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

namespace rrq::repl {
namespace {

using Clock = std::chrono::steady_clock;

constexpr uint64_t kShortTimeout = 20'000;
constexpr uint64_t kLongTimeout = 10'000'000;

TEST(AckGateTest, ReturnsAtOnceWhenHeadIsAcked) {
  ReplicationLog log;
  AckGate gate(&log, [] { return true; }, kShortTimeout);
  // An empty log is trivially acked.
  EXPECT_TRUE(gate.WaitForHead().ok());
  log.Append("a");
  log.Append("b");
  log.Acked(2);
  EXPECT_TRUE(gate.WaitForHead().ok());
  EXPECT_EQ(gate.calls(), 2u);
  EXPECT_EQ(gate.waits(), 0u);
  EXPECT_EQ(gate.timeouts(), 0u);
}

TEST(AckGateTest, BlocksUntilAnAckCoversTheHead) {
  ReplicationLog log;
  AckGate gate(&log, [] { return true; }, kLongTimeout);
  log.Append("a");
  log.Append("b");
  std::atomic<bool> done{false};
  Status result;
  std::thread waiter([&] {
    result = gate.WaitForHead();
    done.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  // An ack below the head releases nothing.
  log.Acked(1);
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_FALSE(done.load());
  // Records appended after the call started are not waited for.
  log.Append("c");
  log.Acked(2);
  waiter.join();
  EXPECT_TRUE(result.ok()) << result.ToString();
  EXPECT_EQ(gate.waits(), 1u);
}

TEST(AckGateTest, DegradesToAsyncAfterConsecutiveTimeouts) {
  ReplicationLog log;
  AckGate gate(&log, [] { return false; }, kShortTimeout);
  log.Append("a");
  EXPECT_TRUE(gate.WaitForHead().IsUnavailable());
  EXPECT_FALSE(gate.degraded());
  EXPECT_TRUE(gate.WaitForHead().IsUnavailable());
  EXPECT_TRUE(gate.degraded());
  EXPECT_EQ(gate.timeouts(), 2u);
  // Degraded: no wait at all while the backup stays unreachable.
  EXPECT_TRUE(gate.WaitForHead().ok());
  EXPECT_EQ(gate.waits(), 2u);
  EXPECT_EQ(gate.calls(), 3u);
}

TEST(AckGateTest, AnAckBetweenTimeoutsResetsTheDegradeCount) {
  ReplicationLog log;
  // The timeout outlasts the acker's delay.
  AckGate gate(&log, [] { return false; }, 200'000);
  log.Append("a");
  EXPECT_TRUE(gate.WaitForHead().IsUnavailable());
  std::thread acker([&log] {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    log.Acked(2);
  });
  log.Append("b");
  EXPECT_TRUE(gate.WaitForHead().ok());
  acker.join();
  log.Append("c");
  EXPECT_TRUE(gate.WaitForHead().IsUnavailable());
  EXPECT_FALSE(gate.degraded());
}

TEST(AckGateTest, ReengagesWhenTheSenderShipsAgain) {
  ReplicationLog log;
  std::atomic<bool> shipping{false};
  AckGate gate(&log, [&shipping] { return shipping.load(); },
               kShortTimeout);
  log.Append("a");
  EXPECT_TRUE(gate.WaitForHead().IsUnavailable());
  EXPECT_TRUE(gate.WaitForHead().IsUnavailable());
  ASSERT_TRUE(gate.degraded());
  EXPECT_TRUE(gate.WaitForHead().ok());

  shipping.store(true);
  // Engaged again: the next call waits, and an unacked head times out.
  const auto start = Clock::now();
  EXPECT_TRUE(gate.WaitForHead().IsUnavailable());
  EXPECT_GE(Clock::now() - start, std::chrono::milliseconds(15));
  EXPECT_FALSE(gate.degraded());
  EXPECT_EQ(gate.waits(), 3u);
  // And an ack releases it as usual.
  log.Acked(1);
  EXPECT_TRUE(gate.WaitForHead().ok());
}

TEST(AckGateTest, ReturnsOkDuringSnapshot) {
  ReplicationLog log;
  AckGate gate(&log, [] { return true; }, kLongTimeout);
  log.Append("a");
  log.BeginSnapshot();
  const auto start = Clock::now();
  EXPECT_TRUE(gate.WaitForHead().ok());
  EXPECT_LT(Clock::now() - start, std::chrono::seconds(1));
  log.EndSnapshot();
  EXPECT_FALSE(gate.degraded());
}

TEST(AckGateTest, ShutdownCancelsTheWait) {
  ReplicationLog log;
  AckGate gate(&log, [] { return true; }, kLongTimeout);
  log.Append("a");
  Status result;
  std::thread waiter([&] { result = gate.WaitForHead(); });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  log.Shutdown();
  waiter.join();
  EXPECT_TRUE(result.IsCancelled()) << result.ToString();
  EXPECT_EQ(gate.timeouts(), 0u);
}

}  // namespace
}  // namespace rrq::repl
