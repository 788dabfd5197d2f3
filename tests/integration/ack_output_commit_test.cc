// Ack mode's output-commit rule, end to end: two rrqd daemons, the
// primary replicating to the backup in ack mode. The backup is
// SIGSTOPped for a few hundred milliseconds — well under the 5 s ack
// timeout — and while it is frozen one client enqueues, a second
// polls (timeout 0) Dequeue, and a reconnecting clerk re-Registers.
// Every one of those replies carries state the backup does not hold
// yet, so none of them may leave the primary before the backup
// resumes and acknowledges it. After SIGCONT all of them succeed.
//
// A re-Register that hands back an unacknowledged last op is the
// hazard at its sharpest: the clerk's §2 recovery acts on that
// element, and a failover at that moment would resurrect it.
//
// A one-way enqueue is the converse: no reply leaves, so nothing waits
// for the backup, and a frozen backup must not park a handler worker.

#include <signal.h>
#include <stdlib.h>

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "net/queue_wire.h"
#include "net/tcp_transport.h"
#include "testing/subprocess.h"

namespace rrq {
namespace {

using Clock = std::chrono::steady_clock;

constexpr auto kFrozenFor = std::chrono::milliseconds(300);

uint16_t ParsePort(const std::string& listening_line) {
  const size_t colon = listening_line.rfind(':');
  if (colon == std::string::npos) return 0;
  return static_cast<uint16_t>(
      std::strtoul(listening_line.c_str() + colon + 1, nullptr, 10));
}

net::TcpChannelOptions ChannelTo(uint16_t port) {
  net::TcpChannelOptions options;
  options.port = port;
  options.call_timeout_micros = 20'000'000;
  return options;
}

// A backup rrqd and a primary replicating to it in ack mode, each with
// one shard and no demo server.
class AckOutputCommitTest : public ::testing::Test {
 protected:
  void TearDown() override {
    if (primary_started_) {
      EXPECT_TRUE(primary_.Signal(SIGTERM).ok());
      EXPECT_TRUE(primary_.Wait().ok());
    }
    if (backup_started_) {
      // A failed check may have left the backup stopped.
      EXPECT_TRUE(backup_.Signal(SIGCONT).ok());
      EXPECT_TRUE(backup_.Signal(SIGTERM).ok());
      EXPECT_TRUE(backup_.Wait().ok());
    }
    if (!primary_dir_.empty()) std::filesystem::remove_all(primary_dir_);
    if (!backup_dir_.empty()) std::filesystem::remove_all(backup_dir_);
  }

  // Starts both daemons (extra flags go to the primary) and waits until
  // the primary's sender is shipping. Sets `port_`.
  void StartPair(const std::vector<std::string>& primary_flags) {
    char primary_template[] = "/tmp/rrq_ackgate_p_XXXXXX";
    char backup_template[] = "/tmp/rrq_ackgate_b_XXXXXX";
    ASSERT_NE(mkdtemp(primary_template), nullptr);
    ASSERT_NE(mkdtemp(backup_template), nullptr);
    primary_dir_ = primary_template;
    backup_dir_ = backup_template;

    ASSERT_TRUE(backup_
                    .Spawn({RRQD_BINARY, "--dir", backup_dir_, "--port", "0",
                            "--shards", "1", "--no-server", "--role",
                            "backup", "--repl-port", "0"})
                    .ok());
    backup_started_ = true;
    auto repl_line = backup_.WaitForLine("repl listening on", 30'000'000);
    ASSERT_TRUE(repl_line.ok()) << repl_line.status().ToString();
    const uint16_t repl_port = ParsePort(*repl_line);
    ASSERT_NE(repl_port, 0);

    std::vector<std::string> argv = {
        RRQD_BINARY, "--dir", primary_dir_, "--port", "0", "--shards", "1",
        "--no-server", "--role", "primary", "--replicate-to",
        "127.0.0.1:" + std::to_string(repl_port), "--repl-mode", "ack"};
    argv.insert(argv.end(), primary_flags.begin(), primary_flags.end());
    ASSERT_TRUE(primary_.Spawn(argv).ok());
    primary_started_ = true;
    auto primary_line =
        primary_.WaitForLine("rrqd: listening on", 30'000'000);
    ASSERT_TRUE(primary_line.ok()) << primary_line.status().ToString();
    port_ = ParsePort(*primary_line);
    ASSERT_NE(port_, 0);

    net::TcpChannel channel(ChannelTo(port_));
    net::ChannelQueueApi api(&channel);
    const auto deadline = Clock::now() + std::chrono::seconds(30);
    for (;;) {
      auto status = api.ReplicationStatus();
      if (status.ok() && status->state == "shipping") break;
      ASSERT_LT(Clock::now(), deadline)
          << (status.ok() ? status->state : status.status().ToString());
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }

  testing::Subprocess backup_;
  testing::Subprocess primary_;
  bool backup_started_ = false;
  bool primary_started_ = false;
  std::string primary_dir_;
  std::string backup_dir_;
  uint16_t port_ = 0;
};

TEST_F(AckOutputCommitTest, NoReplyLeavesBeforeTheBackupAcks) {
  ASSERT_NO_FATAL_FAILURE(StartPair({}));

  // Each party owns its connection, as separate clerks would.
  net::TcpChannel admin_channel(ChannelTo(port_));
  net::ChannelQueueApi admin(&admin_channel);
  ASSERT_TRUE(admin.CreateQueue("q").ok());
  ASSERT_TRUE(admin.Register("q", "poller", /*stable=*/true).ok());

  net::TcpChannel producer_channel(ChannelTo(port_));
  net::ChannelQueueApi producer(&producer_channel);
  net::TcpChannel poller_channel(ChannelTo(port_));
  net::ChannelQueueApi poller(&poller_channel);
  net::TcpChannel rejoin_channel(ChannelTo(port_));
  net::ChannelQueueApi rejoin(&rejoin_channel);

  ASSERT_TRUE(backup_.Signal(SIGSTOP).ok());
  std::atomic<int64_t> resumed_at{0};  // Clock ticks; 0 = still frozen.
  auto now_ticks = [] { return Clock::now().time_since_epoch().count(); };
  const auto give_up = Clock::now() + std::chrono::seconds(15);

  // Client 1: an async enqueue, issued while the backup is frozen.
  std::atomic<bool> enqueued{false};
  std::atomic<int64_t> enqueue_replied_at{0};
  Status enqueue_status = Status::Internal("no reply");
  producer.EnqueueAsync("q", "payload", 0, "", "", /*one_way=*/false,
                        [&](Result<queue::ElementId> r) {
                          enqueue_status = r.status();
                          enqueue_replied_at.store(now_ticks());
                          enqueued.store(true);
                        });

  // Client 2: polling dequeues until one returns the element.
  int64_t dequeued_at = 0;
  Result<queue::Element> dequeued = Status::Internal("never dequeued");
  std::thread dequeuer([&] {
    while (Clock::now() < give_up) {
      dequeued = poller.Dequeue("q", "poller", "t1", /*timeout_micros=*/0);
      if (dequeued.ok() || !dequeued.status().IsNotFound()) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    dequeued_at = now_ticks();
  });

  // A reconnecting clerk: re-Register hands back the registrant's last
  // op — here, the dequeue above once it has committed.
  int64_t recovered_at = 0;
  Result<queue::RegistrationInfo> recovered =
      Status::Internal("never recovered");
  std::thread rejoiner([&] {
    while (Clock::now() < give_up) {
      recovered = rejoin.Register("q", "poller", /*stable=*/true);
      if (!recovered.ok() || recovered->last_op == queue::OpType::kDequeue) {
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    recovered_at = now_ticks();
  });

  std::this_thread::sleep_for(kFrozenFor);
  resumed_at.store(now_ticks());
  ASSERT_TRUE(backup_.Signal(SIGCONT).ok());
  dequeuer.join();
  rejoiner.join();
  while (!enqueued.load() && Clock::now() < give_up) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  ASSERT_TRUE(enqueued.load());
  EXPECT_TRUE(enqueue_status.ok()) << enqueue_status.ToString();
  ASSERT_TRUE(dequeued.ok()) << dequeued.status().ToString();
  EXPECT_EQ(dequeued->contents, "payload");
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(recovered->last_op, queue::OpType::kDequeue);
  EXPECT_EQ(recovered->last_element, "payload");

  const int64_t resumed = resumed_at.load();
  EXPECT_GE(enqueue_replied_at.load(), resumed)
      << "the enqueue was acknowledged before the backup held it";
  EXPECT_GE(dequeued_at, resumed)
      << "a polling Dequeue returned an element the backup did not hold";
  EXPECT_GE(recovered_at, resumed)
      << "re-Register returned a last op the backup did not hold";

  // The backup converged on everything the clients were told.
  auto status = admin.ReplicationStatus();
  ASSERT_TRUE(status.ok()) << status.status().ToString();
  EXPECT_EQ(status->acked_seq, status->head_seq);
}

TEST_F(AckOutputCommitTest, OneWayEnqueueDoesNotParkAWorker) {
  // One handler worker: an op parked at the reply gate would hold up
  // every op queued behind it.
  ASSERT_NO_FATAL_FAILURE(StartPair({"--workers", "1"}));
  net::TcpChannel channel(ChannelTo(port_));
  net::ChannelQueueApi api(&channel);
  ASSERT_TRUE(api.CreateQueue("q").ok());

  ASSERT_TRUE(backup_.Signal(SIGSTOP).ok());
  const auto frozen_at = Clock::now();
  ASSERT_TRUE(
      api.Enqueue("q", "payload", 0, "", "", /*one_way=*/true).status().ok());
  // Same connection, one worker: the server runs the Depth after the
  // enqueue, so the enqueue's effect is visible — and had the enqueue
  // parked at the reply gate, the Depth would wait out the 5 s ack
  // timeout behind it.
  auto depth = api.Depth("q");
  const auto answered_after = Clock::now() - frozen_at;
  ASSERT_TRUE(backup_.Signal(SIGCONT).ok());

  ASSERT_TRUE(depth.ok()) << depth.status().ToString();
  EXPECT_EQ(*depth, 1u);
  EXPECT_LT(answered_after, std::chrono::seconds(2))
      << "a one-way enqueue parked the only worker at the reply gate";

  // After the resume the backup catches up on the enqueue's record.
  const auto deadline = Clock::now() + std::chrono::seconds(15);
  for (;;) {
    auto status = api.ReplicationStatus();
    ASSERT_TRUE(status.ok()) << status.status().ToString();
    if (status->acked_seq == status->head_seq) break;
    ASSERT_LT(Clock::now(), deadline);
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
}

}  // namespace
}  // namespace rrq
