// The tentpole end-to-end: TWO rrqd daemons in child processes — a
// primary shipping its WAL to a backup over the replication protocol
// (ack'd mode) — under a 4-clerk pool workload. The primary is
// SIGKILLed mid-workload, the backup is promoted through the admin op,
// the pool is repointed at it, and every clerk finishes its run there.
// Afterwards the *backup's* durable state is audited twice: the demo
// server enqueued "exec:<rid>:<count>" into a replicated audit queue
// atomically with each execution, and counted it under exec/<rid> in
// its database, which is hosted on the queue repository and so
// replicates with it. Draining that queue on the survivor yields the
// exact multiset of executions that exist in the post-failover
// history, and the survivor's database must agree: exactly one per
// rid.
//
// Four-shard daemons: a server transaction whose request and reply
// queues sit on different shards replicates as one record, which the
// backup applies atomically across its own shards (DESIGN.md §12).
// Ack'd mode makes the test deterministic: any result a clerk observed
// was acknowledged by the backup first, so the backup is always a
// consistent prefix ending at a client-observed point.
//
// Both daemons bind ephemeral ports (--port 0 / --repl-port 0) and
// report them on stdout — no fixed-port collisions across parallel
// ctest jobs.

#include <signal.h>
#include <stdlib.h>

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "client/clerk_pool.h"
#include "core/property_checker.h"
#include "env/env.h"
#include "net/queue_wire.h"
#include "net/tcp_transport.h"
#include "queue/queue_repository.h"
#include "server/exec_backend.h"
#include "testing/subprocess.h"

namespace rrq {
namespace {

constexpr int kClerks = 4;
constexpr int kRequestsPerClerk = 12;
// Pool-wide completions before the primary is assassinated.
constexpr int kKillAfter = 12;
// Each driver holds its kHoldIndex-th request until the failover has
// happened, so every clerk provably works against the promoted backup.
constexpr int kHoldIndex = 6;

uint16_t ParsePort(const std::string& listening_line) {
  const size_t colon = listening_line.rfind(':');
  if (colon == std::string::npos) return 0;
  return static_cast<uint16_t>(
      std::strtoul(listening_line.c_str() + colon + 1, nullptr, 10));
}

std::string ParseRidFromReply(const std::string& reply) {
  // Reply bodies are "done:<rid>:<count>".
  const size_t first = reply.find(':');
  const size_t last = reply.rfind(':');
  if (first == std::string::npos || last <= first) return "";
  return reply.substr(first + 1, last - first - 1);
}

TEST(ReplicatedFailoverTest, PoolSurvivesPrimarySigkillViaPromotedBackup) {
  char primary_template[] = "/tmp/rrq_failover_p_XXXXXX";
  char backup_template[] = "/tmp/rrq_failover_b_XXXXXX";
  ASSERT_NE(mkdtemp(primary_template), nullptr);
  ASSERT_NE(mkdtemp(backup_template), nullptr);
  const std::string primary_dir = primary_template;
  const std::string backup_dir = backup_template;

  // Backup first (the primary's sender needs somewhere to connect).
  testing::Subprocess backup;
  ASSERT_TRUE(backup
                  .Spawn({RRQD_BINARY, "--dir", backup_dir, "--port", "0",
                          "--threads", "2", "--shards", "4", "--role",
                          "backup", "--repl-port", "0", "--audit-queue",
                          "audit"})
                  .ok());
  auto backup_line = backup.WaitForLine("rrqd: listening on", 30'000'000);
  ASSERT_TRUE(backup_line.ok()) << backup_line.status().ToString();
  const uint16_t backup_port = ParsePort(*backup_line);
  ASSERT_NE(backup_port, 0);
  auto repl_line = backup.WaitForLine("repl listening on", 30'000'000);
  ASSERT_TRUE(repl_line.ok()) << repl_line.status().ToString();
  const uint16_t repl_port = ParsePort(*repl_line);
  ASSERT_NE(repl_port, 0);

  testing::Subprocess primary;
  ASSERT_TRUE(primary
                  .Spawn({RRQD_BINARY, "--dir", primary_dir, "--port", "0",
                          "--threads", "2", "--shards", "4", "--role",
                          "primary", "--replicate-to",
                          "127.0.0.1:" + std::to_string(repl_port),
                          "--repl-mode", "ack", "--audit-queue", "audit"})
                  .ok());
  auto primary_line = primary.WaitForLine("rrqd: listening on", 30'000'000);
  ASSERT_TRUE(primary_line.ok()) << primary_line.status().ToString();
  const uint16_t primary_port = ParsePort(*primary_line);
  ASSERT_NE(primary_port, 0);

  // Wait for the pipeline to reach "shipping" (seed done, backup
  // bound to the stream) before any workload: from here on the
  // primary can die at any instant.
  {
    net::TcpChannelOptions admin_options;
    admin_options.port = primary_port;
    net::TcpChannel admin(admin_options);
    net::ChannelQueueApi api(&admin);
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    for (;;) {
      auto status = api.ReplicationStatus();
      if (status.ok() && status->state == "shipping") break;
      ASSERT_LT(std::chrono::steady_clock::now(), deadline)
          << (status.ok() ? status->state : status.status().ToString());
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }

  client::ClerkPoolOptions pool_options;
  pool_options.channel.port = primary_port;
  pool_options.channel.call_timeout_micros = 10'000'000;
  pool_options.channel.max_connect_attempts = 25;
  pool_options.channel.backoff_initial_micros = 5'000;
  pool_options.clerks = kClerks;
  pool_options.receive_timeout_micros = 200'000;
  pool_options.max_recovery_attempts = 128;
  pool_options.max_poll_attempts = 400;
  client::ClerkPool pool(pool_options);
  ASSERT_TRUE(pool.Start().ok());

  std::mutex audit_mu;
  core::PropertyChecker checker;
  std::set<std::string> submitted;

  std::atomic<int> completed{0};
  std::atomic<int> failures{0};
  std::atomic<bool> failed_over{false};

  // The assassin-and-coroner: kill the primary mid-workload, promote
  // the backup, repoint the pool.
  std::thread killer([&] {
    while (completed.load(std::memory_order_acquire) < kKillAfter) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    ASSERT_TRUE(primary.Signal(SIGKILL).ok());
    auto status = primary.Wait();
    ASSERT_TRUE(status.ok()) << status.status().ToString();

    net::TcpChannelOptions admin_options;
    admin_options.port = backup_port;
    net::TcpChannel admin(admin_options);
    net::ChannelQueueApi api(&admin);
    Status promoted = api.Promote();
    ASSERT_TRUE(promoted.ok()) << promoted.ToString();
    // Promote is idempotent: a racing second operator is a no-op.
    ASSERT_TRUE(api.Promote().ok());
    auto info = api.ReplicationStatus();
    ASSERT_TRUE(info.ok()) << info.status().ToString();
    EXPECT_EQ(info->role, "backup");
    EXPECT_TRUE(info->promoted);
    EXPECT_GT(info->acked_seq, 0u);

    ASSERT_TRUE(pool.Repoint("127.0.0.1", backup_port).ok());
    failed_over.store(true, std::memory_order_release);
  });

  // One driver per clerk slot; rids are minted deterministically as
  // "pool-<i>#<j>" so the audit knows every rid up front.
  std::vector<std::thread> drivers;
  drivers.reserve(kClerks);
  for (int i = 0; i < kClerks; ++i) {
    drivers.emplace_back([&, i] {
      for (int j = 1; j <= kRequestsPerClerk; ++j) {
        if (j == kHoldIndex) {
          while (!failed_over.load(std::memory_order_acquire)) {
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
          }
        }
        const std::string rid =
            pool.client_id(static_cast<size_t>(i)) + "#" + std::to_string(j);
        {
          std::lock_guard<std::mutex> lock(audit_mu);
          submitted.insert(rid);
          checker.RecordSubmission(rid);
        }
        auto reply = pool.Execute(static_cast<size_t>(i), "work-" + rid);
        if (!reply.ok()) {
          ADD_FAILURE() << "request " << rid << ": "
                        << reply.status().ToString();
          failures.fetch_add(1);
          return;
        }
        const std::string replied_rid = ParseRidFromReply(*reply);
        EXPECT_EQ(replied_rid, rid) << *reply;
        {
          std::lock_guard<std::mutex> lock(audit_mu);
          if (submitted.count(replied_rid) == 0) {
            checker.RecordMismatchedReply(replied_rid);
          } else {
            checker.RecordReplyProcessed(replied_rid);
          }
        }
        completed.fetch_add(1, std::memory_order_acq_rel);
      }
    });
  }
  for (auto& t : drivers) t.join();
  killer.join();
  ASSERT_EQ(failures.load(), 0);
  EXPECT_TRUE(pool.Stop().ok());

  // The survivor's durable state is the only history that counts.
  ASSERT_TRUE(backup.Signal(SIGTERM).ok());
  auto exit_status = backup.Wait();
  ASSERT_TRUE(exit_status.ok()) << exit_status.status().ToString();

  server::ExecBackend backend;
  ASSERT_TRUE(backend.Open(env::Env::Default(), backup_dir, {}).ok());
  queue::QueueRepository& survivor = *backend.repo();
  ASSERT_TRUE(survivor.QueueExists("audit"));
  // The replicated database: one execution per rid, no other rids.
  EXPECT_EQ(backend.db()->ScanKeys("exec/").size(), submitted.size());
  for (const std::string& rid : submitted) {
    auto count = backend.db()->GetCommitted("exec/" + rid);
    ASSERT_TRUE(count.ok()) << rid << ": " << count.status().ToString();
    EXPECT_EQ(*count, "1") << rid;
  }
  for (;;) {
    auto element = survivor.Dequeue(nullptr, "audit");
    if (!element.ok()) break;
    // Audit entries are "exec:<rid>:<count>".
    const std::string& entry = element->contents;
    const size_t first = entry.find(':');
    const size_t last = entry.rfind(':');
    ASSERT_NE(first, std::string::npos) << entry;
    ASSERT_GT(last, first) << entry;
    checker.RecordCommittedExecution(entry.substr(first + 1, last - first - 1));
  }

  const auto verdict = checker.Check();
  EXPECT_EQ(verdict.submitted,
            static_cast<uint64_t>(kClerks * kRequestsPerClerk));
  EXPECT_TRUE(verdict.ExactlyOnceHolds())
      << "duplicates=" << verdict.duplicate_executions
      << " lost=" << verdict.lost_requests
      << " phantom=" << verdict.phantom_executions;
  EXPECT_TRUE(verdict.AtLeastOnceRepliesHold())
      << "unprocessed=" << verdict.unprocessed_replies;
  EXPECT_TRUE(verdict.MatchingHolds())
      << "mismatched=" << verdict.mismatched_replies;
  EXPECT_TRUE(verdict.AllHold());
}

}  // namespace
}  // namespace rrq
