// The paper's guarantees for a whole clerk *pool*: K clerks share one
// pipelined TCP connection to an rrqd daemon in a child process; the
// daemon is SIGKILLed mid-workload and restarted on the same state
// directory (on a fresh ephemeral port — the shared channel is
// retargeted — so a parallel test grabbing the old port can never
// flake the respawn). Every clerk must ride out the shared-channel loss —
// the one failure drops all K sessions at once — and resolve its own
// §2 uncertainty through re-Connect. Afterwards the daemon's durable
// KvStore is opened in-process and the per-rid execution counters fed
// to the PropertyChecker: exactly-once per clerk, across a process
// that genuinely died under a multiplexed socket.
//
// The daemon binary path arrives via the RRQD_BINARY compile
// definition (see tests/CMakeLists.txt).

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
#include "server/exec_backend.h"
#include "storage/kv_store.h"
#include "testing/subprocess.h"

namespace rrq {
namespace {

constexpr int kClerks = 4;
constexpr int kRequestsPerClerk = 12;
// Each driver holds its request with this 1-based index until the
// daemon is frozen, then issues it; the daemon dies only once every
// driver is inside that Execute. So every clerk has an op in flight at
// the kill and provably resolves it against the restarted daemon.
constexpr int kHoldIndex = 6;

uint16_t ParsePort(const std::string& listening_line) {
  const size_t colon = listening_line.rfind(':');
  if (colon == std::string::npos) return 0;
  return static_cast<uint16_t>(
      std::strtoul(listening_line.c_str() + colon + 1, nullptr, 10));
}

std::vector<std::string> RrqdArgv(const std::string& dir, uint16_t port) {
  return {RRQD_BINARY, "--dir", dir, "--port",
          std::to_string(port), "--threads", "2"};
}

std::string ParseRidFromReply(const std::string& reply) {
  // Reply bodies are "done:<rid>:<count>".
  const size_t first = reply.find(':');
  const size_t last = reply.rfind(':');
  if (first == std::string::npos || last <= first) return "";
  return reply.substr(first + 1, last - first - 1);
}

TEST(ClerkPoolExactlyOnceTest, PoolSurvivesDaemonSigkillMidWorkload) {
  char dir_template[] = "/tmp/rrq_pool_e1_XXXXXX";
  ASSERT_NE(mkdtemp(dir_template), nullptr);
  const std::string dir = dir_template;

  testing::Subprocess daemon;
  ASSERT_TRUE(daemon.Spawn(RrqdArgv(dir, 0)).ok());
  auto listening = daemon.WaitForLine("listening on", 30'000'000);
  ASSERT_TRUE(listening.ok()) << listening.status().ToString();
  const uint16_t port = ParsePort(*listening);
  ASSERT_NE(port, 0);

  client::ClerkPoolOptions pool_options;
  pool_options.channel.port = port;
  pool_options.channel.call_timeout_micros = 10'000'000;
  pool_options.channel.max_connect_attempts = 25;
  pool_options.channel.backoff_initial_micros = 5'000;
  pool_options.clerks = kClerks;
  pool_options.receive_timeout_micros = 200'000;
  pool_options.max_recovery_attempts = 64;
  client::ClerkPool pool(pool_options);
  ASSERT_TRUE(pool.Start().ok());

  std::mutex audit_mu;
  core::PropertyChecker checker;
  std::set<std::string> submitted;

  std::atomic<int> failures{0};
  std::atomic<int> parked{0};   // drivers waiting at kHoldIndex
  std::atomic<bool> released{false};
  std::atomic<int> entered{0};  // drivers inside their kHoldIndex Execute

  // The assassin: once every driver is parked at kHoldIndex, freeze the
  // daemon, release the holds and wait until every driver is inside its
  // held Execute. Then SIGKILL the daemon, pause, restart it on the
  // same state directory but a fresh ephemeral port, and retarget the
  // shared channel at the reborn daemon.
  std::thread killer([&daemon, &pool, &parked, &released, &entered, &dir]() {
    while (parked.load(std::memory_order_acquire) < kClerks) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    ASSERT_TRUE(daemon.Signal(SIGSTOP).ok());
    released.store(true, std::memory_order_release);
    while (entered.load(std::memory_order_acquire) < kClerks) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    ASSERT_TRUE(daemon.Signal(SIGKILL).ok());
    auto status = daemon.Wait();
    ASSERT_TRUE(status.ok()) << status.status().ToString();
    std::this_thread::sleep_for(std::chrono::milliseconds(150));
    ASSERT_TRUE(daemon.Spawn(RrqdArgv(dir, 0)).ok());
    auto line = daemon.WaitForLine("listening on", 30'000'000);
    ASSERT_TRUE(line.ok()) << line.status().ToString();
    const uint16_t new_port = ParsePort(*line);
    ASSERT_NE(new_port, 0);
    ASSERT_TRUE(pool.Repoint("127.0.0.1", new_port).ok());
  });

  // One driver thread per clerk, all multiplexing the one socket. Slot
  // i's ReliableClient mints rids "pool-<i>#<j>" deterministically, so
  // the audit knows each rid before its reply is seen.
  std::vector<std::thread> drivers;
  drivers.reserve(kClerks);
  for (int i = 0; i < kClerks; ++i) {
    drivers.emplace_back([&, i] {
      for (int j = 1; j <= kRequestsPerClerk; ++j) {
        if (j == kHoldIndex) {
          parked.fetch_add(1, std::memory_order_acq_rel);
          while (!released.load(std::memory_order_acquire)) {
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
        if (j == kHoldIndex) entered.fetch_add(1, std::memory_order_acq_rel);
        auto reply = pool.Execute(static_cast<size_t>(i),
                                  "work-" + rid);
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
      }
    });
  }
  for (auto& t : drivers) t.join();
  killer.join();
  ASSERT_EQ(failures.load(), 0);

  // The one channel must have actually ridden out a daemon death, and
  // every clerk must have resynchronized over it at least once.
  EXPECT_GE(pool.channel()->connects(), 2u);
  for (size_t i = 0; i < pool.size(); ++i) {
    EXPECT_GE(pool.reliable(i)->reconnects(), 2u) << "slot " << i;
    EXPECT_EQ(pool.reliable(i)->completed(),
              static_cast<uint64_t>(kRequestsPerClerk))
        << "slot " << i;
  }
  EXPECT_TRUE(pool.Stop().ok());

  // Shut the daemon down cleanly and open its state in-process.
  ASSERT_TRUE(daemon.Signal(SIGTERM).ok());
  auto exit_status = daemon.Wait();
  ASSERT_TRUE(exit_status.ok()) << exit_status.status().ToString();

  server::ExecBackend backend;
  ASSERT_TRUE(backend.Open(env::Env::Default(), dir, {}).ok());
  storage::KvStore& db = *backend.db();

  // The daemon's handler incremented exec/<rid> once per committed
  // execution — the ground truth for exactly-once, per clerk.
  for (const std::string& key : db.ScanKeys("exec/")) {
    const std::string rid = key.substr(5);
    auto count = db.GetCommitted(key);
    ASSERT_TRUE(count.ok()) << count.status().ToString();
    const uint64_t n = std::strtoull(count->c_str(), nullptr, 10);
    ASSERT_GE(n, 1u);
    for (uint64_t e = 0; e < n; ++e) checker.RecordCommittedExecution(rid);
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
