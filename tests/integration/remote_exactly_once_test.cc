// The paper's guarantees, out of process: a ReliableClient talks over
// real loopback TCP to an rrqd daemon in a child process; the daemon
// is SIGKILLed mid-workload and restarted on the same state directory
// (on a fresh ephemeral port — the channel is retargeted — so a
// parallel test grabbing the old port can never flake the respawn). Afterwards the daemon's durable KvStore is opened
// in-process and the per-rid execution counters it kept are fed to the
// PropertyChecker: every submitted request must have executed exactly
// once, every reply processed at least once, and every processed reply
// must match a submitted rid — across a process that genuinely died.
//
// The daemon binary path arrives via the RRQD_BINARY compile
// definition (see tests/CMakeLists.txt).

#include <signal.h>
#include <stdlib.h>

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "client/reliable_client.h"
#include "core/property_checker.h"
#include "env/env.h"
#include "net/queue_wire.h"
#include "net/tcp_transport.h"
#include "server/exec_backend.h"
#include "storage/kv_store.h"
#include "testing/subprocess.h"

namespace rrq {
namespace {

constexpr int kRequests = 24;
constexpr int kKillAfter = 8;

uint16_t ParsePort(const std::string& listening_line) {
  const size_t colon = listening_line.rfind(':');
  if (colon == std::string::npos) return 0;
  return static_cast<uint16_t>(
      std::strtoul(listening_line.c_str() + colon + 1, nullptr, 10));
}

std::vector<std::string> RrqdArgv(const std::string& dir, uint16_t port) {
  return {RRQD_BINARY,  "--dir",     dir,
          "--port",     std::to_string(port),
          "--threads",  "2"};
}

std::string ParseRidFromReply(const std::string& reply) {
  // Reply bodies are "done:<rid>:<count>".
  const size_t first = reply.find(':');
  const size_t last = reply.rfind(':');
  if (first == std::string::npos || last <= first) return "";
  return reply.substr(first + 1, last - first - 1);
}

TEST(RemoteExactlyOnceTest, SurvivesDaemonSigkillMidWorkload) {
  char dir_template[] = "/tmp/rrq_remote_e1_XXXXXX";
  ASSERT_NE(mkdtemp(dir_template), nullptr);
  const std::string dir = dir_template;

  testing::Subprocess daemon;
  ASSERT_TRUE(daemon.Spawn(RrqdArgv(dir, 0)).ok());
  auto listening = daemon.WaitForLine("listening on", 30'000'000);
  ASSERT_TRUE(listening.ok()) << listening.status().ToString();
  const uint16_t port = ParsePort(*listening);
  ASSERT_NE(port, 0);

  net::TcpChannelOptions channel_options;
  channel_options.port = port;
  channel_options.call_timeout_micros = 10'000'000;
  channel_options.max_connect_attempts = 25;
  channel_options.backoff_initial_micros = 5'000;
  net::TcpChannel channel(channel_options);
  net::ChannelQueueApi api(&channel);

  // A remote client must provision its own reply queue on the daemon.
  ASSERT_TRUE(api.CreateQueue("reply.c").ok());

  core::PropertyChecker checker;
  std::set<std::string> submitted;

  client::ReliableClientOptions client_options;
  client_options.clerk.client_id = "c";
  client_options.clerk.request_queue = "requests";
  client_options.clerk.reply_queue = "reply.c";
  client_options.clerk.api = &api;
  client_options.clerk.receive_timeout_micros = 200'000;
  client_options.max_recovery_attempts = 64;
  client::ReliableClient client(
      client_options,
      [&checker, &submitted](const queue::ReplyEnvelope& reply,
                             bool /*maybe_dup*/) {
        const std::string rid = ParseRidFromReply(reply.body);
        if (submitted.count(rid) == 0) {
          checker.RecordMismatchedReply(rid);
        } else {
          checker.RecordReplyProcessed(rid);
        }
        return Status::OK();
      });
  ASSERT_TRUE(client.Start().ok());

  // The assassin: once kKillAfter requests have completed, SIGKILL the
  // daemon, pause, and restart it on the same state directory but a
  // fresh ephemeral port, then retarget the channel. The main loop
  // holds request kKillAfter+1 until the restart has landed, so the
  // remaining requests provably run against a daemon that died and
  // recovered.
  std::atomic<int> completed{0};
  std::atomic<bool> killed{false};
  std::thread killer([&daemon, &channel, &completed, &killed, &dir]() {
    while (completed.load(std::memory_order_acquire) < kKillAfter) {
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
    channel.SetTarget("127.0.0.1", new_port);
    killed.store(true, std::memory_order_release);
  });

  for (int i = 1; i <= kRequests; ++i) {
    if (i == kKillAfter + 1) {
      while (!killed.load(std::memory_order_acquire)) {
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      }
    }
    const std::string rid = "c#" + std::to_string(i);
    submitted.insert(rid);
    checker.RecordSubmission(rid);
    auto reply = client.Execute("work-" + std::to_string(i));
    ASSERT_TRUE(reply.ok()) << "request " << rid << ": "
                            << reply.status().ToString();
    EXPECT_EQ(ParseRidFromReply(*reply), rid) << *reply;
    completed.store(i, std::memory_order_release);
  }
  killer.join();
  // The channel must have actually ridden out a daemon death.
  EXPECT_GE(channel.connects(), 2u);
  EXPECT_TRUE(client.Stop().ok());

  // Shut the daemon down cleanly and open its state in-process.
  ASSERT_TRUE(daemon.Signal(SIGTERM).ok());
  auto exit_status = daemon.Wait();
  ASSERT_TRUE(exit_status.ok()) << exit_status.status().ToString();

  server::ExecBackend backend;
  ASSERT_TRUE(backend.Open(env::Env::Default(), dir, {}).ok());
  storage::KvStore& db = *backend.db();

  // The daemon's handler incremented exec/<rid> once per committed
  // execution — the ground truth for exactly-once.
  for (const std::string& key : db.ScanKeys("exec/")) {
    const std::string rid = key.substr(5);
    auto count = db.GetCommitted(key);
    ASSERT_TRUE(count.ok()) << count.status().ToString();
    const uint64_t n = std::strtoull(count->c_str(), nullptr, 10);
    ASSERT_GE(n, 1u);
    for (uint64_t e = 0; e < n; ++e) checker.RecordCommittedExecution(rid);
  }

  const auto verdict = checker.Check();
  EXPECT_EQ(verdict.submitted, static_cast<uint64_t>(kRequests));
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
