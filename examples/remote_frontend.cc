// Remote front end — the paper's deployment picture (§2), now with a
// real process boundary: the queue manager and server run inside an
// rrqd daemon, and this front end reaches it over loopback TCP. With
// no argument, a private daemon is spawned as a child, SIGKILLed
// mid-workload, and restarted — and every request still executes
// exactly once. Point it at an already-running daemon instead with:
//
//   ./remote_frontend <host> <port>     (no kill/restart in this mode)
//
// Run a daemon yourself with:  rrqd --dir /tmp/rrqd-state --port 4700
#include <signal.h>
#include <stdlib.h>

#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "client/reliable_client.h"
#include "core/property_checker.h"
#include "net/queue_wire.h"
#include "net/tcp_transport.h"
#include "testing/subprocess.h"

using rrq::Result;
using rrq::Status;
namespace client = rrq::client;
namespace core = rrq::core;
namespace net = rrq::net;

namespace {

// Reply bodies from rrqd's built-in server are "done:<rid>:<count>",
// where count is the committed execution counter for that rid.
bool ParseReply(const std::string& reply, std::string* rid,
                uint64_t* count) {
  const size_t first = reply.find(':');
  const size_t last = reply.rfind(':');
  if (first == std::string::npos || last <= first) return false;
  *rid = reply.substr(first + 1, last - first - 1);
  *count = std::strtoull(reply.c_str() + last + 1, nullptr, 10);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::string host = "127.0.0.1";
  uint16_t port = 0;
  rrq::testing::Subprocess daemon;
  std::string dir;
  const bool own_daemon = argc < 3;

  if (own_daemon) {
    char dir_template[] = "/tmp/rrq_frontend_XXXXXX";
    if (mkdtemp(dir_template) == nullptr) return 1;
    dir = dir_template;
    printf("Spawning a private rrqd (state in %s)...\n", dir.c_str());
    if (!daemon.Spawn({RRQD_BINARY, "--dir", dir, "--port", "0"}).ok()) {
      return 1;
    }
    auto line = daemon.WaitForLine("listening on", 30'000'000);
    if (!line.ok()) {
      fprintf(stderr, "rrqd: %s\n", line.status().ToString().c_str());
      return 1;
    }
    const size_t colon = line->rfind(':');
    port = static_cast<uint16_t>(
        std::strtoul(line->c_str() + colon + 1, nullptr, 10));
  } else {
    host = argv[1];
    port = static_cast<uint16_t>(std::strtoul(argv[2], nullptr, 10));
  }
  printf("Queue manager at %s:%u\n", host.c_str(), port);

  net::TcpChannelOptions channel_options;
  channel_options.host = host;
  channel_options.port = port;
  channel_options.max_connect_attempts = 25;
  net::TcpChannel channel(channel_options);
  net::ChannelQueueApi api(&channel);

  // Out-of-process clients provision their own reply queue.
  if (Status s = api.CreateQueue("reply.front-end");
      !s.ok() && !s.IsAlreadyExists()) {
    fprintf(stderr, "create reply queue: %s\n", s.ToString().c_str());
    return 1;
  }

  core::PropertyChecker checker;
  client::ReliableClientOptions options;
  options.clerk.client_id = "front-end";
  options.clerk.request_queue = "requests";
  options.clerk.reply_queue = "reply.front-end";
  options.clerk.api = &api;
  options.clerk.receive_timeout_micros = 200'000;
  options.max_recovery_attempts = 64;
  client::ReliableClient front_end(
      options, [&checker](const rrq::queue::ReplyEnvelope& reply,
                          bool /*maybe_dup*/) {
        std::string rid;
        uint64_t count = 0;
        if (ParseReply(reply.body, &rid, &count)) {
          checker.RecordReplyProcessed(rid);
          for (uint64_t e = 0; e < count; ++e) {
            checker.RecordCommittedExecution(rid);
          }
        }
        return Status::OK();
      });
  if (Status s = front_end.Start(); !s.ok()) {
    fprintf(stderr, "client start: %s\n", s.ToString().c_str());
    return 1;
  }

  printf("Submitting 20 orders over TCP...\n");
  for (int i = 1; i <= 20; ++i) {
    if (own_daemon && i == 11) {
      // The back end dies — SIGKILL, no shutdown — and comes back on
      // the same port and state directory. The client rides it out by
      // reconnecting; its in-flight request is never blindly resent.
      printf("  [SIGKILL to rrqd after request 10; restarting it]\n");
      if (!daemon.Signal(SIGKILL).ok()) return 1;
      (void)daemon.Wait();
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
      if (!daemon
               .Spawn({RRQD_BINARY, "--dir", dir, "--port",
                       std::to_string(port)})
               .ok()) {
        return 1;
      }
      if (!daemon.WaitForLine("listening on", 30'000'000).ok()) return 1;
    }
    checker.RecordSubmission("front-end#" + std::to_string(i));
    auto reply = front_end.Execute("order-" + std::to_string(i));
    if (!reply.ok()) {
      fprintf(stderr, "execute: %s\n", reply.status().ToString().c_str());
      return 1;
    }
    if (i % 5 == 0 || i == 11) {
      printf("  order %2d -> \"%s\"\n", i, reply->c_str());
    }
  }
  printf("Reconnects used by the channel: %llu\n",
         static_cast<unsigned long long>(channel.connects()));

  (void)front_end.Stop();
  if (own_daemon) {
    (void)daemon.Signal(SIGTERM);
    (void)daemon.Wait();
  }

  auto verdict = checker.Check();
  printf("\nGuarantees: exactly-once=%s, replies-processed=%s "
         "(%llu submitted, %llu duplicates, %llu lost)\n",
         verdict.ExactlyOnceHolds() ? "HOLDS" : "VIOLATED",
         verdict.AtLeastOnceRepliesHold() ? "HOLDS" : "VIOLATED",
         static_cast<unsigned long long>(verdict.submitted),
         static_cast<unsigned long long>(verdict.duplicate_executions),
         static_cast<unsigned long long>(verdict.lost_requests));
  return verdict.AllHold() ? 0 : 1;
}
