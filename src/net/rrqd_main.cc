// rrqd — the recoverable-request queue daemon.
//
// Hosts a durable queue repository (plus a transaction manager and a
// demo request server over a KvStore hosted on the repository) and
// serves the queue-service byte protocol over TCP, so clerks in *other processes* run the
// paper's client protocol against a queue manager that really can be
// killed and restarted out from under them. All state lives under
// --dir; a restart with the same --dir recovers it from the WALs.
//
//   rrqd --dir /var/lib/rrqd [--host 127.0.0.1] [--port 0]
//        [--threads 2] [--workers N] [--request-queue requests]
//        [--no-server]
//        [--role primary|backup] [--replicate-to H:P] [--repl-port P]
//        [--repl-mode async|ack] [--audit-queue NAME]
//
// --workers sizes the TCP handler pool (0 = hardware concurrency):
// that many queue-service requests execute in parallel, their commits
// coalescing into group-commit batches. Long-poll Dequeues are kept
// off the pool via the blocking hint, so parked clerks never starve
// short ops.
//
// --port 0 binds an ephemeral port; the actual address is announced on
// stdout as "rrqd: listening on <host>:<port> (pid <pid>)". The
// built-in server executes each request transactionally: it increments
// a per-rid execution counter in the KvStore and replies
// "done:<rid>:<count>" — so a post-mortem inspection of the store
// reveals exactly how many times each request executed, which is what
// the cross-process exactly-once test verifies. The store has no files
// of its own: its writes ride the queue log (server::ExecBackend), so
// a server transaction forces once, however many queue shards it
// touches.
//
// Fail-stop: when an append or sync fails on a queue WAL, rrqd prints
// "rrqd: fail-stop shard=<i> error=<status>" on stderr within 50 ms and
// exits 1; a restart recovers what the log holds.
//
// Replication: "--role primary --replicate-to H:P" ships every
// committed record to the backup daemon's replication listener at
// H:P; "--repl-mode ack" additionally holds each client op's reply
// until the backup acknowledged every record appended before the op
// finished (semi-synchronous — commits never wait, the local commit
// stands, and an ack timeout replaces the reply with Unavailable).
// "--role backup --repl-port P" serves the replication protocol on a
// second listener (announced as "rrqd: repl listening on <host>:<port>")
// and refuses client writes until a Promote admin op arrives; the
// demo server is only started at promotion, against the replicated
// state. --audit-queue makes the demo server enqueue
// "exec:<rid>:<count>" into that queue atomically with each
// execution, giving failover tests a replicated audit trail of
// exactly which requests executed.

#include <unistd.h>

#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>

#include "env/env.h"
#include "net/queue_wire.h"
#include "net/tcp_transport.h"
#include "queue/envelope.h"
#include "queue/queue_repository.h"
#include "repl/ack_gate.h"
#include "repl/replica_applier.h"
#include "repl/replication_log.h"
#include "repl/replication_sender.h"
#include "server/exec_backend.h"
#include "server/server.h"
#include "util/random.h"
#include "util/thread_annotations.h"

namespace {

volatile std::sig_atomic_t g_stop = 0;

// Ack mode's bound on one wait for the backup. A timeout replaces the
// reply with Unavailable; the local commit stands.
constexpr uint64_t kAckTimeoutMicros = 5'000'000;

void HandleSignal(int /*sig*/) { g_stop = 1; }

void Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --dir <state-dir> [--host H] [--port P] "
               "[--threads N] [--workers N] [--shards N] "
               "[--request-queue NAME] [--no-server]\n"
               "  [--role primary|backup] [--replicate-to H:P] "
               "[--repl-port P] [--repl-mode async|ack] "
               "[--audit-queue NAME]\n"
               "  --shards N  queue-repository shards (per-shard WAL "
               "streams; 0 = hardware concurrency).\n"
               "              An existing --dir keeps its on-disk shard "
               "count.\n"
               "  --role primary requires --replicate-to; --role backup "
               "serves replication on --repl-port\n"
               "              and refuses writes until promoted.\n",
               argv0);
}

// "host:port" -> (host, port). False on malformed input.
bool ParseHostPort(const std::string& in, std::string* host, uint16_t* port) {
  const size_t colon = in.rfind(':');
  if (colon == std::string::npos || colon == 0 || colon + 1 >= in.size()) {
    return false;
  }
  const long p = std::strtol(in.c_str() + colon + 1, nullptr, 10);
  if (p <= 0 || p > 65535) return false;
  *host = in.substr(0, colon);
  *port = static_cast<uint16_t>(p);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace rrq;

  std::string dir;
  std::string host = "127.0.0.1";
  std::string request_queue = "requests";
  std::string audit_queue;
  std::string role = "standalone";
  std::string replicate_to;
  int port = 0;
  int repl_port = 0;
  int threads = 1;
  int workers = 0;  // 0 = hardware concurrency
  int shards = 0;   // 0 = hardware concurrency
  bool run_server = true;
  bool repl_ack = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        Usage(argv[0]);
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--dir") {
      dir = next();
    } else if (arg == "--host") {
      host = next();
    } else if (arg == "--port") {
      port = std::atoi(next());
    } else if (arg == "--threads") {
      threads = std::atoi(next());
    } else if (arg == "--workers") {
      workers = std::atoi(next());
    } else if (arg == "--shards") {
      shards = std::atoi(next());
    } else if (arg == "--request-queue") {
      request_queue = next();
    } else if (arg == "--audit-queue") {
      audit_queue = next();
    } else if (arg == "--no-server") {
      run_server = false;
    } else if (arg == "--role") {
      role = next();
    } else if (arg == "--replicate-to") {
      replicate_to = next();
    } else if (arg == "--repl-port") {
      repl_port = std::atoi(next());
    } else if (arg == "--repl-mode") {
      const std::string mode = next();
      if (mode == "ack") {
        repl_ack = true;
      } else if (mode == "async") {
        repl_ack = false;
      } else {
        Usage(argv[0]);
        return 2;
      }
    } else {
      Usage(argv[0]);
      return 2;
    }
  }
  if (dir.empty() || port < 0 || port > 65535 || repl_port < 0 ||
      repl_port > 65535 || threads < 1 || workers < 0 || shards < 0) {
    Usage(argv[0]);
    return 2;
  }
  if (role != "standalone" && role != "primary" && role != "backup") {
    Usage(argv[0]);
    return 2;
  }
  const bool is_primary = role == "primary";
  const bool is_backup = role == "backup";
  std::string backup_host;
  uint16_t backup_port = 0;
  if (is_primary &&
      !ParseHostPort(replicate_to, &backup_host, &backup_port)) {
    std::fprintf(stderr, "rrqd: --role primary needs --replicate-to H:P\n");
    return 2;
  }

  // Primary role: every commit's record is appended to the in-memory
  // replication log, which the sender drains to the backup. The sink
  // runs under the repository's per-shard delivery tickets, so log
  // order is apply order, and it never blocks: in ack mode the wait
  // for the backup happens at the reply (the dispatcher's reply gate
  // below), not at the commit.
  repl::ReplicationLog repl_log;
  std::unique_ptr<repl::ReplicationSender> sender;  // Created below.
  std::unique_ptr<repl::AckGate> ack_gate;          // Ack mode only.

  // Durable back end: coordinator, queue repository, and the demo
  // server's database hosted on it, all recovering from the WALs
  // under --dir.
  queue::RepositoryOptions repo_options;
  repo_options.shards = static_cast<unsigned>(shards);
  if (is_primary) {
    repo_options.replication_sink = [&repl_log](const Slice& record) {
      repl_log.Append(record.ToString());
      return Status::OK();
    };
  }
  server::ExecBackend backend;
  if (Status s = backend.Open(env::Env::Default(), dir, repo_options);
      !s.ok()) {
    std::fprintf(stderr, "rrqd: open %s: %s\n", dir.c_str(),
                 s.ToString().c_str());
    return 1;
  }
  queue::QueueRepository& repo = *backend.repo();
  // A backup must stay empty until the primary seeds it (the applier
  // refuses to adopt a stream into a non-empty repository), so its
  // queues are only provisioned at promotion — and usually arrive
  // from the primary's snapshot anyway.
  auto provision_queues = [&]() -> Status {
    if (Status s = repo.CreateQueue(request_queue);
        !s.ok() && !s.IsAlreadyExists()) {
      return s;
    }
    if (!audit_queue.empty()) {
      if (Status s = repo.CreateQueue(audit_queue);
          !s.ok() && !s.IsAlreadyExists()) {
        return s;
      }
    }
    return Status::OK();
  };
  if (!is_backup) {
    if (Status s = provision_queues(); !s.ok()) {
      std::fprintf(stderr, "rrqd: create queue: %s\n", s.ToString().c_str());
      return 1;
    }
  }

  // The demo back end: count executions per rid, transactionally with
  // the dequeue/reply, so every request's execution count is exactly
  // the number of committed server transactions that processed it.
  // The count commits in the queue log, so replication ships it and a
  // promoted backup's database holds the primary's counts. With
  // --audit-queue each execution also enqueues an audit record in the
  // same transaction, for failover tests that audit the queue too.
  std::unique_ptr<server::Server> server;
  auto start_server = [&]() -> Status {
    server::ServerOptions server_options;
    server_options.name = "rrqd-server";
    server_options.request_queue = request_queue;
    server_options.threads = threads;
    server = std::make_unique<server::Server>(
        server_options, &repo, backend.txn_mgr(),
        backend.Handler(audit_queue));
    return server->Start();
  };
  // A backup's server starts at promotion instead: until then the
  // replicated request queue must only be consumed by the primary.
  if (run_server && !is_backup) {
    if (Status s = start_server(); !s.ok()) {
      std::fprintf(stderr, "rrqd: server: %s\n", s.ToString().c_str());
      return 1;
    }
  }

  // Backup role: the applier serves the replication protocol on its
  // own listener and client writes are gated off until promotion.
  repl::ReplicaApplierOptions applier_options;
  applier_options.env = env::Env::Default();
  applier_options.dir = dir;  // REPL_STREAM beside txn/ and qm/.
  applier_options.repo = &repo;
  repl::ReplicaApplier applier(applier_options);
  std::unique_ptr<net::TcpServer> repl_server;
  if (is_backup) {
    if (Status s = applier.Open(); !s.ok()) {
      std::fprintf(stderr, "rrqd: applier: %s\n", s.ToString().c_str());
      return 1;
    }
    net::TcpServerOptions repl_tcp_options;
    repl_tcp_options.bind_address = host;
    repl_tcp_options.port = static_cast<uint16_t>(repl_port);
    // One sender keeps one call in flight and the applier serializes on
    // its own lock, so more workers add no parallelism — only threads
    // whose allocator caches each hold on to multi-record Ship buffers.
    repl_tcp_options.workers = 1;
    repl_server = std::make_unique<net::TcpServer>(
        repl_tcp_options,
        [&applier](const Slice& request, std::string* reply) {
          return applier.Handle(request, reply);
        });
    if (Status s = repl_server->Start(); !s.ok()) {
      std::fprintf(stderr, "rrqd: repl listen: %s\n", s.ToString().c_str());
      return 1;
    }
  }

  net::QueueServiceDispatcher dispatcher(&repo);
  if (is_backup) {
    dispatcher.set_write_gate([&applier]() {
      if (applier.promoted()) return Status::OK();
      return Status::FailedPrecondition(
          "backup refuses writes until promoted");
    });
    // Promotion: seal the applier against the dead primary's stream,
    // provision any queues the seed never carried, and bring up the
    // demo server over the replicated request queue. Serialized +
    // idempotent — concurrent Promote ops from racing operators must
    // not double-start the server.
    static Mutex promote_mu;
    static bool promote_done = false;
    dispatcher.set_promote_fn([&]() -> Status {
      MutexLock lock(promote_mu);
      if (promote_done) return Status::OK();
      const uint64_t cut = applier.Promote();
      RRQ_RETURN_IF_ERROR(provision_queues());
      if (run_server) RRQ_RETURN_IF_ERROR(start_server());
      promote_done = true;
      std::printf("rrqd: promoted at seq %llu\n",
                  static_cast<unsigned long long>(cut));
      std::fflush(stdout);
      return Status::OK();
    });
    dispatcher.set_replication_status_fn([&applier]() {
      net::ReplStatusInfo info;
      info.role = "backup";
      info.promoted = applier.promoted();
      info.state = info.promoted ? "promoted" : "applying";
      info.stream_id = applier.stream_id();
      info.acked_seq = applier.applied_seq();
      info.head_seq = info.acked_seq;
      return info;
    });
  }

  // Primary role: per-boot random stream identity (a restarted
  // primary is a new stream — its in-memory log restarts at 1, so the
  // backup must be reseeded rather than silently double-applied).
  if (is_primary) {
    util::Rng rng(static_cast<uint64_t>(
                      std::chrono::steady_clock::now().time_since_epoch().count()) ^
                  (static_cast<uint64_t>(getpid()) << 32));
    uint64_t stream_id = 0;
    while (stream_id == 0) stream_id = rng.Next();
    repl::ReplicationSenderOptions sender_options;
    sender_options.host = backup_host;
    sender_options.port = backup_port;
    sender_options.stream_id = stream_id;
    sender = std::make_unique<repl::ReplicationSender>(sender_options,
                                                       &repl_log, &repo);
    if (Status s = sender->Start(); !s.ok()) {
      std::fprintf(stderr, "rrqd: sender: %s\n", s.ToString().c_str());
      return 1;
    }
    if (repl_ack) {
      // Output commit: a client op's reply waits until the backup
      // acked every record appended before the op finished. Boot-time
      // commits (queue provisioning, recovery) are not client output
      // and never wait.
      ack_gate = std::make_unique<repl::AckGate>(
          &repl_log,
          [&sender]() { return sender->state().state == "shipping"; },
          kAckTimeoutMicros);
      dispatcher.set_reply_gate([&ack_gate]() {
        return ack_gate->WaitForHead();
      });
    }
    dispatcher.set_replication_status_fn([&sender]() {
      const repl::ReplicationState st = sender->state();
      net::ReplStatusInfo info;
      info.role = "primary";
      info.state = st.state;
      info.stream_id = st.stream_id;
      info.acked_seq = st.acked_seq;
      info.head_seq = st.head_seq;
      info.reconnects = st.reconnects;
      info.last_error = st.last_error;
      return info;
    });
  }

  net::TcpServerOptions tcp_options;
  tcp_options.bind_address = host;
  tcp_options.port = static_cast<uint16_t>(port);
  tcp_options.workers = workers;
  net::TcpServer tcp(tcp_options,
                     [&dispatcher](const Slice& request, std::string* reply) {
                       return dispatcher.Handle(request, reply);
                     });
  tcp.set_blocking_hint(
      [](const Slice& request) { return net::QueueRequestMayBlock(request); });
  // A one-way enqueue sends no reply, so it has no output to hold at
  // the reply gate; the sender's next gated op covers its record.
  tcp.set_one_way_handler(
      [&dispatcher](const Slice& request) {
        dispatcher.HandleOneWay(request);
      });
  if (Status s = tcp.Start(); !s.ok()) {
    std::fprintf(stderr, "rrqd: listen: %s\n", s.ToString().c_str());
    return 1;
  }

  std::signal(SIGTERM, HandleSignal);
  std::signal(SIGINT, HandleSignal);

  std::printf("rrqd: listening on %s:%u (pid %d)\n", host.c_str(),
              static_cast<unsigned>(tcp.port()), static_cast<int>(getpid()));
  if (repl_server != nullptr) {
    std::printf("rrqd: repl listening on %s:%u\n", host.c_str(),
                static_cast<unsigned>(repl_server->port()));
  }
  std::fflush(stdout);

  while (!g_stop) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    // Fail-stop: a poisoned queue WAL can no longer vouch for what it
    // acknowledges, and memory may hold effects the log lost. Stop at
    // once and let restart recovery decide what is durable.
    size_t shard = 0;
    if (Status wal = repo.wal_error(&shard); !wal.ok()) {
      std::fprintf(stderr, "rrqd: fail-stop shard=%zu error=%s\n", shard,
                   wal.ToString().c_str());
      std::fflush(stderr);
      std::_Exit(1);
    }
  }

  std::printf("rrqd: shutting down\n");
  std::fflush(stdout);
  if (ack_gate != nullptr) {
    std::fprintf(stderr,
                 "rrqd: ack_gate calls=%llu waits=%llu timeouts=%llu\n",
                 static_cast<unsigned long long>(ack_gate->calls()),
                 static_cast<unsigned long long>(ack_gate->waits()),
                 static_cast<unsigned long long>(ack_gate->timeouts()));
  }
  if (sender != nullptr) sender->Stop();
  repl_log.Shutdown();
  tcp.Stop();
  if (repl_server != nullptr) repl_server->Stop();
  if (server != nullptr) server->Stop();
  return 0;
}
