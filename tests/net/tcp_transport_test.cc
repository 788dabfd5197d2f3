#include "net/tcp_transport.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "net/frame.h"
#include "net/queue_wire.h"
#include "net/wire.h"
#include "queue/queue_repository.h"
#include "util/coding.h"

namespace rrq::net {
namespace {

TcpChannelOptions ChannelTo(uint16_t port) {
  TcpChannelOptions options;
  options.port = port;
  options.max_connect_attempts = 3;
  options.backoff_initial_micros = 1'000;
  return options;
}

TEST(TcpTransportTest, CallRoundTrip) {
  TcpServer server(TcpServerOptions{}, [](const Slice& request, std::string* reply) {
    reply->assign("echo:" + request.ToString());
    return Status::OK();
  });
  ASSERT_TRUE(server.Start().ok());
  ASSERT_NE(server.port(), 0);

  TcpChannel channel(ChannelTo(server.port()));
  std::string reply;
  ASSERT_TRUE(channel.Call("ping", &reply).ok());
  EXPECT_EQ(reply, "echo:ping");
  ASSERT_TRUE(channel.Call("pong", &reply).ok());
  EXPECT_EQ(reply, "echo:pong");
  EXPECT_EQ(channel.connects(), 1u);
  EXPECT_EQ(server.requests_served(), 2u);
}

// perfbench reads io_stats().io_syscalls() on both ends of the wire.
TEST(TcpTransportTest, ServerIoStatsCountLoopSyscalls) {
  TcpServer server(TcpServerOptions{}, [](const Slice& request, std::string* reply) {
    reply->assign(request.ToString());
    return Status::OK();
  });
  ASSERT_TRUE(server.Start().ok());
  TcpChannel channel(ChannelTo(server.port()));
  std::string reply;
  ASSERT_TRUE(channel.Call("x", &reply).ok());

  const IoLoopStats stats = server.io_stats();
  EXPECT_GT(stats.waits, 0u);
  EXPECT_GT(stats.recvs, 0u);
  EXPECT_GT(stats.sends, 0u);
  EXPECT_EQ(stats.io_syscalls(), stats.waits + stats.recvs + stats.sends);
}

TEST(TcpTransportTest, ChannelIoStatsCountReaderSyscalls) {
  TcpServer server(TcpServerOptions{}, [](const Slice& request, std::string* reply) {
    reply->assign(request.ToString());
    return Status::OK();
  });
  ASSERT_TRUE(server.Start().ok());
  TcpChannel channel(ChannelTo(server.port()));
  std::string reply;
  ASSERT_TRUE(channel.Call("x", &reply).ok());

  // The reply is dispatched before the reader goes back to poll(), so
  // the first wait may still be on its way.
  IoLoopStats stats = channel.io_stats();
  for (int i = 0; i < 500 && stats.waits == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    stats = channel.io_stats();
  }
  EXPECT_GT(stats.waits, 0u);
  EXPECT_GT(stats.recvs, 0u);
  EXPECT_GT(stats.sends, 0u);
  EXPECT_EQ(stats.io_syscalls(), stats.waits + stats.recvs + stats.sends);
}

TEST(TcpTransportTest, HandlerErrorStatusPropagates) {
  TcpServer server(TcpServerOptions{}, [](const Slice& request, std::string* /*reply*/) {
    return Status::NotFound("no queue " + request.ToString());
  });
  ASSERT_TRUE(server.Start().ok());

  TcpChannel channel(ChannelTo(server.port()));
  std::string reply;
  Status s = channel.Call("q1", &reply);
  EXPECT_TRUE(s.IsNotFound()) << s.ToString();
  // The connection survives an application-level error.
  s = channel.Call("q2", &reply);
  EXPECT_TRUE(s.IsNotFound()) << s.ToString();
  EXPECT_EQ(channel.connects(), 1u);
}

TEST(TcpTransportTest, LargePayloadRoundTrip) {
  TcpServer server(TcpServerOptions{}, [](const Slice& request, std::string* reply) {
    reply->assign(request.ToString());
    return Status::OK();
  });
  ASSERT_TRUE(server.Start().ok());

  TcpChannel channel(ChannelTo(server.port()));
  std::string big(1 << 20, 'x');
  big[12345] = 'y';
  std::string reply;
  ASSERT_TRUE(channel.Call(big, &reply).ok());
  EXPECT_EQ(reply, big);
}

TEST(TcpTransportTest, NoServerIsUnavailable) {
  TcpServer probe({}, [](const Slice&, std::string*) { return Status::OK(); });
  ASSERT_TRUE(probe.Start().ok());
  const uint16_t dead_port = probe.port();
  probe.Stop();

  TcpChannel channel(ChannelTo(dead_port));
  std::string reply;
  Status s = channel.Call("ping", &reply);
  EXPECT_TRUE(s.IsUnavailable()) << s.ToString();
}

TEST(TcpTransportTest, ReconnectsAfterServerRestartOnSamePort) {
  auto echo = [](const Slice& request, std::string* reply) {
    reply->assign(request.ToString());
    return Status::OK();
  };
  auto server = std::make_unique<TcpServer>(TcpServerOptions{}, echo);
  ASSERT_TRUE(server->Start().ok());
  const uint16_t port = server->port();

  TcpChannelOptions options = ChannelTo(port);
  options.max_connect_attempts = 10;
  TcpChannel channel(options);
  std::string reply;
  ASSERT_TRUE(channel.Call("one", &reply).ok());

  // Server goes down: in-flight channel state is now garbage.
  server->Stop();
  server.reset();
  Status s = channel.Call("two", &reply);
  EXPECT_TRUE(s.IsUnavailable()) << s.ToString();

  // Server comes back on the same port; the channel recovers by
  // reconnecting on the next Call — never by resending "two".
  TcpServerOptions restart_options;
  restart_options.port = port;
  server = std::make_unique<TcpServer>(restart_options, echo);
  ASSERT_TRUE(server->Start().ok());

  Status recovered = Status::Unavailable("never called");
  for (int attempt = 0; attempt < 10; ++attempt) {
    recovered = channel.Call("three", &reply);
    if (recovered.ok()) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  ASSERT_TRUE(recovered.ok()) << recovered.ToString();
  EXPECT_EQ(reply, "three");
  EXPECT_GE(channel.connects(), 2u);
}

// The reconnect backoff must not hold the channel lock. While a Call
// retries a dead target, SetTarget (the failover repoint) returns at
// once and wakes the Call, which then connects to the new target. No
// request bytes left before the switch, so the Call's one send is a
// first send, not a resend (§2).
TEST(TcpTransportTest, SetTargetInterruptsReconnectBackoff) {
  TcpServer probe({}, [](const Slice&, std::string*) { return Status::OK(); });
  ASSERT_TRUE(probe.Start().ok());
  const uint16_t dead_port = probe.port();
  probe.Stop();
  TcpServer live(TcpServerOptions{}, [](const Slice& request, std::string* reply) {
    reply->assign("echo:" + request.ToString());
    return Status::OK();
  });
  ASSERT_TRUE(live.Start().ok());

  TcpChannelOptions options = ChannelTo(dead_port);
  options.max_connect_attempts = 10;
  options.backoff_initial_micros = 500'000;
  options.backoff_max_micros = 500'000;
  TcpChannel channel(options);

  Status call_status;
  std::string reply;
  std::thread caller([&] { call_status = channel.Call("ping", &reply); });
  // The first attempt is refused at once; the caller is now backing off.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  const auto start = std::chrono::steady_clock::now();
  channel.SetTarget("127.0.0.1", live.port());
  const auto took = std::chrono::steady_clock::now() - start;
  caller.join();

  EXPECT_LT(took, std::chrono::milliseconds(100));
  ASSERT_TRUE(call_status.ok()) << call_status.ToString();
  EXPECT_EQ(reply, "echo:ping");
  EXPECT_EQ(live.requests_served(), 1u);
}

TEST(TcpTransportTest, OneWayIsDeliveredWithoutReply) {
  std::atomic<int> one_ways{0};
  TcpServer server(TcpServerOptions{}, [&one_ways](const Slice& request, std::string* reply) {
    if (request == Slice("oneway")) {
      one_ways.fetch_add(1);
    } else {
      reply->assign("acked");
    }
    return Status::OK();
  });
  ASSERT_TRUE(server.Start().ok());

  TcpChannel channel(ChannelTo(server.port()));
  ASSERT_TRUE(channel.SendOneWay("oneway").ok());
  // The server dispatches to a worker pool, so a call submitted after
  // the one-way may complete first; poll instead of relying on
  // ordering.
  std::string reply;
  ASSERT_TRUE(channel.Call("sync", &reply).ok());
  EXPECT_EQ(reply, "acked");
  for (int i = 0; i < 200 && one_ways.load() == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_EQ(one_ways.load(), 1);
  EXPECT_EQ(channel.one_ways_lost(), 0u);
}

TEST(TcpTransportTest, OneWayHandlerServesOnlyOneWayFrames) {
  std::atomic<int> rpc_calls{0};
  std::atomic<int> one_ways{0};
  TcpServer server(TcpServerOptions{},
                   [&rpc_calls](const Slice&, std::string* reply) {
                     rpc_calls.fetch_add(1);
                     reply->assign("acked");
                     return Status::OK();
                   });
  server.set_one_way_handler([&one_ways](const Slice& message) {
    if (message == Slice("oneway")) one_ways.fetch_add(1);
  });
  ASSERT_TRUE(server.Start().ok());

  TcpChannel channel(ChannelTo(server.port()));
  ASSERT_TRUE(channel.SendOneWay("oneway").ok());
  std::string reply;
  ASSERT_TRUE(channel.Call("sync", &reply).ok());
  EXPECT_EQ(reply, "acked");
  for (int i = 0; i < 200 && one_ways.load() == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_EQ(one_ways.load(), 1);
  EXPECT_EQ(rpc_calls.load(), 1);
}

TEST(TcpTransportTest, OneWayToDeadServerIsSilentlyLost) {
  TcpServer probe({}, [](const Slice&, std::string*) { return Status::OK(); });
  ASSERT_TRUE(probe.Start().ok());
  const uint16_t dead_port = probe.port();
  probe.Stop();

  TcpChannel channel(ChannelTo(dead_port));
  // §5 contract: no failure signal for a lost one-way.
  EXPECT_TRUE(channel.SendOneWay("lost").ok());
  EXPECT_EQ(channel.one_ways_lost(), 1u);
}

TEST(TcpTransportTest, CallDeadlineExpiresAsUnavailable) {
  TcpServer server(TcpServerOptions{}, [](const Slice&, std::string* reply) {
    std::this_thread::sleep_for(std::chrono::milliseconds(500));
    reply->assign("late");
    return Status::OK();
  });
  ASSERT_TRUE(server.Start().ok());

  TcpChannelOptions options = ChannelTo(server.port());
  options.call_timeout_micros = 50'000;
  TcpChannel channel(options);
  std::string reply;
  Status s = channel.Call("slow", &reply);
  EXPECT_TRUE(s.IsUnavailable()) << s.ToString();
}

TEST(TcpTransportTest, GarbageBytesDropTheConnection) {
  TcpServer server(TcpServerOptions{}, [](const Slice&, std::string* reply) {
    reply->assign("ok");
    return Status::OK();
  });
  ASSERT_TRUE(server.Start().ok());

  // Raw socket spraying non-frame bytes at the server.
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(server.port());
  ASSERT_EQ(inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  ASSERT_EQ(connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  const char garbage[] = "\xff\xff\xff\xff not a frame at all";
  ASSERT_GT(send(fd, garbage, sizeof(garbage), MSG_NOSIGNAL), 0);

  // The server must close on us (recv sees EOF), not crash or hang.
  char buf[64];
  ssize_t n = -1;
  for (int i = 0; i < 100; ++i) {
    n = recv(fd, buf, sizeof(buf), 0);
    if (n >= 0) break;
  }
  EXPECT_EQ(n, 0);
  close(fd);
  EXPECT_GE(server.protocol_errors(), 1u);

  // And keeps serving well-behaved clients.
  TcpChannel channel(ChannelTo(server.port()));
  std::string reply;
  ASSERT_TRUE(channel.Call("still alive?", &reply).ok());
  EXPECT_EQ(reply, "ok");
}

TEST(TcpTransportTest, InvalidAddressFailsFastWithoutRetry) {
  TcpChannelOptions options;
  options.host = "not-a-host-name";
  options.port = 1;
  TcpChannel channel(options);
  std::string reply;
  Status s = channel.Call("x", &reply);
  EXPECT_TRUE(s.IsInvalidArgument()) << s.ToString();
}

TEST(TcpTransportTest, PeerResetDuringBackpressuredFlushIsSurvived) {
  // A client that never reads, asking for replies far larger than its
  // receive window, leaves each flush parked on the loop (EPOLLOUT).
  // Resetting it mid-flush makes the
  // parked write fail with ECONNRESET or EPIPE; without MSG_NOSIGNAL
  // on that write, EPIPE raises SIGPIPE and kills this process.
  const std::string big(1 << 20, 'x');
  TcpServerOptions options;
  options.workers = 2;
  TcpServer server(options, [&big](const Slice&, std::string* reply) {
    reply->assign(big);
    return Status::OK();
  });
  ASSERT_TRUE(server.Start().ok());

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(server.port());
  ASSERT_EQ(inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  constexpr int kPeers = 16;
  constexpr int kCallsPerPeer = 8;
  for (int peer = 0; peer < kPeers; ++peer) {
    const int fd = socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    int rcvbuf = 4096;
    setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof(rcvbuf));
    ASSERT_EQ(connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
              0);
    std::string frames;
    for (int id = 1; id <= kCallsPerPeer; ++id) {
      std::string payload(1, static_cast<char>(kMsgCall));
      util::PutVarint64(&payload, static_cast<uint64_t>(id));
      payload += "gimme";
      AppendFrame(&frames, payload);
    }
    ASSERT_EQ(send(fd, frames.data(), frames.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(frames.size()));
    // Let the replies pile up against the full window, then reset.
    for (int i = 0; i < 200 && server.requests_served() <
                                   static_cast<uint64_t>((peer + 1) *
                                                         kCallsPerPeer);
         ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    linger reset{1, 0};
    setsockopt(fd, SOL_SOCKET, SO_LINGER, &reset, sizeof(reset));
    close(fd);
  }

  // Still alive, and still serving.
  for (int i = 0; i < 500 && server.active_connections() != 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_EQ(server.active_connections(), 0u);
  TcpChannel channel(ChannelTo(server.port()));
  std::string reply;
  ASSERT_TRUE(channel.Call("after", &reply).ok());
  EXPECT_EQ(reply.size(), big.size());
}

// ---- Multiplexing, deadlines, reconnects -----------------------------

TEST(TcpTransportTest, ConcurrentCallsOnSharedChannelDemuxCorrectly) {
  // Many threads share ONE channel; the server's worker pool completes
  // requests out of submission order (the handler sleeps longer for
  // lower-numbered requests), so the reply demux must route every
  // reply to the call that made the matching request.
  TcpServer server(TcpServerOptions{}, [](const Slice& request, std::string* reply) {
    const std::string body = request.ToString();
    const int shuffle = 1 + static_cast<int>(body.size() % 5);
    std::this_thread::sleep_for(std::chrono::milliseconds(shuffle));
    reply->assign("echo:" + body);
    return Status::OK();
  });
  ASSERT_TRUE(server.Start().ok());

  TcpChannel channel(ChannelTo(server.port()));
  constexpr int kThreads = 8;
  constexpr int kCallsPerThread = 25;
  std::atomic<int> mismatches{0};
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kCallsPerThread; ++i) {
        const std::string request =
            "t" + std::to_string(t) + ":" + std::to_string(i) +
            std::string(static_cast<size_t>(i % 7), '.');
        std::string reply;
        Status s = channel.Call(request, &reply);
        if (!s.ok()) {
          failures.fetch_add(1);
        } else if (reply != "echo:" + request) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(mismatches.load(), 0);
  // All of it over a single multiplexed connection.
  EXPECT_EQ(channel.connects(), 1u);
  EXPECT_EQ(server.requests_served(),
            static_cast<uint64_t>(kThreads * kCallsPerThread));
}

TEST(TcpTransportTest, DeadlineExpiryDoesNotPoisonTheConnection) {
  // Explicit worker count: with the default (hardware concurrency, 1
  // on small CI machines) the slow request would occupy the only
  // worker and starve the fast one into its own deadline.
  TcpServerOptions server_options;
  server_options.workers = 4;
  TcpServer server(server_options, [](const Slice& request,
                                      std::string* reply) {
    if (request == Slice("slow")) {
      std::this_thread::sleep_for(std::chrono::milliseconds(300));
    }
    reply->assign("done:" + request.ToString());
    return Status::OK();
  });
  ASSERT_TRUE(server.Start().ok());

  TcpChannelOptions options = ChannelTo(server.port());
  options.call_timeout_micros = 60'000;
  TcpChannel channel(options);

  std::string reply;
  Status s = channel.Call("slow", &reply);
  EXPECT_TRUE(s.IsUnavailable()) << s.ToString();
  EXPECT_EQ(channel.deadline_expiries(), 1u);

  // The very next call succeeds on the SAME connection: only the one
  // call failed, not the channel.
  ASSERT_TRUE(channel.Call("fast", &reply).ok());
  EXPECT_EQ(reply, "done:fast");
  EXPECT_EQ(channel.connects(), 1u);

  // The straggler reply for "slow" eventually arrives and is discarded
  // by correlation id instead of corrupting a later call.
  for (int i = 0; i < 300 && channel.late_replies() == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(channel.late_replies(), 1u);
  ASSERT_TRUE(channel.Call("after", &reply).ok());
  EXPECT_EQ(reply, "done:after");
  EXPECT_EQ(channel.connects(), 1u);
}

TEST(TcpTransportTest, PeerClosingFirstConnectionDoesNotSerializeTheChannel) {
  // Regression: the channel used to read any close right after its
  // first frame as "this server is too old to multiplex" and pinned
  // itself to one call in flight until SetTarget. A stopping or
  // SIGKILLed daemon closing a backlogged connection does exactly that,
  // so one restart serialized a ClerkPool for its lifetime.
  const int listen_fd = socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(listen_fd, 0);
  int one = 1;
  setsockopt(listen_fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(bind(listen_fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  ASSERT_EQ(listen(listen_fd, 8), 0);
  socklen_t len = sizeof(addr);
  ASSERT_EQ(
      getsockname(listen_fd, reinterpret_cast<sockaddr*>(&addr), &len), 0);
  const uint16_t port = ntohs(addr.sin_port);

  TcpChannelOptions options = ChannelTo(port);
  options.max_connect_attempts = 10;
  TcpChannel channel(options);
  Status first = Status::OK();
  std::thread first_call([&channel, &first] {
    std::string reply;
    first = channel.Call("first", &reply);
  });

  // The dying peer: accept the channel's connection, drop it, and stop
  // listening. A real server then takes over the port.
  const int conn_fd = accept(listen_fd, nullptr, nullptr);
  ASSERT_GE(conn_fd, 0);
  close(conn_fd);
  close(listen_fd);

  std::mutex mu;
  std::condition_variable cv;
  int arrived = 0;
  TcpServerOptions server_options;
  server_options.port = port;
  server_options.workers = 4;
  // A 2-party barrier for the "pair" calls: each reports whether its
  // partner reached the handler while it was still inside.
  TcpServer server(server_options, [&](const Slice& request,
                                       std::string* reply) {
    if (!request.starts_with("pair")) {
      reply->assign("solo");
      return Status::OK();
    }
    std::unique_lock<std::mutex> lock(mu);
    ++arrived;
    cv.notify_all();
    const bool met = cv.wait_for(lock, std::chrono::seconds(5),
                                 [&arrived] { return arrived >= 2; });
    reply->assign(met ? "together" : "alone");
    return Status::OK();
  });
  ASSERT_TRUE(server.Start().ok());

  // The first call's bytes may have reached the dead peer: it may fail,
  // and it is never resent.
  first_call.join();
  EXPECT_TRUE(first.ok() || first.IsUnavailable()) << first.ToString();

  std::vector<Status> statuses(2);
  std::vector<std::string> replies(2);
  std::vector<std::thread> callers;
  for (size_t i = 0; i < 2; ++i) {
    callers.emplace_back([&channel, &statuses, &replies, i] {
      statuses[i] = channel.Call("pair" + std::to_string(i), &replies[i]);
    });
  }
  for (auto& t : callers) t.join();
  for (size_t i = 0; i < 2; ++i) {
    ASSERT_TRUE(statuses[i].ok()) << i << ": " << statuses[i].ToString();
    EXPECT_EQ(replies[i], "together") << i;
  }
  // "first" never reached the new server: its bytes were not resent.
  EXPECT_EQ(server.requests_served(), 2u);
}

// ---- Per-call deadlines: options, long-polls, stragglers -------------

TEST(TcpTransportTest, CallOptionsRaiseButNeverLowerTheDeadline) {
  TcpServer server(TcpServerOptions{}, [](const Slice&, std::string* reply) {
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    reply->assign("late");
    return Status::OK();
  });
  ASSERT_TRUE(server.Start().ok());

  TcpChannelOptions options = ChannelTo(server.port());
  options.call_timeout_micros = 50'000;
  TcpChannel channel(options);

  // Raised: a 2s per-call minimum outlives the 200ms handler.
  std::string reply;
  CallOptions raised;
  raised.min_deadline_micros = 2'000'000;
  ASSERT_TRUE(channel.Call("a", &reply, raised).ok());
  EXPECT_EQ(reply, "late");
  EXPECT_EQ(channel.deadline_expiries(), 0u);

  // min_deadline_micros below the channel default must NOT lower it:
  // with a 2s channel default even a 1ms minimum waits the handler out.
  TcpChannelOptions generous = ChannelTo(server.port());
  generous.call_timeout_micros = 2'000'000;
  TcpChannel channel2(generous);
  CallOptions tiny;
  tiny.min_deadline_micros = 1'000;
  ASSERT_TRUE(channel2.Call("b", &reply, tiny).ok());
  EXPECT_EQ(reply, "late");
  EXPECT_EQ(channel2.deadline_expiries(), 0u);
}

TEST(TcpTransportTest, ReplyGateHoldsCallRepliesButNotOneWays) {
  queue::QueueRepository repo("qm");
  ASSERT_TRUE(repo.Open().ok());
  ASSERT_TRUE(repo.CreateQueue("q").ok());
  QueueServiceDispatcher dispatcher(&repo);
  std::atomic<int> gated{0};
  std::atomic<bool> refuse{false};
  dispatcher.set_reply_gate([&gated, &refuse]() {
    gated.fetch_add(1);
    return refuse.load() ? Status::Unavailable("backup ack timed out")
                         : Status::OK();
  });
  TcpServerOptions server_options;
  server_options.workers = 1;  // Runs one connection's frames in order.
  TcpServer server(server_options,
                   [&dispatcher](const Slice& request, std::string* reply) {
                     return dispatcher.Handle(request, reply);
                   });
  server.set_one_way_handler(
      [&dispatcher](const Slice& request) {
        dispatcher.HandleOneWay(request);
      });
  ASSERT_TRUE(server.Start().ok());

  TcpChannel channel(ChannelTo(server.port()));
  ChannelQueueApi api(&channel);
  ASSERT_TRUE(api.Enqueue("q", "a", 0, "", "", /*one_way=*/true).ok());
  ASSERT_TRUE(api.Enqueue("q", "b", 0, "", "", /*one_way=*/false).ok());
  auto depth = api.Depth("q");  // Reads are not gated.
  ASSERT_TRUE(depth.ok()) << depth.status().ToString();
  EXPECT_EQ(*depth, 2u);
  EXPECT_EQ(gated.load(), 1);

  // A refused gate replaces the reply; the commit stands.
  refuse.store(true);
  EXPECT_TRUE(api.Enqueue("q", "c", 0, "", "", /*one_way=*/false)
                  .status()
                  .IsUnavailable());
  depth = api.Depth("q");
  ASSERT_TRUE(depth.ok()) << depth.status().ToString();
  EXPECT_EQ(*depth, 3u);
  EXPECT_EQ(gated.load(), 2);
}

TEST(TcpTransportTest, BlockingDequeueOutlivesChannelDefaultDeadline) {
  // THE long-poll bug this PR fixes: a blocking Dequeue whose
  // timeout_micros exceeds the channel's default call deadline used to
  // be expired client-side while the server's *destructive* dequeue
  // committed — the reply was then discarded as a late straggler and
  // the element silently lost. The fix derives the call deadline from
  // the op's own timeout (plus kBlockingCallMarginMicros), so the call
  // must now return the element.
  queue::QueueRepository repo("qm");
  ASSERT_TRUE(repo.Open().ok());
  ASSERT_TRUE(repo.CreateQueue("q").ok());
  QueueServiceDispatcher dispatcher(&repo);
  TcpServerOptions server_options;
  server_options.workers = 2;
  TcpServer server(server_options,
                   [&dispatcher](const Slice& request, std::string* reply) {
                     return dispatcher.Handle(request, reply);
                   });
  server.set_blocking_hint(QueueRequestMayBlock);
  ASSERT_TRUE(server.Start().ok());

  TcpChannelOptions options = ChannelTo(server.port());
  options.call_timeout_micros = 150'000;  // Channel default: 150ms.
  TcpChannel channel(options);
  ChannelQueueApi api(&channel);
  ASSERT_TRUE(api.Register("q", "c", /*stable=*/true).ok());

  // The element arrives mid-poll, well after the channel default
  // deadline, via a second channel.
  std::thread producer([&server, this] {
    std::this_thread::sleep_for(std::chrono::milliseconds(400));
    TcpChannel side(ChannelTo(server.port()));
    ChannelQueueApi side_api(&side);
    auto enqueued = side_api.Enqueue("q", "payload", 0, "", Slice(),
                                     /*one_way=*/false);
    ASSERT_TRUE(enqueued.ok()) << enqueued.status().ToString();
  });

  auto got = api.Dequeue("q", "c", Slice(), /*timeout_micros=*/5'000'000);
  producer.join();
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(got->contents, "payload");
  // The call was never expired and its reply never discarded.
  EXPECT_EQ(channel.deadline_expiries(), 0u);
  EXPECT_EQ(channel.late_replies(), 0u);
  // And the committed dequeue was delivered, not lost: the queue is
  // empty AND the retained copy names our registrant's element.
  EXPECT_EQ(*repo.Depth("q"), 0u);
}

TEST(TcpTransportTest, LateReplyAccountingMatchesStragglersExactly) {
  // Several calls expire; each eventually produces exactly one
  // straggler reply that is discarded by correlation id. Fast calls
  // interleaved with the stragglers demux cleanly and the per-channel
  // counters match: deadline_expiries == late_replies == the number of
  // slow calls, and nothing else is miscounted or misdelivered.
  TcpServerOptions server_options;
  server_options.workers = 8;
  TcpServer server(server_options,
                   [](const Slice& request, std::string* reply) {
                     if (request.ToString().rfind("slow", 0) == 0) {
                       std::this_thread::sleep_for(
                           std::chrono::milliseconds(2000));
                     }
                     reply->assign("done:" + request.ToString());
                     return Status::OK();
                   });
  ASSERT_TRUE(server.Start().ok());

  TcpChannelOptions options = ChannelTo(server.port());
  // Far above a sanitized-build round trip — full-suite ASan/TSan
  // runs on the 1-core CI box showed a legitimate fast call can take
  // hundreds of ms under scheduler starvation — and still half the slow
  // handler's 2s, so only the slow calls expire.
  options.call_timeout_micros = 1'000'000;
  TcpChannel channel(options);

  constexpr int kSlow = 3;
  std::vector<std::thread> slow_calls;
  std::atomic<int> expiries_seen{0};
  slow_calls.reserve(kSlow);
  for (int i = 0; i < kSlow; ++i) {
    slow_calls.emplace_back([&channel, &expiries_seen, i] {
      std::string reply;
      Status s = channel.Call("slow" + std::to_string(i), &reply);
      if (IsCallDeadlineExpiry(s)) expiries_seen.fetch_add(1);
    });
  }
  // Interleaved fast traffic on the same channel while the slow calls
  // are parked server-side. Join before any fatal assertion: an early
  // ASSERT return with joinable threads would terminate() and bury
  // the failure message.
  std::vector<Status> fast(10);
  std::vector<std::string> fast_replies(10);
  for (int i = 0; i < 10; ++i) {
    fast[static_cast<size_t>(i)] =
        channel.Call("fast" + std::to_string(i), &fast_replies[i]);
  }
  for (auto& t : slow_calls) t.join();
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(fast[i].ok()) << i << ": " << fast[i].ToString();
    ASSERT_EQ(fast_replies[i], "done:fast" + std::to_string(i));
  }
  EXPECT_EQ(expiries_seen.load(), kSlow);
  EXPECT_EQ(channel.deadline_expiries(), static_cast<uint64_t>(kSlow));

  // Every straggler arrives and is discarded — no more, no fewer.
  for (int i = 0; i < 1000 && channel.late_replies() < kSlow; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(channel.late_replies(), static_cast<uint64_t>(kSlow));
  std::string reply;
  ASSERT_TRUE(channel.Call("after", &reply).ok());
  EXPECT_EQ(reply, "done:after");
  EXPECT_EQ(channel.late_replies(), static_cast<uint64_t>(kSlow));
  EXPECT_EQ(channel.connects(), 1u);
}

TEST(TcpTransportTest, ConcurrentRetriesAfterConnectionLossAllRecover) {
  // Regression test for a reconnect-race deadlock. When a
  // connection dies, the reader fails every pending call BEFORE it
  // announces its exit via reader_done_, so the failed callers retry
  // immediately and pile up inside EnsureConnectedLocked() waiting for
  // the old reader. The first waiter to wake joined it, reconnected,
  // and reset reader_done_ for the NEW reader — and any second waiter
  // that re-tested only reader_done_ went back to sleep waiting for a
  // healthy connection to fail, i.e. forever. ASan/TSan runs of
  // clerk_pool_exactly_once_test hit exactly that hang. The fix
  // re-checks sock_ on every wakeup; this test drives many rounds of
  // the race and hangs (ctest timeout) without it.
  // The server stays up the whole time — the winner's reconnect must
  // SUCCEED (and reset reader_done_) for the loser to strand.
  TcpServer server(TcpServerOptions{}, [](const Slice& request, std::string* reply) {
    reply->assign(request.ToString());
    return Status::OK();
  });
  ASSERT_TRUE(server.Start().ok());

  TcpChannelOptions options = ChannelTo(server.port());
  options.max_connect_attempts = 5;
  TcpChannel channel(options);
  std::string warm;
  ASSERT_TRUE(channel.Call("warm", &warm).ok());

  constexpr int kCallers = 4;
  constexpr int kRounds = 50;
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> successes{0};
  std::vector<std::thread> callers;
  callers.reserve(kCallers);
  for (int t = 0; t < kCallers; ++t) {
    callers.emplace_back([&channel, &stop, &successes] {
      while (!stop.load(std::memory_order_relaxed)) {
        struct Waiter {
          std::mutex mu;
          std::condition_variable cv;
          bool done = false;
          Status status;
        } w;
        channel.CallAsync("r", [&w](Status s, std::string) {
          const bool failed = !s.ok();
          {
            std::lock_guard<std::mutex> lock(w.mu);
            w.done = true;
            w.status = std::move(s);
            // Notify under the lock: the caller frees the waiter the
            // moment it wakes, and a notify outside the lock could
            // still be touching the cv when that happens.
            w.cv.notify_one();
          }
          // Teardown fires failure callbacks on the demux reader
          // BEFORE it announces its exit. Dawdling here after waking
          // the caller guarantees the caller's instant retry reaches
          // the reconnect path first — the pile-up that stranded
          // waiters. (Touches nothing after notify: the caller frees
          // the waiter as soon as it wakes.)
          if (failed) std::this_thread::sleep_for(std::chrono::milliseconds(2));
        });
        std::unique_lock<std::mutex> lock(w.mu);
        w.cv.wait(lock, [&w] { return w.done; });
        if (w.status.ok()) {
          successes.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }

  for (int round = 0; round < kRounds; ++round) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    channel.BreakConnectionForTest();
  }

  // Every caller must still be making progress after the last break;
  // a stranded caller would hang the join (and trip the ctest
  // timeout), which is precisely the pre-fix failure mode.
  const uint64_t before = successes.load();
  for (int i = 0; i < 1000 && successes.load() < before + kCallers; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_GE(successes.load(), before + kCallers);
  stop.store(true);
  for (auto& th : callers) th.join();
  EXPECT_GT(successes.load(), 0u);
}

TEST(TcpTransportTest, SequentialConnectionChurnDoesNotLeak) {
  // Regression test for the PR 3 connection-thread leak: the old
  // server spawned a detached-until-Stop thread per connection and
  // never reaped finished ones. A few hundred sequential connections
  // must leave the server with zero live connection state.
  TcpServer server(TcpServerOptions{}, [](const Slice& request, std::string* reply) {
    reply->assign(request.ToString());
    return Status::OK();
  });
  ASSERT_TRUE(server.Start().ok());

  constexpr int kConnections = 300;
  for (int i = 0; i < kConnections; ++i) {
    TcpChannel channel(ChannelTo(server.port()));
    std::string reply;
    ASSERT_TRUE(channel.Call(std::to_string(i), &reply).ok()) << i;
    ASSERT_EQ(reply, std::to_string(i));
  }
  EXPECT_GE(server.connections_accepted(),
            static_cast<uint64_t>(kConnections));
  // Channels close as they go out of scope; the event loop notices the
  // EOFs and retires the per-connection state promptly.
  for (int i = 0; i < 500 && server.active_connections() != 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_EQ(server.active_connections(), 0u);
  EXPECT_EQ(server.requests_served(), static_cast<uint64_t>(kConnections));
}

}  // namespace
}  // namespace rrq::net
