#include "net/io_backend.h"

#include <gtest/gtest.h>

#include <condition_variable>
#include <mutex>
#include <string>

#include "net/tcp_transport.h"

namespace rrq::net {
namespace {

// Skips the calling test when the host kernel cannot run the io_uring
// backend (probe logs the reason once). Tests that compare uring
// against epoll need real uring, not the fallback ladder.
#define SKIP_WITHOUT_URING()                                            \
  do {                                                                  \
    std::string why_;                                                   \
    if (!UringAvailable(&why_)) {                                       \
      GTEST_SKIP() << "io_uring unavailable on this host: " << why_;    \
    }                                                                   \
  } while (0)

TcpChannelOptions ChannelTo(uint16_t port, IoBackendKind backend) {
  TcpChannelOptions options;
  options.port = port;
  options.backend = backend;
  options.max_connect_attempts = 3;
  options.backoff_initial_micros = 1'000;
  return options;
}

TEST(IoBackendTest, ParseKnownNames) {
  IoBackendKind kind = IoBackendKind::kEpoll;
  EXPECT_TRUE(ParseIoBackend("auto", &kind));
  EXPECT_EQ(kind, IoBackendKind::kAuto);
  EXPECT_TRUE(ParseIoBackend("epoll", &kind));
  EXPECT_EQ(kind, IoBackendKind::kEpoll);
  EXPECT_TRUE(ParseIoBackend("uring", &kind));
  EXPECT_EQ(kind, IoBackendKind::kUring);
  EXPECT_TRUE(ParseIoBackend("io_uring", &kind));
  EXPECT_EQ(kind, IoBackendKind::kUring);
  EXPECT_FALSE(ParseIoBackend("kqueue", &kind));
  EXPECT_FALSE(ParseIoBackend("", &kind));
}

TEST(IoBackendTest, BackendNames) {
  EXPECT_STREQ(IoBackendName(IoBackendKind::kAuto), "auto");
  EXPECT_STREQ(IoBackendName(IoBackendKind::kEpoll), "epoll");
  EXPECT_STREQ(IoBackendName(IoBackendKind::kUring), "uring");
}

TEST(IoBackendTest, ProbeIsStable) {
  std::string r1;
  std::string r2;
  const bool a = UringAvailable(&r1);
  const bool b = UringAvailable(&r2);
  EXPECT_EQ(a, b);
  if (!a) {
    EXPECT_FALSE(r1.empty());
    EXPECT_EQ(r1, r2);
  }
}

TEST(IoBackendTest, ResolveEpollIsPassThrough) {
  std::string note = "unset";
  EXPECT_EQ(ResolveIoBackend(IoBackendKind::kEpoll, &note),
            IoBackendKind::kEpoll);
  EXPECT_TRUE(note.empty());
}

TEST(IoBackendTest, ResolveAutoMatchesProbe) {
  std::string note;
  const IoBackendKind resolved = ResolveIoBackend(IoBackendKind::kAuto, &note);
  if (UringAvailable(nullptr)) {
    EXPECT_EQ(resolved, IoBackendKind::kUring);
  } else {
    EXPECT_EQ(resolved, IoBackendKind::kEpoll);
    EXPECT_FALSE(note.empty());  // degrade is always explained
  }
}

TEST(IoBackendTest, ServerReportsEpollBackend) {
  TcpServerOptions options;
  options.backend = IoBackendKind::kEpoll;
  TcpServer server(options, [](const Slice& request, std::string* reply) {
    reply->assign(request.ToString());
    return Status::OK();
  });
  ASSERT_TRUE(server.Start().ok());
  EXPECT_STREQ(server.io_backend_name(), "epoll");

  TcpChannel channel(ChannelTo(server.port(), IoBackendKind::kEpoll));
  std::string reply;
  ASSERT_TRUE(channel.Call("x", &reply).ok());
  EXPECT_STREQ(channel.io_backend_name(), "poll");

  const IoLoopStats stats = server.io_stats();
  EXPECT_STREQ(stats.backend, "epoll");
  EXPECT_GT(stats.waits, 0u);
  EXPECT_GT(stats.recvs, 0u);
  EXPECT_EQ(stats.enters, 0u);  // no ring syscalls on the epoll path
  EXPECT_GT(stats.io_syscalls(), 0u);
}

TEST(IoBackendTest, ServerReportsUringBackend) {
  SKIP_WITHOUT_URING();
  TcpServerOptions options;
  options.backend = IoBackendKind::kUring;
  TcpServer server(options, [](const Slice& request, std::string* reply) {
    reply->assign(request.ToString());
    return Status::OK();
  });
  ASSERT_TRUE(server.Start().ok());
  EXPECT_STREQ(server.io_backend_name(), "uring");

  TcpChannel channel(ChannelTo(server.port(), IoBackendKind::kUring));
  std::string reply;
  ASSERT_TRUE(channel.Call("x", &reply).ok());
  EXPECT_STREQ(channel.io_backend_name(), "uring");

  const IoLoopStats stats = server.io_stats();
  EXPECT_STREQ(stats.backend, "uring");
  EXPECT_GT(stats.enters, 0u);
  EXPECT_GT(stats.sqes, 0u);
  EXPECT_GT(stats.cqes, 0u);
  // Inbound bytes arrive as provided-buffer completions, never via a
  // loop-thread recv syscall.
  EXPECT_EQ(stats.recvs, 0u);
}

TEST(IoBackendTest, ForcedUringNeverFailsStartup) {
  // Even `--net-backend uring` on a kernel without io_uring must come
  // up (on epoll, with a logged reason) rather than refuse to start.
  TcpServerOptions options;
  options.backend = IoBackendKind::kUring;
  TcpServer server(options, [](const Slice& request, std::string* reply) {
    reply->assign(request.ToString());
    return Status::OK();
  });
  ASSERT_TRUE(server.Start().ok());
  const bool have_uring = UringAvailable(nullptr);
  EXPECT_STREQ(server.io_backend_name(), have_uring ? "uring" : "epoll");

  TcpChannel channel(ChannelTo(server.port(), IoBackendKind::kUring));
  std::string reply;
  ASSERT_TRUE(channel.Call("x", &reply).ok());
  EXPECT_STREQ(channel.io_backend_name(), have_uring ? "uring" : "poll");
}

// Runs `rounds` pipelined 1x8 bursts against a fresh server on
// `backend` and returns the combined client+server loop-syscall count
// across all of them.
uint64_t BurstSyscalls(IoBackendKind backend, int rounds) {
  TcpServerOptions options;
  options.backend = backend;
  TcpServer server(options, [](const Slice& request, std::string* reply) {
    reply->assign(request.ToString());
    return Status::OK();
  });
  EXPECT_TRUE(server.Start().ok());

  TcpChannel channel(ChannelTo(server.port(), backend));
  // Prime the connection so the bursts measure steady-state I/O, not
  // connect and reader setup.
  std::string reply;
  EXPECT_TRUE(channel.Call("prime", &reply).ok());

  const uint64_t before =
      server.io_stats().io_syscalls() + channel.io_stats().io_syscalls();

  constexpr int kBurst = 8;
  std::mutex mu;
  std::condition_variable cv;
  for (int round = 0; round < rounds; ++round) {
    int done = 0;
    for (int i = 0; i < kBurst; ++i) {
      channel.CallAsync("burst", [&](Status s, std::string /*reply*/) {
        EXPECT_TRUE(s.ok()) << s.ToString();
        std::lock_guard<std::mutex> lock(mu);
        ++done;
        cv.notify_all();
      });
    }
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return done == kBurst; });
  }

  return server.io_stats().io_syscalls() + channel.io_stats().io_syscalls() -
         before;
}

TEST(IoBackendTest, UringBurstUsesStrictlyFewerSyscalls) {
  SKIP_WITHOUT_URING();
  // Batched submission is the point of the backend: pipelined 1x8
  // bursts must cost strictly fewer loop syscalls on uring (a couple
  // of enters per burst) than the readiness loops spend on epoll/poll
  // (a send per call plus wait/recv pairs per wakeup). A single burst
  // is noisy — a lucky scheduling run can coalesce an entire epoll
  // burst — so compare totals across enough rounds that the
  // structural gap dominates the jitter.
  constexpr int kRounds = 10;
  const uint64_t epoll_total = BurstSyscalls(IoBackendKind::kEpoll, kRounds);
  const uint64_t uring_total = BurstSyscalls(IoBackendKind::kUring, kRounds);
  EXPECT_LT(uring_total, epoll_total)
      << "uring=" << uring_total << " epoll=" << epoll_total;
}

}  // namespace
}  // namespace rrq::net
