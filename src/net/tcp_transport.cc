#include "net/tcp_transport.h"

#include <poll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <thread>

#include "net/socket_util.h"
#include "net/wire.h"
#include "util/coding.h"

namespace rrq::net {

using internal::Errno;
using internal::MakeAddr;
using internal::NowMicros;
using internal::PollFd;
using internal::SetNoDelay;

namespace {

Status SendAll(int fd, const Slice& data, IoCounters* counters) {
  size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n =
        send(fd, data.data() + sent, data.size() - sent, MSG_NOSIGNAL);
    counters->sends.fetch_add(1, std::memory_order_relaxed);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return Status::Unavailable("send failed: " +
                                 std::string(std::strerror(errno)));
    }
    sent += static_cast<size_t>(n);
  }
  return Status::OK();
}

void DrainEventFd(int fd) {
  uint64_t tick;
  while (read(fd, &tick, sizeof(tick)) > 0) {
  }
}

void KickEventFd(int fd) {
  const uint64_t one = 1;
  ssize_t ignored = write(fd, &one, sizeof(one));
  (void)ignored;
}

// Absolute deadline for a call: now + max(channel default, the
// caller's minimum). Saturating — a caller asking for an effectively
// unbounded wait gets UINT64_MAX, which the reader treats as "no
// deadline" (it can never be <= now).
uint64_t CallDeadline(uint64_t now, uint64_t default_micros,
                      uint64_t min_deadline_micros) {
  const uint64_t budget = std::max(default_micros, min_deadline_micros);
  return budget > UINT64_MAX - now ? UINT64_MAX : now + budget;
}

}  // namespace

// The socket plus the eventfd that wakes its demux reader. Shared by
// every thread touching the connection; the fds close when the last
// holder lets go, so a send racing a teardown can never hit a reused
// fd number.
struct TcpChannel::Sock {
  int fd = -1;
  int wake_fd = -1;
  std::atomic<bool> broken{false};

  // Combining writer (SendFrame): frames append to `outbuf` under
  // `out_mu`; whichever thread finds no writer active becomes one and
  // drains until the buffer stays empty. Concurrent callers cork their
  // frames into the active writer's next send instead of queueing on a
  // lock for a syscall apiece.
  Mutex out_mu;
  std::string outbuf GUARDED_BY(out_mu);
  bool writer_active GUARDED_BY(out_mu) = false;

  ~Sock() {
    if (fd >= 0) close(fd);
    if (wake_fd >= 0) close(wake_fd);
  }
};

TcpChannel::TcpChannel(TcpChannelOptions options)
    : options_(std::move(options)) {}

TcpChannel::~TcpChannel() { Close(); }

void TcpChannel::Close() {
  MutexLock lock(mu_);
  backoff_cv_.SignalAll();  // A reconnect in backoff retries at once.
  // Loop: a caller racing us through EnsureConnectedLocked() can join
  // the reader we are waiting out and stand up a fresh connection while
  // Wait() has mu_ released. Re-checking sock_ every wakeup means any
  // such connection is torn down too, instead of us blocking forever on
  // a healthy reader that will never exit (a real deadlock ASan runs
  // hit in clerk_pool_exactly_once_test).
  for (;;) {
    // The reader owns teardown: it fails every pending call, clears
    // sock_, and announces its exit.
    if (sock_) BreakConnection(sock_);
    if (!reader_.joinable()) return;
    if (reader_done_) {
      // The reader no longer touches channel state; joining under mu_
      // cannot deadlock.
      reader_.join();
      continue;  // re-check: a racing reconnect may have run meanwhile
    }
    reader_exit_cv_.Wait(mu_);
  }
}

void TcpChannel::SetTarget(const std::string& host, uint16_t port) {
  {
    MutexLock lock(mu_);
    options_.host = host;
    options_.port = port;
  }
  Close();  // Also wakes a reconnect in backoff onto the new target.
}

Status TcpChannel::ConnectOnce(int* fd_out) {
  sockaddr_in addr;
  RRQ_RETURN_IF_ERROR(MakeAddr(options_.host, options_.port, &addr));
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Errno("socket");

  // Non-blocking connect so the attempt honors the connect deadline.
  const int flags = fcntl(fd, F_GETFL, 0);
  fcntl(fd, F_SETFL, flags | O_NONBLOCK);
  const uint64_t deadline = NowMicros() + options_.connect_timeout_micros;
  int rc = connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
  if (rc != 0 && errno == EINPROGRESS) {
    Status ready = PollFd(fd, POLLOUT, deadline);
    if (!ready.ok()) {
      close(fd);
      return ready.IsTimedOut() ? Status::TimedOut("connect timed out")
                                : ready;
    }
    int err = 0;
    socklen_t len = sizeof(err);
    getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len);
    if (err != 0) {
      close(fd);
      return Status::IOError("connect: " + std::string(std::strerror(err)));
    }
  } else if (rc != 0) {
    Status s = Errno("connect");
    close(fd);
    return s;
  }
  fcntl(fd, F_SETFL, flags);
  SetNoDelay(fd);
  *fd_out = fd;
  return Status::OK();
}

Status TcpChannel::EnsureConnectedLocked() {
  // Reconnect-with-backoff, bounded. This is the only retry loop in
  // the transport, and it runs strictly before any request bytes are
  // sent — so it can never duplicate a request. The backoff waits
  // release mu_, so SetTarget, Close and other callers never queue
  // behind a dead target; SetTarget and Close also cut the wait short.
  uint64_t backoff = options_.backoff_initial_micros;
  Status last = Status::Unavailable("no connect attempts made");
  for (int attempt = 0; attempt < options_.max_connect_attempts; ++attempt) {
    if (attempt > 0) {
      backoff_cv_.WaitFor(mu_, std::chrono::microseconds(backoff));
      backoff = std::min(backoff * 2, options_.backoff_max_micros);
    }
    // Re-check sock_ on every wakeup: when a dead connection strands
    // several callers here, the first one to see reader_done_ joins the
    // old reader, reconnects, and resets reader_done_ for the NEW
    // reader. A waiter that only re-tested reader_done_ would then
    // sleep until the healthy new connection failed — i.e. forever
    // (deadlock observed in clerk_pool_exactly_once_test under
    // sanitizer load). Seeing sock_ set means that caller finished the
    // job for us.
    for (;;) {
      if (sock_) return Status::OK();
      if (!reader_.joinable() || reader_done_) break;
      // A previous connection's reader may still be failing its pending
      // calls; wait for it to finish with channel state before
      // rebuilding.
      reader_exit_cv_.Wait(mu_);
    }
    if (reader_.joinable()) reader_.join();

    int fd = -1;
    last = ConnectOnce(&fd);
    if (last.IsInvalidArgument()) return last;  // Bad address: hopeless.
    if (!last.ok()) continue;

    auto sock = std::make_shared<Sock>();
    sock->fd = fd;
    sock->wake_fd = eventfd(0, EFD_NONBLOCK);
    if (sock->wake_fd < 0) {
      last = Errno("eventfd");
      continue;  // sock closes fd on destruction.
    }
    sock_ = sock;
    connects_.fetch_add(1, std::memory_order_relaxed);
    reader_done_ = false;
    reader_wait_until_ = UINT64_MAX;
    reader_ = std::thread([this, sock] { ReaderMain(sock); });
    return Status::OK();
  }
  return Status::Unavailable("connect to " + options_.host + ":" +
                             std::to_string(options_.port) + " failed: " +
                             last.ToString());
}

void TcpChannel::BreakConnectionForTest() {
  std::shared_ptr<Sock> sock;
  {
    MutexLock lock(mu_);
    sock = sock_;
  }
  if (sock) BreakConnection(sock);
}

void TcpChannel::BreakConnection(const std::shared_ptr<Sock>& sock) {
  sock->broken.store(true, std::memory_order_release);
  shutdown(sock->fd, SHUT_RDWR);
  KickEventFd(sock->wake_fd);
}

void TcpChannel::ReaderMain(std::shared_ptr<Sock> sock) {
  FrameReader reader;
  Status fail = ReaderLoop(sock, &reader);  // set => tear the connection down

  // Teardown: fail every pending call, release the connection, and
  // only then announce the exit (a reconnect must not race us).
  std::vector<Callback> victims;
  {
    MutexLock guard(mu_);
    for (auto& [id, pc] : pending_) victims.push_back(std::move(pc.done));
    pending_.clear();
    if (sock_ == sock) sock_.reset();
  }
  shutdown(sock->fd, SHUT_RDWR);  // Unblock writers still holding sock.
  for (auto& done : victims) done(fail, std::string());
  {
    MutexLock guard(mu_);
    reader_done_ = true;
  }
  reader_exit_cv_.SignalAll();
}

uint64_t TcpChannel::SweepDeadlines() {
  // Expire per-call deadlines. The call fails; the connection does
  // not — its straggler reply, if any, is discarded by id later.
  const uint64_t now = NowMicros();
  std::vector<Callback> expired;
  uint64_t min_deadline = UINT64_MAX;
  {
    MutexLock guard(mu_);
    for (auto it = pending_.begin(); it != pending_.end();) {
      if (it->second.deadline_micros <= now) {
        expired.push_back(std::move(it->second.done));
        it = pending_.erase(it);
      } else {
        min_deadline = std::min(min_deadline, it->second.deadline_micros);
        ++it;
      }
    }
    // A new call with an earlier deadline than this kicks the wake fd.
    reader_wait_until_ = min_deadline;
  }
  for (auto& done : expired) {
    deadline_expiries_.fetch_add(1, std::memory_order_relaxed);
    done(Status::Unavailable(kCallDeadlineExceededMessage), std::string());
  }
  return min_deadline;
}

Status TcpChannel::DispatchReplies(FrameReader* reader) {
  std::string payload;
  while (true) {
    Status next = reader->Next(&payload);
    if (next.IsNotFound()) return Status::OK();
    if (!next.ok()) {
      return Status::Unavailable("protocol corruption: " + next.ToString());
    }
    Slice p(payload);
    uint64_t id = 0;
    if (p.empty() || static_cast<unsigned char>(p[0]) != kMsgReply) {
      return Status::Unavailable("protocol corruption: bad reply kind");
    }
    p.remove_prefix(1);
    if (!util::GetVarint64(&p, &id).ok()) {
      return Status::Unavailable("protocol corruption: bad correlation id");
    }
    // A malformed status encoding is delivered to the one matching
    // call as Corruption; the stream itself is still well framed.
    Status handled = DecodeStatus(&p);
    Callback done;
    {
      MutexLock guard(mu_);
      auto it = pending_.find(id);
      if (it != pending_.end()) {
        done = std::move(it->second.done);
        pending_.erase(it);
      }
    }
    if (!done) {
      // Straggler from an expired deadline (or an id the server made
      // up): discard. Never resent, never re-matched — §2 holds.
      late_replies_.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    if (handled.ok()) {
      done(Status::OK(), std::string(p.data(), p.size()));
    } else {
      done(std::move(handled), std::string());
    }
  }
}

Status TcpChannel::ReaderLoop(const std::shared_ptr<Sock>& sock,
                              FrameReader* reader) {
  char buf[65536];
  while (true) {
    if (sock->broken.load(std::memory_order_acquire)) {
      return Status::Unavailable("connection closed");
    }
    const uint64_t min_deadline = SweepDeadlines();

    // Fast path: on a busy pipelined connection the next replies are
    // usually already buffered, so try the read before paying for a
    // poll syscall.
    const ssize_t r = recv(sock->fd, buf, sizeof(buf), MSG_DONTWAIT);
    io_counters_.recvs.fetch_add(1, std::memory_order_relaxed);
    if (r < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      // Nothing buffered. Sleep until the socket is readable, a new
      // earlier deadline is registered (wake_fd), or the earliest
      // pending deadline passes — then loop back to the checks above.
      int timeout_ms = -1;
      if (min_deadline != UINT64_MAX) {
        const uint64_t now = NowMicros();
        timeout_ms = min_deadline <= now
                         ? 0
                         : static_cast<int>(std::min<uint64_t>(
                               (min_deadline - now + 999) / 1000, 60'000));
      }
      pollfd pfds[2] = {{sock->fd, POLLIN, 0}, {sock->wake_fd, POLLIN, 0}};
      io_counters_.waits.fetch_add(1, std::memory_order_relaxed);
      const int n = poll(pfds, 2, timeout_ms);
      if (n < 0 && errno != EINTR) {
        return Status::Unavailable("poll failed: " +
                                   std::string(std::strerror(errno)));
      }
      if (n > 0 && pfds[1].revents != 0) {
        DrainEventFd(sock->wake_fd);
        io_counters_.recvs.fetch_add(1, std::memory_order_relaxed);
      }
      continue;
    }
    if (r == 0) {
      // EOF with calls possibly executed server-side: the §2
      // uncertainty, surfaced as Unavailable to every pending call.
      return Status::Unavailable(reader->AtEnd().ok()
                                     ? "connection closed by server"
                                     : "connection torn mid-reply");
    }
    if (r < 0) {
      if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) continue;
      return Status::Unavailable("recv failed: " +
                                 std::string(std::strerror(errno)));
    }
    reader->Feed(Slice(buf, static_cast<size_t>(r)));

    // Claim the writer role for the duration of this reply burst:
    // calls issued by the callbacks below (a pipelined clerk's next
    // op, typically) accumulate in the outbuf and go to the socket in
    // one send after the burst instead of one syscall per callback.
    const bool corked = CorkOutbuf(sock);
    Status st = DispatchReplies(reader);
    if (corked) {
      // Send whatever the burst's callbacks queued, in one syscall.
      Status drained = DrainOutbuf(sock);
      if (st.ok() && !drained.ok()) {
        st = Status::Unavailable("send failed: " + drained.ToString());
      }
    }
    if (!st.ok()) return st;
  }
}

void TcpChannel::CallAsync(const Slice& request, Callback done) {
  CallAsync(request, CallOptions{}, std::move(done));
}

void TcpChannel::CallAsync(const Slice& request, const CallOptions& options,
                           Callback done) {
  std::shared_ptr<Sock> sock;
  uint64_t id = 0;
  bool wake = false;
  {
    MutexLock lock(mu_);
    Status s = EnsureConnectedLocked();
    if (!s.ok()) {
      lock.Unlock();
      done(std::move(s), std::string());
      return;
    }
    sock = sock_;
    id = next_id_++;
    const uint64_t deadline =
        CallDeadline(NowMicros(), options_.call_timeout_micros,
                     options.min_deadline_micros);
    pending_.emplace(id, PendingCall{std::move(done), deadline});
    wake = deadline < reader_wait_until_;
  }

  std::string framed;
  {
    std::string payload;
    payload.push_back(static_cast<char>(kMsgCall));
    util::PutVarint64(&payload, id);
    payload.append(request.data(), request.size());
    AppendFrame(&framed, payload);
  }
  Status sent = SendFrame(sock, std::move(framed));
  if (!sent.ok()) {
    // A partial send breaks the stream for everyone; the reader fails
    // all pending calls — including this one, exactly once.
    BreakConnection(sock);
    return;
  }
  if (wake) KickEventFd(sock->wake_fd);
}

Status TcpChannel::SendFrame(const std::shared_ptr<Sock>& sock,
                             std::string framed) {
  {
    MutexLock guard(sock->out_mu);
    sock->outbuf.append(framed);
    // An active writer is obliged to re-check the buffer before it
    // retires, so these bytes ride its next send.
    if (sock->writer_active) return Status::OK();
    sock->writer_active = true;
  }
  return DrainOutbuf(sock);
}

bool TcpChannel::CorkOutbuf(const std::shared_ptr<Sock>& sock) {
  MutexLock guard(sock->out_mu);
  if (sock->writer_active) return false;
  sock->writer_active = true;
  return true;
}

Status TcpChannel::DrainOutbuf(const std::shared_ptr<Sock>& sock) {
  std::string local;
  while (true) {
    {
      MutexLock guard(sock->out_mu);
      if (sock->outbuf.empty()) {
        sock->writer_active = false;
        return Status::OK();
      }
      local.clear();
      local.swap(sock->outbuf);
    }
    Status s = SendAll(sock->fd, Slice(local), &io_counters_);
    if (!s.ok()) {
      // The stream is broken mid-frame; callers whose bytes we
      // combined are failed with everyone else when the caller breaks
      // the connection and the reader sweeps pending_.
      MutexLock guard(sock->out_mu);
      sock->writer_active = false;
      return s;
    }
  }
}

Status TcpChannel::Call(const Slice& request, std::string* reply) {
  return Call(request, reply, CallOptions{});
}

Status TcpChannel::Call(const Slice& request, std::string* reply,
                        const CallOptions& options) {
  struct Waiter {
    Mutex mu;
    CondVar cv;
    bool done GUARDED_BY(mu) = false;
    Status status GUARDED_BY(mu);
    std::string reply GUARDED_BY(mu);
  };
  auto waiter = std::make_shared<Waiter>();
  CallAsync(request, options, [waiter](Status s, std::string r) {
    MutexLock guard(waiter->mu);
    waiter->status = std::move(s);
    waiter->reply = std::move(r);
    waiter->done = true;
    waiter->cv.SignalAll();
  });
  MutexLock lock(waiter->mu);
  while (!waiter->done) waiter->cv.Wait(waiter->mu);
  if (waiter->status.ok()) *reply = std::move(waiter->reply);
  return waiter->status;
}

Status TcpChannel::SendOneWay(const Slice& message) {
  std::shared_ptr<Sock> sock;
  Status s;
  {
    MutexLock lock(mu_);
    s = EnsureConnectedLocked();
    if (s.ok()) sock = sock_;
  }
  if (s.ok()) {
    std::string framed;
    {
      std::string payload;
      payload.push_back(static_cast<char>(kMsgOneWay));
      payload.append(message.data(), message.size());
      AppendFrame(&framed, payload);
    }
    s = SendFrame(sock, std::move(framed));
    if (!s.ok()) BreakConnection(sock);
  }
  if (!s.ok()) {
    // Lost, like any dropped one-way message: no failure signal (§5) —
    // the sender finds out through a Receive timeout, by design.
    one_ways_lost_.fetch_add(1, std::memory_order_relaxed);
  }
  return Status::OK();
}

}  // namespace rrq::net
