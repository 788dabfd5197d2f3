// TcpServer: one epoll loop plus a bounded worker pool (DESIGN.md
// §13). This is the only translation unit that makes raw epoll_*
// calls (scripts/check_invariants.sh).
//
// Threading model, kept deliberately narrow:
//   - The loop thread is the only code that accepts, reads sockets,
//     mutates the connection roster, or touches the epoll set.
//   - Workers run handlers and write replies. A reply is appended to
//     the connection's outbox under its mutex; a pool worker defers
//     the socket write until it runs out of queued tasks (or hits a
//     cap), so all the replies one drain produced go out corked in one
//     writev — and a batch of pipelined requests costs one reply
//     syscall, not one per request. Elastic threads and backpressured
//     sockets flush as before: on EAGAIN the writer leaves
//     `want_write` set and asks the loop to arm EPOLLOUT.
//   - Connection objects travel by shared_ptr, so a worker finishing a
//     handler after the peer hung up writes to nothing: `closed` is
//     checked under the same mutex that guards the fd.
//
// Every decoded call goes straight to the pool, so concurrent calls
// from one socket execute in parallel and their commits meet in the
// WAL's group-commit window. Replies echo the call's correlation id
// (net/wire.h), so they leave in completion order. A frame of any kind
// but kMsgCall or kMsgOneWay closes the connection as a protocol error.

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "net/socket_util.h"
#include "net/tcp_transport.h"
#include "net/wire.h"
#include "util/coding.h"

namespace rrq::net {

using internal::Errno;
using internal::MakeAddr;
using internal::SetNoDelay;
using internal::SetNonBlocking;

namespace {

// Cap on elastic threads for blocking-hinted requests (see
// TcpServer::BlockingHint); past it such requests fall back to the
// bounded pool.
constexpr int kMaxBlockingThreads = 64;

int EpollCtl(int epoll_fd, int op, int fd, uint32_t events) {
  epoll_event ev{};
  ev.events = events;
  ev.data.fd = fd;
  return epoll_ctl(epoll_fd, op, fd, &ev);
}

}  // namespace

TcpServer::TcpServer(TcpServerOptions options, RpcHandler handler)
    : options_(std::move(options)), handler_(std::move(handler)) {}

TcpServer::~TcpServer() { Stop(); }

Status TcpServer::Start() {
  if (running_.load()) return Status::FailedPrecondition("already started");

  sockaddr_in addr;
  RRQ_RETURN_IF_ERROR(MakeAddr(options_.bind_address, options_.port, &addr));

  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Errno("socket");
  // Connection sockets a killed predecessor left in TIME_WAIT must not
  // block rebinding the listener — a restarted daemon reclaims its port.
  int one = 1;
  setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  if (bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    Status s = Errno("bind " + options_.bind_address + ":" +
                     std::to_string(options_.port));
    close(fd);
    return s;
  }
  if (listen(fd, options_.backlog) != 0) {
    Status s = Errno("listen");
    close(fd);
    return s;
  }
  sockaddr_in bound;
  socklen_t len = sizeof(bound);
  if (getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) != 0) {
    Status s = Errno("getsockname");
    close(fd);
    return s;
  }
  port_ = ntohs(bound.sin_port);
  SetNonBlocking(fd);

  wake_fd_ = eventfd(0, EFD_NONBLOCK);
  if (wake_fd_ < 0) {
    Status s = Errno("eventfd");
    close(fd);
    return s;
  }
  epoll_fd_ = epoll_create1(0);
  if (epoll_fd_ < 0) {
    Status s = Errno("epoll_create1");
    close(fd);
    close(wake_fd_);
    wake_fd_ = -1;
    return s;
  }
  listen_fd_ = fd;
  EpollCtl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, EPOLLIN);
  EpollCtl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, EPOLLIN);

  int workers = options_.workers;
  if (workers <= 0) {
    workers = static_cast<int>(std::thread::hardware_concurrency());
    if (workers <= 0) workers = 4;
  }
  {
    MutexLock guard(pool_mu_);
    pool_stop_ = false;
  }
  running_.store(true);
  loop_ = std::thread([this] { LoopMain(); });
  workers_.reserve(static_cast<size_t>(workers));
  for (int i = 0; i < workers; ++i) {
    workers_.emplace_back([this] { WorkerMain(); });
  }
  return Status::OK();
}

void TcpServer::Stop() {
  if (!running_.exchange(false)) return;
  {
    const uint64_t one = 1;
    ssize_t ignored = write(wake_fd_, &one, sizeof(one));
    (void)ignored;
  }
  if (loop_.joinable()) loop_.join();

  // Drain the pool: queued tasks still run (their replies go to
  // sockets that are still open), then workers exit.
  {
    MutexLock guard(pool_mu_);
    pool_stop_ = true;
  }
  pool_cv_.SignalAll();
  for (auto& w : workers_) {
    if (w.joinable()) w.join();
  }
  workers_.clear();
  {
    std::vector<std::thread> elastic;
    {
      MutexLock guard(pool_mu_);
      elastic.swap(blocking_live_);
      blocking_finished_.clear();
    }
    for (auto& t : elastic) {
      if (t.joinable()) t.join();
    }
  }

  // The loop and the workers are gone: the roster is ours.
  close(epoll_fd_);
  epoll_fd_ = -1;
  for (auto& [fd, conn] : conns_) {
    MutexLock guard(conn->mu);
    conn->closed = true;
    close(conn->fd);
  }
  conns_.clear();
  active_conns_.store(0, std::memory_order_relaxed);
  // shutdown() acts on the socket, not on this descriptor: the listener
  // stops taking connections now even if another descriptor still
  // refers to it (a copy inherited by a child forked meanwhile).
  // Otherwise a connect could still land in the backlog, and a client's
  // request bytes go to a server that will never read them.
  shutdown(listen_fd_, SHUT_RDWR);
  close(listen_fd_);
  close(wake_fd_);
  listen_fd_ = wake_fd_ = -1;
}

void TcpServer::RequestAttention(int fd) {
  {
    MutexLock guard(attention_mu_);
    attention_.push_back(fd);
  }
  const uint64_t one = 1;
  ssize_t ignored = write(wake_fd_, &one, sizeof(one));
  (void)ignored;
}

void TcpServer::ProcessAttention() {
  std::vector<int> fds;
  {
    MutexLock guard(attention_mu_);
    fds.swap(attention_);
  }
  for (int fd : fds) {
    auto it = conns_.find(fd);
    if (it == conns_.end()) continue;
    std::shared_ptr<Conn> conn = it->second;
    bool failed, want;
    {
      MutexLock guard(conn->mu);
      failed = conn->write_failed;
      want = conn->want_write;
    }
    if (failed) {
      CloseConn(conn, false);
    } else if (want) {
      EpollCtl(epoll_fd_, EPOLL_CTL_MOD, fd, EPOLLIN | EPOLLOUT);
    }
  }
}

void TcpServer::LoopMain() {
  epoll_event events[128];
  while (running_.load(std::memory_order_relaxed)) {
    io_counters_.waits.fetch_add(1, std::memory_order_relaxed);
    const int n = epoll_wait(epoll_fd_, events, 128, -1);
    if (n < 0) {
      if (errno == EINTR) continue;
      return;
    }
    for (int i = 0; i < n; ++i) {
      const int fd = events[i].data.fd;
      if (fd == wake_fd_) {
        uint64_t tick;
        while (read(wake_fd_, &tick, sizeof(tick)) > 0) {
        }
        io_counters_.recvs.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      if (fd == listen_fd_) {
        AcceptAll();
        continue;
      }
      auto it = conns_.find(fd);
      if (it == conns_.end()) continue;  // Closed earlier in this batch.
      std::shared_ptr<Conn> conn = it->second;
      if (events[i].events & EPOLLERR) {
        CloseConn(conn, false);
        continue;
      }
      if (events[i].events & EPOLLOUT) HandleWritable(conn);
      // HandleWritable may have reaped the connection.
      if ((events[i].events & (EPOLLIN | EPOLLHUP)) && conns_.count(fd) != 0) {
        HandleReadable(conn);
      }
    }
    if (!running_.load(std::memory_order_relaxed)) return;
    // Everything this cycle decoded goes to the pool in one handoff.
    SubmitBatch();
    ProcessAttention();
  }
}

void TcpServer::AcceptAll() {
  while (true) {
    const int fd = accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // EAGAIN: drained (or transient; epoll re-fires).
    }
    SetNonBlocking(fd);
    SetNoDelay(fd);
    if (EpollCtl(epoll_fd_, EPOLL_CTL_ADD, fd, EPOLLIN) != 0) {
      close(fd);
      continue;
    }
    auto conn = std::make_shared<Conn>();
    conn->fd = fd;
    conns_[fd] = std::move(conn);
    accepted_.fetch_add(1, std::memory_order_relaxed);
    active_conns_.fetch_add(1, std::memory_order_relaxed);
  }
}

void TcpServer::HandleReadable(const std::shared_ptr<Conn>& conn) {
  char buf[65536];
  // Bounded reads per wakeup so one firehose connection cannot pin
  // the loop; level-triggered epoll re-fires for the rest.
  for (int round = 0; round < 4; ++round) {
    const ssize_t n = recv(conn->fd, buf, sizeof(buf), 0);
    io_counters_.recvs.fetch_add(1, std::memory_order_relaxed);
    if (n > 0) {
      conn->reader.Feed(Slice(buf, static_cast<size_t>(n)));
      if (!DrainFrames(conn)) {
        CloseConn(conn, /*protocol_error=*/true);
        return;
      }
      continue;
    }
    if (n == 0) {
      CloseConn(conn, /*protocol_error=*/!conn->reader.AtEnd().ok());
      return;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return;
    CloseConn(conn, false);  // Reset: the peer is gone.
    return;
  }
}

void TcpServer::HandleWritable(const std::shared_ptr<Conn>& conn) {
  bool failed;
  bool drained;
  {
    MutexLock guard(conn->mu);
    if (conn->closed) return;
    conn->want_write = false;
    FlushOutboxLocked(conn.get());
    failed = conn->write_failed;
    drained = !conn->want_write;
  }
  if (failed) {
    CloseConn(conn, false);
  } else if (drained) {
    EpollCtl(epoll_fd_, EPOLL_CTL_MOD, conn->fd, EPOLLIN);
  }
}

bool TcpServer::DrainFrames(const std::shared_ptr<Conn>& conn) {
  std::string payload;
  while (true) {
    Status next = conn->reader.Next(&payload);
    if (next.IsNotFound()) return true;
    if (!next.ok() || payload.empty()) return false;
    Task task;
    task.kind = static_cast<unsigned char>(payload[0]);
    Slice p(payload.data() + 1, payload.size() - 1);
    if (task.kind == kMsgCall) {
      if (!util::GetVarint64(&p, &task.corr_id).ok()) return false;
    } else if (task.kind != kMsgOneWay) {
      return false;  // Unknown kind, the retired 1 and 3 included.
    }
    task.body.assign(p.data(), p.size());
    Dispatch(conn, std::move(task));
  }
}

void TcpServer::Dispatch(const std::shared_ptr<Conn>& conn, Task task) {
  const bool blocking = hint_ && hint_(Slice(task.body));
  auto shared_task = std::make_shared<Task>(std::move(task));
  if (blocking) {
    // Straight to an elastic thread — a long-poll must not wait behind
    // the rest of this sweep's batch. Its reply flushes immediately.
    SubmitToPool(
        [this, conn, shared_task] {
          RunTask(conn, std::move(*shared_task), /*defer_flush=*/false);
        },
        true);
    return;
  }
  loop_pending_.push_back([this, conn, shared_task] {
    RunTask(conn, std::move(*shared_task), /*defer_flush=*/true);
  });
}

void TcpServer::SubmitBatch() {
  if (loop_pending_.empty()) return;
  {
    MutexLock guard(pool_mu_);
    if (pool_stop_) {
      loop_pending_.clear();
      return;
    }
    for (auto& fn : loop_pending_) pool_queue_.push_back(std::move(fn));
    loop_pending_.clear();
  }
  // One wakeup per batch; workers chain further wakeups while the
  // queue stays non-empty (see WorkerMain), so a deep batch still
  // fans out across the pool without notifying per task.
  pool_cv_.Signal();
}

void TcpServer::RunTask(const std::shared_ptr<Conn>& conn, Task task,
                        bool defer_flush) {
  if (task.kind == kMsgOneWay) {
    if (one_way_handler_) {
      one_way_handler_(Slice(task.body));
    } else {
      std::string ignored;
      handler_(Slice(task.body), &ignored);
    }
    served_.fetch_add(1, std::memory_order_relaxed);
  } else {
    std::string reply;
    const Status handled = handler_(Slice(task.body), &reply);
    std::string out;
    out.push_back(static_cast<char>(kMsgReply));
    util::PutVarint64(&out, task.corr_id);
    EncodeStatus(handled, &out);
    out.append(reply);
    std::string framed;
    AppendFrame(&framed, out);
    // Count before sending: a caller that has its reply in hand must
    // observe the counter already bumped.
    served_.fetch_add(1, std::memory_order_relaxed);
    EnqueueReply(conn, std::move(framed), defer_flush);
  }
}

void TcpServer::EnqueueReply(const std::shared_ptr<Conn>& conn,
                             std::string framed, bool defer_flush) {
  {
    MutexLock guard(conn->mu);
    if (conn->closed || conn->write_failed) return;
    conn->outbox.push_back(std::move(framed));
    // If the loop already owns draining this outbox (EPOLLOUT armed),
    // just queue: it flushes everything accumulated — corked in one
    // writev. Otherwise write now, or — on a pool worker — leave the
    // bytes queued for FlushDeferred so the replies this drain produces
    // go out in one writev instead of one syscall each.
    if (conn->want_write) return;
    if (!defer_flush) {
      FlushOutboxLocked(conn.get());
      if (conn->want_write || conn->write_failed) RequestAttention(conn->fd);
      return;
    }
  }
  auto& deferred = Deferred();
  for (const auto& c : deferred) {
    if (c == conn) return;
  }
  deferred.push_back(conn);
}

std::vector<std::shared_ptr<TcpServer::Conn>>& TcpServer::Deferred() {
  static thread_local std::vector<std::shared_ptr<Conn>> deferred;
  return deferred;
}

void TcpServer::PublishDeferredLocked() {
  auto& deferred = Deferred();
  for (auto& conn : deferred) {
    bool already = false;
    for (const auto& c : orphan_deferred_) {
      if (c == conn) {
        already = true;
        break;
      }
    }
    if (!already) orphan_deferred_.push_back(std::move(conn));
  }
  deferred.clear();
  // An idle worker's wait predicate covers the orphan list, so this
  // wake is enough for the replies to go out while we run the task.
  pool_cv_.Signal();
}

void TcpServer::FlushDeferred() {
  auto& deferred = Deferred();
  {
    MutexLock guard(pool_mu_);
    for (auto& conn : orphan_deferred_) {
      bool already = false;
      for (const auto& c : deferred) {
        if (c == conn) {
          already = true;
          break;
        }
      }
      if (!already) deferred.push_back(std::move(conn));
    }
    orphan_deferred_.clear();
  }
  for (const auto& conn : deferred) {
    MutexLock guard(conn->mu);
    if (conn->closed || conn->write_failed) continue;
    if (conn->want_write) continue;  // The loop drains the outbox.
    FlushOutboxLocked(conn.get());
    if (conn->want_write || conn->write_failed) RequestAttention(conn->fd);
  }
  deferred.clear();
}

void TcpServer::FlushOutboxLocked(Conn* conn) {
  while (!conn->outbox.empty()) {
    iovec iov[64];
    int cnt = 0;
    for (const auto& b : conn->outbox) {
      const size_t off = (cnt == 0) ? conn->head_off : 0;
      iov[cnt].iov_base = const_cast<char*>(b.data()) + off;
      iov[cnt].iov_len = b.size() - off;
      if (++cnt == 64) break;
    }
    msghdr msg{};
    msg.msg_iov = iov;
    msg.msg_iovlen = static_cast<size_t>(cnt);
    // Count before sending: a peer holding the reply must observe the
    // counter already bumped. sendmsg rather than writev for
    // MSG_NOSIGNAL: a peer that reset the connection costs this
    // connection an EPIPE, not the whole process a SIGPIPE.
    io_counters_.sends.fetch_add(1, std::memory_order_relaxed);
    const ssize_t n = sendmsg(conn->fd, &msg, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        conn->want_write = true;
        return;
      }
      conn->write_failed = true;  // Peer gone; the loop reaps us.
      return;
    }
    size_t left = static_cast<size_t>(n);
    while (left > 0) {
      const size_t avail = conn->outbox.front().size() - conn->head_off;
      if (left >= avail) {
        left -= avail;
        conn->outbox.pop_front();
        conn->head_off = 0;
      } else {
        conn->head_off += left;
        left = 0;
      }
    }
  }
}

void TcpServer::CloseConn(const std::shared_ptr<Conn>& conn,
                          bool protocol_error) {
  {
    MutexLock guard(conn->mu);
    if (conn->closed) return;
    conn->closed = true;
    // Count before closing: a peer that has observed the FIN must
    // already see the error reflected in the counter.
    if (protocol_error) {
      protocol_errors_.fetch_add(1, std::memory_order_relaxed);
    }
    close(conn->fd);  // Also removes it from the epoll set.
  }
  conns_.erase(conn->fd);
  active_conns_.fetch_sub(1, std::memory_order_relaxed);
}

void TcpServer::SubmitToPool(std::function<void()> fn, bool blocking) {
  if (blocking) {
    MutexLock guard(pool_mu_);
    if (pool_stop_) return;
    ReapBlockingThreadsLocked();
    if (blocking_threads_ < kMaxBlockingThreads) {
      ++blocking_threads_;
      blocking_live_.emplace_back([this, fn = std::move(fn)] {
        fn();
        // Belt and braces: elastic tasks flush inline, but if one ever
        // deferred, the bytes must not die with this thread.
        FlushDeferred();
        MutexLock guard2(pool_mu_);
        --blocking_threads_;
        blocking_finished_.push_back(std::this_thread::get_id());
      });
      return;
    }
    // Overflow cap hit: fall through to the bounded pool.
  }
  {
    MutexLock guard(pool_mu_);
    if (pool_stop_) return;
    pool_queue_.push_back(std::move(fn));
  }
  pool_cv_.Signal();
}

void TcpServer::ReapBlockingThreadsLocked() {
  for (const auto& id : blocking_finished_) {
    for (auto it = blocking_live_.begin(); it != blocking_live_.end(); ++it) {
      if (it->get_id() == id) {
        it->join();  // The thread already ran its body; this is instant.
        blocking_live_.erase(it);
        break;
      }
    }
  }
  blocking_finished_.clear();
}

void TcpServer::WorkerMain() {
  // Upper bound on connections corked per flush: keeps the deferral
  // window short under a steady firehose while still amortizing the
  // writev.
  constexpr size_t kMaxDeferredConns = 32;
  while (true) {
    std::function<void()> fn;
    {
      MutexLock lock(pool_mu_);
      if (pool_queue_.empty() && !pool_stop_ &&
          (!Deferred().empty() || !orphan_deferred_.empty())) {
        // About to sleep: send corked replies first — a deferred
        // flush may be all that stands between clients and their
        // replies, and nothing else would send it. Covers orphans
        // published by workers that are now parked inside a task.
        lock.Unlock();
        FlushDeferred();
        lock.Lock();
      }
      while (!pool_stop_ && pool_queue_.empty()) {
        pool_cv_.Wait(pool_mu_);
        if (!orphan_deferred_.empty() && pool_queue_.empty() && !pool_stop_) {
          // Woken to flush another worker's published replies.
          lock.Unlock();
          FlushDeferred();
          lock.Lock();
        }
      }
      if (pool_queue_.empty()) {  // pool_stop_ and drained.
        lock.Unlock();
        FlushDeferred();
        return;
      }
      fn = std::move(pool_queue_.front());
      pool_queue_.pop_front();
      // Wake chaining: SubmitBatch notifies once per batch; each
      // worker that takes a task passes the baton while work remains,
      // so deep batches fan out without a notify per task.
      if (!pool_queue_.empty()) pool_cv_.Signal();
      // This task may block indefinitely; replies already corked on
      // this thread must not wait out its runtime (a finished fast
      // call's reply stranded behind a parked slow handler).
      if (!Deferred().empty()) PublishDeferredLocked();
    }
    fn();
    if (Deferred().size() >= kMaxDeferredConns) FlushDeferred();
  }
}

}  // namespace rrq::net
