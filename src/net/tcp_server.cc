// TcpServer: one backend-driven I/O loop plus a bounded worker pool.
//
// The kernel mechanics — how readiness/completions are waited for and
// how bytes move — live behind ServerIoBackend (net/io_backend.h):
// epoll_backend.cc is the readiness loop from PR 5, uring_backend.cc
// the io_uring completion loop (DESIGN.md §13). This file keeps the
// protocol and dispatch logic, which is backend-agnostic.
//
// Threading model, kept deliberately narrow:
//   - The loop thread is the only code that accepts, reads sockets,
//     mutates the connection roster, or talks to the backend.
//   - Workers run handlers and write replies. A reply is appended to
//     the connection's outbox under its mutex; a pool worker defers
//     the socket write until it runs out of queued tasks (or hits a
//     cap), so all the replies one drain produced go out corked in one
//     writev — and a batch of pipelined requests costs one reply
//     syscall, not one per request. Elastic threads and backpressured
//     sockets flush as before: on EAGAIN the writer leaves
//     `want_write` set and asks the loop to arm write interest
//     (EPOLLOUT on epoll, a SENDMSG SQE on uring).
//   - Connection objects travel by shared_ptr, so a worker finishing a
//     handler after the peer hung up writes to nothing: `closed` is
//     checked under the same mutex that guards the fd.
//
// Every decoded call goes straight to the pool, so concurrent calls
// from one socket execute in parallel and their commits meet in the
// WAL's group-commit window. Replies echo the call's correlation id
// (net/wire.h), so they leave in completion order. A frame of any kind
// but kMsgCall or kMsgOneWay closes the connection as a protocol error.

#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "net/socket_util.h"
#include "net/tcp_transport.h"
#include "net/wire.h"
#include "util/coding.h"
#include "util/logging.h"

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
  listen_fd_ = fd;

  std::string note;
  const IoBackendKind resolved = ResolveIoBackend(options_.backend, &note);
  if (!note.empty()) {
    RRQ_LOG(kWarn) << "tcp_server: " << note;
  }
  backend_ = CreateServerIoBackend(resolved, &io_counters_);
  Status started = backend_->Start(listen_fd_, wake_fd_, &sink_);
  if (!started.ok()) {
    close(listen_fd_);
    close(wake_fd_);
    listen_fd_ = wake_fd_ = -1;
    backend_.reset();
    return started;
  }
  backend_name_.store(backend_->name(), std::memory_order_relaxed);

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

  // Workers are gone: nobody references the ring or the epoll set any
  // more, so the backend can drop in-flight operations.
  if (backend_) backend_->Shutdown();

  std::unordered_map<int, std::shared_ptr<Conn>> conns;
  {
    MutexLock guard(conns_mu_);
    conns.swap(conns_);
  }
  for (auto& [fd, conn] : conns) {
    MutexLock guard(conn->mu);
    conn->closed = true;
    close(conn->fd);
  }
  active_conns_.store(0, std::memory_order_relaxed);
  if (listen_fd_ >= 0) {
    // A uring multishot accept holds the listening socket until the
    // kernel finishes tearing the ring down, which it does
    // asynchronously. Until then connects would still succeed into the
    // backlog, and a client's request bytes would go to a server that
    // will never read them. shutdown() stops the listener now.
    shutdown(listen_fd_, SHUT_RDWR);
    close(listen_fd_);
  }
  if (wake_fd_ >= 0) close(wake_fd_);
  listen_fd_ = wake_fd_ = -1;
}

std::shared_ptr<TcpServer::Conn> TcpServer::LookupConn(int fd) {
  MutexLock guard(conns_mu_);
  auto it = conns_.find(fd);
  return it == conns_.end() ? nullptr : it->second;
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
    std::shared_ptr<Conn> conn = LookupConn(fd);
    if (!conn) continue;
    bool failed, want;
    {
      MutexLock guard(conn->mu);
      failed = conn->write_failed;
      want = conn->want_write;
    }
    if (failed) {
      CloseConn(conn, false);
    } else if (want) {
      backend_->SubmitWritev(conn);
    }
  }
}

void TcpServer::LoopMain() {
  while (running_.load(std::memory_order_relaxed)) {
    if (!backend_->Wait().ok()) return;
    if (!running_.load(std::memory_order_relaxed)) return;
    // Everything this cycle decoded goes to the pool in one handoff.
    SubmitBatch();
    ProcessAttention();
  }
}

void TcpServer::SinkImpl::OnAccepted(int fd) {
  SetNonBlocking(fd);
  SetNoDelay(fd);
  auto conn = std::make_shared<ServerConn>();
  conn->fd = fd;
  {
    MutexLock guard(server_->conns_mu_);
    server_->conns_[fd] = conn;
  }
  Status armed = server_->backend_->SubmitRecv(conn);
  if (!armed.ok()) {
    {
      MutexLock guard(server_->conns_mu_);
      server_->conns_.erase(fd);
    }
    close(fd);
    return;
  }
  server_->accepted_.fetch_add(1, std::memory_order_relaxed);
  server_->active_conns_.fetch_add(1, std::memory_order_relaxed);
}

void TcpServer::SinkImpl::OnRecvData(const std::shared_ptr<ServerConn>& conn,
                                     Slice data) {
  conn->reader.Feed(data);
  if (!server_->DrainFrames(conn)) {
    server_->CloseConn(conn, /*protocol_error=*/true);
  }
}

void TcpServer::SinkImpl::OnRecvEof(const std::shared_ptr<ServerConn>& conn) {
  server_->CloseConn(conn, /*protocol_error=*/!conn->reader.AtEnd().ok());
}

void TcpServer::SinkImpl::OnConnError(const std::shared_ptr<ServerConn>& conn) {
  server_->CloseConn(conn, false);  // Reset: the peer is gone.
}

void TcpServer::SinkImpl::OnWake() {}

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
    // If the backend already owns draining this outbox (EPOLLOUT armed
    // or a SENDMSG SQE in flight), just queue: the backend flushes
    // everything accumulated — corked in one writev. Otherwise write
    // now, or — on a pool worker — leave the bytes queued for
    // FlushDeferred so the replies this drain produces go out in one
    // writev instead of one syscall each.
    if (conn->want_write) return;
    if (!defer_flush) {
      FlushOutboxLocked(conn.get(), &io_counters_);
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
    if (conn->want_write) continue;  // The backend drains the outbox.
    FlushOutboxLocked(conn.get(), &io_counters_);
    if (conn->want_write || conn->write_failed) RequestAttention(conn->fd);
  }
  deferred.clear();
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
    // Closing the fd removes it from the epoll set; in-flight uring
    // ops are cancelled by Retire below (by user_data, §13).
    close(conn->fd);
  }
  {
    MutexLock guard(conns_mu_);
    conns_.erase(conn->fd);
  }
  backend_->Retire(conn);
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
