#ifndef RRQ_NET_TCP_TRANSPORT_H_
#define RRQ_NET_TCP_TRANSPORT_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

#include "net/frame.h"
#include "net/transport.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace rrq::net {

// See net/wire.h for the payload layout: calls carry correlation ids,
// so many share one connection and replies arrive in any order.

/// Event-loop I/O syscall counts (DESIGN.md §13), read through
/// TcpServer::io_stats() and TcpChannel::io_stats().
struct IoLoopStats {
  uint64_t waits = 0;  // epoll_wait / poll
  uint64_t recvs = 0;  // recv, including wake-eventfd drains
  uint64_t sends = 0;  // sendmsg / send
  uint64_t io_syscalls() const { return waits + recvs + sends; }
};

/// The live counters behind IoLoopStats, bumped with relaxed atomics by
/// whichever thread makes the syscall.
struct IoCounters {
  std::atomic<uint64_t> waits{0};
  std::atomic<uint64_t> recvs{0};
  std::atomic<uint64_t> sends{0};
  IoLoopStats Snapshot() const {
    return {waits.load(std::memory_order_relaxed),
            recvs.load(std::memory_order_relaxed),
            sends.load(std::memory_order_relaxed)};
  }
};

struct TcpServerOptions {
  std::string bind_address = "127.0.0.1";
  /// 0 binds an ephemeral port; read the result from port().
  uint16_t port = 0;
  int backlog = 128;
  /// Handler worker threads. 0 = std::thread::hardware_concurrency().
  int workers = 0;
};

/// Serves an RpcHandler over TCP. One epoll loop owns every socket
/// (accept, reads, backpressured writes); decoded requests are
/// executed on a bounded worker pool, so concurrent calls from one
/// connection — and from many connections — run handlers in parallel
/// and their commits coalesce into group-commit batches. Completed
/// replies are appended to a per-connection outbox and flushed with
/// writev, corking whatever has accumulated by the time the socket is
/// writable.
///
/// Connection state lives exactly as long as the connection: the loop
/// drops it the moment the socket closes (no per-connection thread to
/// reap, no fd roster that only Stop() trims).
class TcpServer {
 public:
  /// Returns true for requests that may park their worker thread for a
  /// long time (e.g. a Dequeue carrying a wait timeout). Such requests
  /// run on elastic threads, spawned on demand up to a fixed cap, so a
  /// parked long-poll cannot starve the bounded pool. Must be set
  /// before Start() and must be thread-safe.
  using BlockingHint = std::function<bool(const Slice& request)>;
  /// Serves a message that arrived one-way, for services that must know
  /// no reply will leave. Unset: the RpcHandler runs and its reply is
  /// dropped. Must be set before Start() and must be thread-safe.
  using OneWayHandler = std::function<void(const Slice& message)>;

  TcpServer(TcpServerOptions options, RpcHandler handler);
  ~TcpServer();

  TcpServer(const TcpServer&) = delete;
  TcpServer& operator=(const TcpServer&) = delete;

  void set_blocking_hint(BlockingHint hint) { hint_ = std::move(hint); }
  void set_one_way_handler(OneWayHandler handler) {
    one_way_handler_ = std::move(handler);
  }

  /// Binds, listens, and starts the I/O loop and worker pool. IOError
  /// when the address cannot be bound.
  Status Start();
  void Stop();

  /// The actually bound port (resolves port 0 after Start()).
  uint16_t port() const { return port_; }

  uint64_t connections_accepted() const {
    return accepted_.load(std::memory_order_relaxed);
  }
  uint64_t requests_served() const {
    return served_.load(std::memory_order_relaxed);
  }
  /// Connections dropped for sending invalid frames or unknown
  /// message kinds.
  uint64_t protocol_errors() const {
    return protocol_errors_.load(std::memory_order_relaxed);
  }
  /// Currently open connections — returns to zero when clients hang
  /// up, regardless of how many came and went (the PR 3 server only
  /// reclaimed connection state in Stop()).
  uint64_t active_connections() const {
    return active_conns_.load(std::memory_order_relaxed);
  }
  /// I/O syscalls made by the loop and by workers' reply flushes.
  IoLoopStats io_stats() const { return io_counters_.Snapshot(); }
  /// Read only by perfbench's facts line; a perfbench-only change
  /// deletes it.
  const char* io_backend_name() const { return "epoll"; }

 private:
  // Per-connection state. The frame reader is loop-thread-only; the
  // outbox and flush flags follow DESIGN.md §11.
  struct Conn {
    int fd = -1;
    FrameReader reader;  // loop thread only

    Mutex mu;
    bool closed GUARDED_BY(mu) = false;
    // A flush hit EAGAIN: the loop owns draining the outbox (EPOLLOUT)
    // until it clears this again.
    bool want_write GUARDED_BY(mu) = false;
    bool write_failed GUARDED_BY(mu) = false;
    std::deque<std::string> outbox GUARDED_BY(mu);
    size_t head_off GUARDED_BY(mu) = 0;  // bytes of outbox.front() sent
  };
  // One decoded request awaiting dispatch.
  struct Task {
    unsigned char kind = 0;  // kMsgCall or kMsgOneWay
    uint64_t corr_id = 0;
    std::string body;
  };

  void LoopMain();
  // Loop-thread event handlers.
  void AcceptAll();
  void HandleReadable(const std::shared_ptr<Conn>& conn);
  void HandleWritable(const std::shared_ptr<Conn>& conn);
  // Decodes buffered frames into dispatched tasks; false on protocol
  // violation (caller closes the connection).
  bool DrainFrames(const std::shared_ptr<Conn>& conn);
  void Dispatch(const std::shared_ptr<Conn>& conn, Task task);
  // Submits whatever Dispatch accumulated in loop_pending_ with one
  // pool lock and one wakeup, however many frames the readable sweep
  // decoded. Loop thread only.
  void SubmitBatch();
  void RunTask(const std::shared_ptr<Conn>& conn, Task task, bool defer_flush);
  // With defer_flush the reply is appended to the outbox but the
  // socket write is left to FlushDeferred(), so replies completed by
  // one worker drain go out corked in a single writev.
  void EnqueueReply(const std::shared_ptr<Conn>& conn, std::string framed,
                    bool defer_flush);
  // The calling thread's connections with deferred (unflushed) reply
  // bytes. Per worker thread; the loop thread never defers.
  std::vector<std::shared_ptr<Conn>>& Deferred();
  void FlushDeferred();
  // Hands this thread's deferred connections to the pool-wide orphan
  // list and wakes an idle worker to flush them. A worker about to run
  // a task of unknown duration must not carry deferred bytes into it:
  // the task may sleep for seconds while a finished reply sits unsent
  // in the outbox with nothing left to send it.
  void PublishDeferredLocked() REQUIRES(pool_mu_);
  // Drains conn->outbox with vectored sends until empty, EAGAIN (sets
  // want_write so the loop arms EPOLLOUT), or a hard error (sets
  // write_failed).
  void FlushOutboxLocked(Conn* conn) REQUIRES(conn->mu);
  void CloseConn(const std::shared_ptr<Conn>& conn, bool protocol_error);
  // Asks the loop to re-examine `fd` (arm write interest / reap a
  // failed writer). Safe from any thread.
  void RequestAttention(int fd);
  void ProcessAttention();
  void SubmitToPool(std::function<void()> fn, bool blocking);
  void WorkerMain();
  // Joins elastic threads that have finished.
  void ReapBlockingThreadsLocked() REQUIRES(pool_mu_);

  TcpServerOptions options_;
  RpcHandler handler_;
  BlockingHint hint_;
  OneWayHandler one_way_handler_;
  std::atomic<bool> running_{false};
  int listen_fd_ = -1;
  int wake_fd_ = -1;
  int epoll_fd_ = -1;
  uint16_t port_ = 0;
  std::thread loop_;
  IoCounters io_counters_;

  // Connection roster, keyed by fd (epoll events carry only the fd).
  // Loop thread only, and Stop() once the loop has exited; workers
  // reach connections through the shared_ptr captured at dispatch.
  std::unordered_map<int, std::shared_ptr<Conn>> conns_;

  Mutex attention_mu_;
  std::vector<int> attention_ GUARDED_BY(attention_mu_);

  // Tasks decoded by the current readable sweep, awaiting SubmitBatch.
  // Loop thread only.
  std::vector<std::function<void()>> loop_pending_;

  Mutex pool_mu_;
  CondVar pool_cv_;
  std::deque<std::function<void()>> pool_queue_ GUARDED_BY(pool_mu_);
  // Deferred-reply connections published by workers that moved on to
  // another task before flushing (see PublishDeferredLocked). Drained
  // by FlushDeferred from whichever thread flushes next.
  std::vector<std::shared_ptr<Conn>> orphan_deferred_ GUARDED_BY(pool_mu_);
  // Start()/Stop() only, which the caller serializes; workers never
  // touch the vector itself.
  std::vector<std::thread> workers_;
  bool pool_stop_ GUARDED_BY(pool_mu_) = false;
  int blocking_threads_ GUARDED_BY(pool_mu_) = 0;
  std::vector<std::thread> blocking_live_ GUARDED_BY(pool_mu_);
  std::vector<std::thread::id> blocking_finished_ GUARDED_BY(pool_mu_);

  std::atomic<uint64_t> accepted_{0};
  std::atomic<uint64_t> served_{0};
  std::atomic<uint64_t> protocol_errors_{0};
  std::atomic<uint64_t> active_conns_{0};
};

struct TcpChannelOptions {
  std::string host = "127.0.0.1";
  uint16_t port = 0;
  /// Deadline on each TCP connect attempt.
  uint64_t connect_timeout_micros = 1'000'000;
  /// Deadline on a whole Call (send + wait for the reply frame). Must
  /// exceed the longest server-side blocking operation (a Dequeue's
  /// wait timeout rides inside the request, not the transport).
  uint64_t call_timeout_micros = 15'000'000;
  /// Bounded reconnect: attempts per Call at establishing a
  /// connection, with exponential backoff between attempts. Only
  /// connecting retries — a request whose bytes may have reached the
  /// server is never resent (§2: its fate is resolved by the client
  /// protocol, not the transport).
  int max_connect_attempts = 10;
  uint64_t backoff_initial_micros = 2'000;
  uint64_t backoff_max_micros = 250'000;
};

/// Message carried by the Unavailable status a TcpChannel produces
/// when a call's own deadline expires. Stable: pool and clerk layers
/// match on it to attribute expiries per caller.
inline constexpr std::string_view kCallDeadlineExceededMessage =
    "call deadline exceeded";

/// True when `s` is a TcpChannel per-call deadline expiry — the §2
/// uncertainty flavor where the request is known to have been sent but
/// the reply was given up on (any straggler is discarded by id).
inline bool IsCallDeadlineExpiry(const Status& s) {
  return s.IsUnavailable() &&
         s.message().find(kCallDeadlineExceededMessage) != std::string_view::npos;
}

/// Client connection to a TcpServer. Connects lazily on first use and
/// reconnects (with backoff, bounded) whenever a call finds the
/// channel disconnected.
///
/// Many calls share the one socket: writers cork into a single
/// combining send path, a demux reader thread matches kMsgReply
/// correlation ids to pending calls, and each call carries its own
/// deadline. A deadline expiry fails that call alone (Unavailable; a
/// straggler reply is later discarded by id) — only protocol
/// corruption or a dead socket poisons the connection, which fails
/// every pending call and reconnects on next use. Thread-safe: one
/// shared channel serves many clerk threads.
class TcpChannel final : public Channel {
 public:
  explicit TcpChannel(TcpChannelOptions options);
  ~TcpChannel() override;

  TcpChannel(const TcpChannel&) = delete;
  TcpChannel& operator=(const TcpChannel&) = delete;

  /// Futures-style synchronous call, built on CallAsync: registers the
  /// call, then blocks until its callback fires.
  Status Call(const Slice& request, std::string* reply) override;
  /// Call whose deadline is max(call_timeout_micros, the caller's
  /// min_deadline_micros) — the knob blocking server-side ops use so
  /// the transport outwaits them (CallOptions::min_deadline_micros).
  Status Call(const Slice& request, std::string* reply,
              const CallOptions& options) override;

  /// Pipelined call: returns as soon as the request is on the wire
  /// (or has failed). `done` fires exactly once — from the demux
  /// reader on a reply, a deadline expiry, or connection teardown;
  /// inline when the channel cannot connect. The callback must not
  /// call Close() or destroy the channel.
  void CallAsync(const Slice& request, Callback done) override;
  void CallAsync(const Slice& request, const CallOptions& options,
                 Callback done) override;

  /// Best effort: a one-way message that cannot be sent is silently
  /// lost (the §5 contract — no failure signal exists for it).
  Status SendOneWay(const Slice& message) override;

  /// Fails every pending call and drops the connection; the next call
  /// reconnects. Must not be called from a call's callback.
  void Close();

  /// Repoints the channel at a different server (failover: a promoted
  /// backup): tears the current connection down like Close() and
  /// directs the next reconnect at host:port. Calls in flight fail
  /// with Unavailable and their fate is resolved by the client
  /// protocol, exactly as for a connection loss. Must not be called
  /// from a call's callback.
  void SetTarget(const std::string& host, uint16_t port);

  uint64_t connects() const { return connects_.load(std::memory_order_relaxed); }
  uint64_t one_ways_lost() const {
    return one_ways_lost_.load(std::memory_order_relaxed);
  }
  /// Replies whose correlation id matched no pending call —
  /// stragglers from expired deadlines (discarded, §2-safe) or a
  /// misbehaving server.
  uint64_t late_replies() const {
    return late_replies_.load(std::memory_order_relaxed);
  }
  /// Calls failed by their own deadline while the connection lived on.
  uint64_t deadline_expiries() const {
    return deadline_expiries_.load(std::memory_order_relaxed);
  }
  /// Test hook: severs the live connection exactly as an I/O error
  /// would — pending calls fail, the next call reconnects. Lets tests
  /// drive the failure/reconnect races against a healthy server.
  void BreakConnectionForTest();
  /// I/O syscalls made by the reader and the send path (§13).
  IoLoopStats io_stats() const { return io_counters_.Snapshot(); }
  /// Read only by perfbench's facts line; a perfbench-only change
  /// deletes it.
  const char* io_backend_name() const { return "poll"; }

 private:
  struct Sock;  // fd + reader-wake eventfd; closed when the last user lets go
  struct PendingCall {
    Callback done;
    uint64_t deadline_micros = 0;
  };

  // Connects and starts the demux reader. Waits out its backoff on
  // backoff_cv_, which releases mu_.
  Status EnsureConnectedLocked() REQUIRES(mu_);
  Status ConnectOnce(int* fd_out);
  void ReaderMain(std::shared_ptr<Sock> sock);
  // The poll() loop behind ReaderMain's teardown; returns the
  // connection-fatal status.
  Status ReaderLoop(const std::shared_ptr<Sock>& sock, FrameReader* reader);
  // Fails every expired pending call; returns the earliest remaining
  // deadline (UINT64_MAX = none) and records it as reader_wait_until_.
  uint64_t SweepDeadlines();
  // Dispatches every complete reply frame in `reader` to its pending
  // call; non-OK on a corrupt stream.
  Status DispatchReplies(FrameReader* reader);
  // Marks the socket dead and wakes the reader, which fails every
  // pending call and clears the connection.
  void BreakConnection(const std::shared_ptr<Sock>& sock);
  // The send path: appends the frame to the socket's combining buffer
  // and drains it if no other thread is already writing, so frames
  // issued concurrently (or from reply callbacks in a burst) cork into
  // few sends. An error means the stream broke mid-frame; the caller
  // must BreakConnection.
  Status SendFrame(const std::shared_ptr<Sock>& sock, std::string framed);
  // Claims the combining-writer role without sending (true on
  // success); the claimant must later DrainOutbuf — which sends the
  // accumulated frames and retires the writer role — even on failure
  // paths.
  bool CorkOutbuf(const std::shared_ptr<Sock>& sock);
  Status DrainOutbuf(const std::shared_ptr<Sock>& sock);

  TcpChannelOptions options_;

  Mutex mu_;
  CondVar reader_exit_cv_;
  CondVar backoff_cv_;  // Signalled by SetTarget and Close.
  std::shared_ptr<Sock> sock_ GUARDED_BY(mu_);  // null while disconnected
  uint64_t next_id_ GUARDED_BY(mu_) = 1;
  std::unordered_map<uint64_t, PendingCall> pending_ GUARDED_BY(mu_);
  // Deadline the reader is currently sleeping toward (UINT64_MAX =
  // none); a new call with an earlier one kicks the wake eventfd.
  uint64_t reader_wait_until_ GUARDED_BY(mu_) = 0;
  // Spawned and joined under mu_ (join happens only after the reader
  // announced reader_done_, so it cannot deadlock).
  std::thread reader_;
  bool reader_done_ GUARDED_BY(mu_) = true;

  std::atomic<uint64_t> connects_{0};
  std::atomic<uint64_t> one_ways_lost_{0};
  std::atomic<uint64_t> late_replies_{0};
  std::atomic<uint64_t> deadline_expiries_{0};
  IoCounters io_counters_;
};

}  // namespace rrq::net

#endif  // RRQ_NET_TCP_TRANSPORT_H_
