#ifndef RRQ_NET_IO_BACKEND_H_
#define RRQ_NET_IO_BACKEND_H_

/// Internal seam between TcpServer's protocol/dispatch logic and the
/// kernel event-delivery mechanics. Two implementations exist:
///
///   - epoll_backend.cc: the readiness loop that shipped in PR 5
///     (epoll_wait + bounded recv sweep + EPOLLOUT re-arm). All raw
///     epoll_* syscalls live in that translation unit.
///   - uring_backend.cc: an io_uring completion loop (multishot
///     IORING_OP_RECV into a provided-buffer ring, multishot accept,
///     a registered poll on the wake eventfd, and SENDMSG SQEs for
///     backpressured reply flushes). All io_uring_* syscalls live
///     there, including the runtime capability probe.
///
/// Selection is runtime (`TcpServerOptions::backend`,
/// `TcpChannelOptions::backend`, `rrqd --net-backend`): `kAuto`
/// prefers io_uring and falls back to epoll with a logged reason when
/// the kernel or sandbox denies `io_uring_setup` or lacks the ops we
/// need — auto mode never fails to start.

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>

#include "net/frame.h"
#include "util/slice.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace rrq::net {

enum class IoBackendKind {
  kAuto,   // uring when available, else epoll
  kEpoll,  // force the readiness loop
  kUring,  // force io_uring (server start / channel connect fail if absent)
};

const char* IoBackendName(IoBackendKind kind);

/// Parses "auto" / "epoll" / "uring". Returns false on anything else.
bool ParseIoBackend(const std::string& text, IoBackendKind* out);

/// Runtime probe, cached after the first call: sets up a small ring,
/// registers a provided-buffer ring, and exercises a multishot recv on
/// a socketpair — the exact feature set uring_backend.cc relies on.
/// When unavailable, `*reason` (if non-null) says why (ENOSYS, EPERM
/// from seccomp, missing ops, pre-6.0 kernel without multishot recv).
bool UringAvailable(std::string* reason);

/// Resolves `requested` against the probe. kAuto silently degrades to
/// kEpoll; kUring stays kUring even when unavailable so the caller can
/// surface a hard error. `*note` (if non-null) gets a human-readable
/// explanation whenever the resolution was not a straight pass-through.
IoBackendKind ResolveIoBackend(IoBackendKind requested, std::string* note);

/// Per-loop I/O syscall counters. Incremented with relaxed atomics by
/// whichever threads drive the loop; snapshot via Snapshot().
struct IoCounters {
  std::atomic<uint64_t> waits{0};    // blocking event waits: epoll_wait /
                                     // poll / io_uring_enter w/ GETEVENTS
  std::atomic<uint64_t> recvs{0};    // recv/readv syscalls (0 in uring
                                     // loops: data arrives via CQE buffers)
  std::atomic<uint64_t> sends{0};    // send/writev syscalls made directly
  std::atomic<uint64_t> enters{0};   // every io_uring_enter; waits ⊆ enters
  std::atomic<uint64_t> sqes{0};     // submission queue entries submitted
  std::atomic<uint64_t> sqe_batches{0};  // enters that submitted >= 1 SQE
  std::atomic<uint64_t> cqes{0};     // completions reaped
};

/// Point-in-time copy of IoCounters plus the resolved backend name.
struct IoLoopStats {
  const char* backend = "none";
  uint64_t waits = 0;
  uint64_t recvs = 0;
  uint64_t sends = 0;
  uint64_t enters = 0;
  uint64_t sqes = 0;
  uint64_t sqe_batches = 0;
  uint64_t cqes = 0;

  /// Total loop I/O syscalls. For a readiness loop every loop syscall
  /// is a wait, a recv, or a send; for a uring loop every ring syscall
  /// is an enter (waits is a subset of enters, so it is not re-added)
  /// and direct recv/send still count (e.g. worker-side reply writev,
  /// eventfd drains). This is the honest collapse metric E22 reports.
  uint64_t io_syscalls() const { return recvs + sends + enters + (enters == 0 ? waits : 0); }
};

IoLoopStats SnapshotIoCounters(const char* backend, const IoCounters& c);

/// Per-connection server state. The frame reader is loop-thread-only;
/// the outbox and flush flags follow DESIGN.md §11.
struct ServerConn {
  int fd = -1;
  FrameReader reader;  // loop thread only

  rrq::Mutex mu;
  bool closed GUARDED_BY(mu) = false;
  bool want_write GUARDED_BY(mu) = false;  // flush hit EAGAIN; the backend
                                           // owns draining the outbox until
                                           // it clears this again
  bool write_failed GUARDED_BY(mu) = false;
  std::deque<std::string> outbox GUARDED_BY(mu);
  size_t head_off GUARDED_BY(mu) = 0;  // bytes of outbox.front() already sent

  // Opaque per-connection backend bookkeeping (uring arming state,
  // in-flight writev buffers). Loop thread only.
  std::shared_ptr<void> backend_state;
};

/// Drains conn->outbox with vectored sends until empty, EAGAIN (sets
/// want_write so the backend re-arms write interest), or a hard error
/// (sets write_failed). Shared by worker-side reply flushes and the
/// epoll backend's writable re-entry. Counts each send into `sends`.
void FlushOutboxLocked(ServerConn* conn, IoCounters* counters) REQUIRES(conn->mu);

/// Event-loop mechanics behind TcpServer. All methods except Wake()
/// and stats() must be called from the loop thread. Implementations
/// deliver events through the Sink *during* Wait().
class ServerIoBackend {
 public:
  /// Callbacks invoked from inside Wait() on the loop thread.
  class Sink {
   public:
    virtual ~Sink() = default;
    /// A connection was accepted; the sink owns `fd` from here.
    virtual void OnAccepted(int fd) = 0;
    /// `data` is valid only for the duration of the call.
    virtual void OnRecvData(const std::shared_ptr<ServerConn>& conn, Slice data) = 0;
    /// Peer closed the connection (clean FIN).
    virtual void OnRecvEof(const std::shared_ptr<ServerConn>& conn) = 0;
    /// Hard socket error (recv/write failure, EPOLLERR).
    virtual void OnConnError(const std::shared_ptr<ServerConn>& conn) = 0;
    /// The wake eventfd fired (already drained by the backend).
    virtual void OnWake() = 0;
  };

  virtual ~ServerIoBackend() = default;

  /// `listen_fd` and `wake_fd` stay owned by the caller.
  virtual Status Start(int listen_fd, int wake_fd, Sink* sink) = 0;

  /// Releases ring/epoll resources and closes any connection fds whose
  /// close was deferred by Retire(). Call after the loop thread exits.
  virtual void Shutdown() = 0;

  /// Registers a fresh connection for receive interest.
  virtual Status SubmitRecv(const std::shared_ptr<ServerConn>& conn) = 0;

  /// Arms write interest for a conn whose flush left want_write set.
  /// The backend drains the outbox (sendmsg SQEs on uring, EPOLLOUT +
  /// FlushOutboxLocked on epoll) until empty, clearing want_write, or
  /// reports failure via OnConnError.
  virtual void SubmitWritev(const std::shared_ptr<ServerConn>& conn) = 0;

  /// The server is done with this connection: stop receive interest
  /// and close conn->fd once no kernel operation still references it
  /// (immediately on epoll; after in-flight CQEs drain on uring).
  virtual void Retire(const std::shared_ptr<ServerConn>& conn) = 0;

  /// One blocking wait-and-deliver cycle. Returns a non-OK status only
  /// for unrecoverable loop failures.
  virtual Status Wait() = 0;

  virtual const char* name() const = 0;
};

/// `kind` must be kEpoll or kUring (resolve kAuto first). `counters`
/// is owned by the caller (TcpServer) and must outlive the backend; it
/// is shared so worker-side reply flushes and the loop accumulate into
/// one pool surfaced by TcpServer::io_stats().
std::unique_ptr<ServerIoBackend> CreateServerIoBackend(IoBackendKind kind,
                                                       IoCounters* counters);

/// Creates the uring server backend, or null (with a reason) when the
/// ring cannot be set up. Defined in uring_backend.cc.
std::unique_ptr<ServerIoBackend> CreateUringServerBackend(IoCounters* counters,
                                                          std::string* reason);
std::unique_ptr<ServerIoBackend> CreateEpollServerBackend(IoCounters* counters);

}  // namespace rrq::net

#endif  // RRQ_NET_IO_BACKEND_H_
