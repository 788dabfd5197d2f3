#include "net/io_backend.h"

#include <sys/socket.h>
#include <sys/uio.h>

#include <cerrno>

#include "util/logging.h"

namespace rrq::net {

const char* IoBackendName(IoBackendKind kind) {
  switch (kind) {
    case IoBackendKind::kAuto:
      return "auto";
    case IoBackendKind::kEpoll:
      return "epoll";
    case IoBackendKind::kUring:
      return "uring";
  }
  return "unknown";
}

bool ParseIoBackend(const std::string& text, IoBackendKind* out) {
  if (text == "auto") {
    *out = IoBackendKind::kAuto;
  } else if (text == "epoll") {
    *out = IoBackendKind::kEpoll;
  } else if (text == "uring" || text == "io_uring") {
    *out = IoBackendKind::kUring;
  } else {
    return false;
  }
  return true;
}

IoBackendKind ResolveIoBackend(IoBackendKind requested, std::string* note) {
  if (note) note->clear();
  if (requested == IoBackendKind::kEpoll) return IoBackendKind::kEpoll;
  std::string reason;
  const bool available = UringAvailable(&reason);
  if (available) return IoBackendKind::kUring;
  if (note) {
    *note = (requested == IoBackendKind::kAuto)
                ? "io_uring unavailable, using epoll: " + reason
                : "io_uring requested but unavailable: " + reason;
  }
  // kUring stays kUring so the caller can fail hard; kAuto degrades.
  return requested == IoBackendKind::kAuto ? IoBackendKind::kEpoll
                                           : IoBackendKind::kUring;
}

IoLoopStats SnapshotIoCounters(const char* backend, const IoCounters& c) {
  IoLoopStats s;
  s.backend = backend;
  s.waits = c.waits.load(std::memory_order_relaxed);
  s.recvs = c.recvs.load(std::memory_order_relaxed);
  s.sends = c.sends.load(std::memory_order_relaxed);
  s.enters = c.enters.load(std::memory_order_relaxed);
  s.sqes = c.sqes.load(std::memory_order_relaxed);
  s.sqe_batches = c.sqe_batches.load(std::memory_order_relaxed);
  s.cqes = c.cqes.load(std::memory_order_relaxed);
  return s;
}

void FlushOutboxLocked(ServerConn* conn, IoCounters* counters) {
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
    // sendmsg rather than writev for MSG_NOSIGNAL: a peer that reset
    // the connection costs this connection an EPIPE, not the whole
    // process a SIGPIPE.
    const ssize_t n = sendmsg(conn->fd, &msg, MSG_NOSIGNAL);
    if (counters) counters->sends.fetch_add(1, std::memory_order_relaxed);
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

std::unique_ptr<ServerIoBackend> CreateServerIoBackend(IoBackendKind kind,
                                                       IoCounters* counters) {
  if (kind == IoBackendKind::kUring) {
    std::string reason;
    auto backend = CreateUringServerBackend(counters, &reason);
    if (backend) return backend;
    // The probe said yes but ring setup failed now (e.g. RLIMIT_MEMLOCK
    // pressure). Auto-mode callers resolved kAuto before calling us, so
    // degrade here too rather than dying mid-start.
    RRQ_LOG(kWarn) << "io_uring backend setup failed (" << reason
                   << "); falling back to epoll";
  }
  return CreateEpollServerBackend(counters);
}

}  // namespace rrq::net
