// io_uring ServerIoBackend and the client channel's ring I/O.
//
// The container has no liburing, so this file drives the rings with
// raw syscalls: io_uring_setup + three mmaps (SQ ring, SQE array, CQ
// ring — merged under IORING_FEAT_SINGLE_MMAP) and release/acquire
// atomics on the ring indices, the same fast path liburing compiles
// down to.
//
// Shape of the server loop (DESIGN.md §13):
//   - one multishot IORING_OP_ACCEPT on the listener,
//   - one multishot IORING_OP_POLL_ADD on the wake eventfd,
//   - per connection, one multishot IORING_OP_RECV drawing from a
//     registered provided-buffer ring, so inbound bytes arrive as
//     completions with zero recv syscalls and no EAGAIN probes,
//   - IORING_OP_SENDMSG SQEs for backpressured reply flushes (the
//     EPOLLOUT continuation of the epoll backend): the SQE references
//     the outbox strings in place and a short write resubmits the
//     remainder at its byte offset — frames are never re-encoded, so
//     the §2 never-resend contract is untouched by SQE resubmission.
//     MSG_NOSIGNAL rides on the SQE: a peer reset mid-flush fails the
//     write with EPIPE instead of raising SIGPIPE in the loop thread.
//
// All SQE preparation happens on the loop thread at the top of Wait(),
// immediately before the enter that submits it. Retired connections
// close their fd first (under conn->mu, in TcpServer::CloseConn), so a
// deferred re-arm can never target a recycled fd number: an intent for
// a retired conn is dropped, and an armed op is cancelled by user_data
// (never by fd).

#include "net/uring_backend.h"

#include <linux/io_uring.h>
#include <poll.h>
#include <sys/mman.h>
#include <sys/socket.h>
#include <sys/syscall.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <unordered_map>
#include <utility>
#include <vector>

#include "util/logging.h"

namespace rrq::net {
namespace uring_internal {

namespace {

int SysSetup(unsigned entries, io_uring_params* p) {
  return static_cast<int>(syscall(__NR_io_uring_setup, entries, p));
}

long SysEnter(int fd, unsigned to_submit, unsigned min_complete,
              unsigned flags, const void* arg, size_t argsz) {
  return syscall(__NR_io_uring_enter, fd, to_submit, min_complete, flags, arg,
                 argsz);
}

int SysRegister(int fd, unsigned opcode, const void* arg, unsigned nr_args) {
  return static_cast<int>(
      syscall(__NR_io_uring_register, fd, opcode, arg, nr_args));
}

}  // namespace

/// One ring: SQ/CQ mmaps, SQE accounting, and the provided-buffer ring
/// the server's multishot recvs draw from. Single-threaded by design —
/// every submission happens on the thread that owns the ring.
class Ring {
 public:
  static std::unique_ptr<Ring> Create(unsigned entries, std::string* reason) {
    auto ring = std::unique_ptr<Ring>(new Ring());
    io_uring_params p{};
    // CQ must absorb a full multishot burst without overflow churn.
    p.flags = IORING_SETUP_CQSIZE;
    p.cq_entries = entries * 4;
    ring->fd_ = SysSetup(entries, &p);
    if (ring->fd_ < 0) {
      if (reason) {
        *reason = std::string("io_uring_setup: ") + std::strerror(errno);
      }
      return nullptr;
    }
    if (!(p.features & IORING_FEAT_SINGLE_MMAP) ||
        !(p.features & IORING_FEAT_NODROP) ||
        !(p.features & IORING_FEAT_EXT_ARG)) {
      if (reason) *reason = "kernel lacks required io_uring features";
      return nullptr;
    }
    const size_t sq_sz = p.sq_off.array + p.sq_entries * sizeof(uint32_t);
    const size_t cq_sz = p.cq_off.cqes + p.cq_entries * sizeof(io_uring_cqe);
    ring->ring_sz_ = std::max(sq_sz, cq_sz);
    ring->ring_mem_ =
        mmap(nullptr, ring->ring_sz_, PROT_READ | PROT_WRITE,
             MAP_SHARED | MAP_POPULATE, ring->fd_, IORING_OFF_SQ_RING);
    if (ring->ring_mem_ == MAP_FAILED) {
      ring->ring_mem_ = nullptr;
      if (reason) *reason = "mmap sq ring failed";
      return nullptr;
    }
    ring->sqes_sz_ = p.sq_entries * sizeof(io_uring_sqe);
    ring->sqes_ = static_cast<io_uring_sqe*>(
        mmap(nullptr, ring->sqes_sz_, PROT_READ | PROT_WRITE,
             MAP_SHARED | MAP_POPULATE, ring->fd_, IORING_OFF_SQES));
    if (ring->sqes_ == MAP_FAILED) {
      ring->sqes_ = nullptr;
      if (reason) *reason = "mmap sqes failed";
      return nullptr;
    }
    char* base = static_cast<char*>(ring->ring_mem_);
    ring->sq_head_ = reinterpret_cast<uint32_t*>(base + p.sq_off.head);
    ring->sq_tail_ = reinterpret_cast<uint32_t*>(base + p.sq_off.tail);
    ring->sq_mask_ = *reinterpret_cast<uint32_t*>(base + p.sq_off.ring_mask);
    ring->sq_array_ = reinterpret_cast<uint32_t*>(base + p.sq_off.array);
    ring->sq_entries_ = p.sq_entries;
    ring->cq_head_ = reinterpret_cast<uint32_t*>(base + p.cq_off.head);
    ring->cq_tail_ = reinterpret_cast<uint32_t*>(base + p.cq_off.tail);
    ring->cq_mask_ = *reinterpret_cast<uint32_t*>(base + p.cq_off.ring_mask);
    ring->cqes_ = reinterpret_cast<io_uring_cqe*>(base + p.cq_off.cqes);
    ring->sq_tail_local_ = *ring->sq_tail_;
    return ring;
  }

  ~Ring() {
    if (buf_ring_mem_ != nullptr) munmap(buf_ring_mem_, buf_ring_sz_);
    if (buf_pool_ != nullptr) munmap(buf_pool_, buf_pool_sz_);
    if (sqes_ != nullptr) munmap(sqes_, sqes_sz_);
    if (ring_mem_ != nullptr) munmap(ring_mem_, ring_sz_);
    if (fd_ >= 0) close(fd_);
  }

  Ring(const Ring&) = delete;
  Ring& operator=(const Ring&) = delete;

  /// Null when the SQ is full (flush with SubmitAndWait(0, ...) first).
  io_uring_sqe* GetSqe() {
    const uint32_t head = __atomic_load_n(sq_head_, __ATOMIC_ACQUIRE);
    if (sq_tail_local_ - head >= sq_entries_) return nullptr;
    const uint32_t idx = sq_tail_local_ & sq_mask_;
    io_uring_sqe* sqe = &sqes_[idx];
    std::memset(sqe, 0, sizeof(*sqe));
    sq_array_[idx] = idx;
    ++sq_tail_local_;
    ++pending_;
    return sqe;
  }

  unsigned pending() const { return pending_; }

  /// Publishes pending SQEs and enters the ring once: submit-only when
  /// min_complete == 0, submit-and-wait (with an EXT_ARG timeout when
  /// timeout_micros != UINT64_MAX) otherwise. Returns 0, or -errno on
  /// an unrecoverable enter failure. A timeout is not an error.
  int SubmitAndWait(unsigned min_complete, uint64_t timeout_micros,
                    IoCounters* c) {
    __atomic_store_n(sq_tail_, sq_tail_local_, __ATOMIC_RELEASE);
    unsigned flags = 0;
    io_uring_getevents_arg arg{};
    __kernel_timespec ts{};
    const void* argp = nullptr;
    size_t argsz = 0;
    if (min_complete > 0) {
      flags |= IORING_ENTER_GETEVENTS;
      if (timeout_micros != UINT64_MAX) {
        ts.tv_sec = static_cast<int64_t>(timeout_micros / 1'000'000);
        ts.tv_nsec = static_cast<long long>((timeout_micros % 1'000'000) * 1000);
        arg.ts = reinterpret_cast<uint64_t>(&ts);
        flags |= IORING_ENTER_EXT_ARG;
        argp = &arg;
        argsz = sizeof(arg);
      }
    }
    while (true) {
      const unsigned to_submit = pending_;
      const long r = SysEnter(fd_, to_submit, min_complete, flags, argp, argsz);
      if (c) {
        c->enters.fetch_add(1, std::memory_order_relaxed);
        if (flags & IORING_ENTER_GETEVENTS) {
          c->waits.fetch_add(1, std::memory_order_relaxed);
        }
        if (to_submit > 0 && r > 0) {
          c->sqes.fetch_add(static_cast<uint64_t>(r),
                            std::memory_order_relaxed);
          c->sqe_batches.fetch_add(1, std::memory_order_relaxed);
        }
      }
      if (r >= 0) {
        pending_ -= std::min<unsigned>(pending_, static_cast<unsigned>(r));
        if (pending_ > 0 && min_complete == 0) continue;  // partial submit
        return 0;
      }
      if (errno == EINTR) continue;
      if (errno == ETIME) return 0;  // wait timed out; CQ simply stayed empty
      if (errno == EBUSY) {
        // CQ overflow backpressure (FEAT_NODROP): flushing queued
        // completions needs a GETEVENTS pass before submission resumes.
        flags |= IORING_ENTER_GETEVENTS;
        continue;
      }
      return -errno;
    }
  }

  bool CqeReady() const {
    return *cq_head_ != __atomic_load_n(cq_tail_, __ATOMIC_ACQUIRE);
  }

  bool PeekCqe(io_uring_cqe* out) {
    const uint32_t head = *cq_head_;
    if (head == __atomic_load_n(cq_tail_, __ATOMIC_ACQUIRE)) return false;
    *out = cqes_[head & cq_mask_];
    __atomic_store_n(cq_head_, head + 1, __ATOMIC_RELEASE);
    return true;
  }

  /// Registers a provided-buffer ring (`nbufs` buffers of `buf_size`,
  /// nbufs a power of two) for BUFFER_SELECT recvs in group `bgid`.
  bool RegisterBufRing(uint16_t bgid, uint32_t nbufs, size_t buf_size,
                       std::string* reason) {
    buf_ring_sz_ = nbufs * sizeof(io_uring_buf);
    buf_ring_mem_ = mmap(nullptr, buf_ring_sz_, PROT_READ | PROT_WRITE,
                         MAP_SHARED | MAP_ANONYMOUS, -1, 0);
    if (buf_ring_mem_ == MAP_FAILED) {
      buf_ring_mem_ = nullptr;
      if (reason) *reason = "mmap buf ring failed";
      return false;
    }
    io_uring_buf_reg reg{};
    reg.ring_addr = reinterpret_cast<uint64_t>(buf_ring_mem_);
    reg.ring_entries = nbufs;
    reg.bgid = bgid;
    if (SysRegister(fd_, IORING_REGISTER_PBUF_RING, &reg, 1) != 0) {
      if (reason) {
        *reason =
            std::string("IORING_REGISTER_PBUF_RING: ") + std::strerror(errno);
      }
      return false;
    }
    buf_pool_sz_ = nbufs * buf_size;
    buf_pool_ = static_cast<char*>(mmap(nullptr, buf_pool_sz_,
                                        PROT_READ | PROT_WRITE,
                                        MAP_PRIVATE | MAP_ANONYMOUS, -1, 0));
    if (buf_pool_ == MAP_FAILED) {
      buf_pool_ = nullptr;
      if (reason) *reason = "mmap buffer pool failed";
      return false;
    }
    buf_size_ = buf_size;
    buf_mask_ = nbufs - 1;
    for (uint32_t i = 0; i < nbufs; ++i) {
      io_uring_buf* slot = BufSlot(i & buf_mask_);
      slot->addr = reinterpret_cast<uint64_t>(buf_pool_ + i * buf_size);
      slot->len = static_cast<uint32_t>(buf_size);
      slot->bid = static_cast<uint16_t>(i);
    }
    buf_tail_local_ = static_cast<uint16_t>(nbufs);
    __atomic_store_n(BufTail(), buf_tail_local_, __ATOMIC_RELEASE);
    return true;
  }

  /// Returns buffer `bid` to the kernel's provided-buffer ring.
  void RecycleBuf(uint16_t bid) {
    io_uring_buf* slot = BufSlot(buf_tail_local_ & buf_mask_);
    slot->addr = reinterpret_cast<uint64_t>(buf_pool_ + bid * buf_size_);
    slot->len = static_cast<uint32_t>(buf_size_);
    slot->bid = bid;
    ++buf_tail_local_;
    __atomic_store_n(BufTail(), buf_tail_local_, __ATOMIC_RELEASE);
  }

  char* BufData(uint16_t bid) const { return buf_pool_ + bid * buf_size_; }

 private:
  Ring() = default;

  // The kernel's io_uring_buf_ring layout is an array of 16-byte
  // io_uring_buf slots, with the ring tail aliased into the reserved
  // u16 of slot 0. The uapi header expresses the array with
  // __DECLARE_FLEX_ARRAY, whose empty-struct placeholder is size 1 in
  // C++ and shifts `bufs` to offset 8 — so address slots by raw offset
  // instead of through the union.
  io_uring_buf* BufSlot(uint32_t idx) {
    return reinterpret_cast<io_uring_buf*>(static_cast<char*>(buf_ring_mem_) +
                                           idx * sizeof(io_uring_buf));
  }
  uint16_t* BufTail() {
    return &static_cast<io_uring_buf_ring*>(buf_ring_mem_)->tail;
  }

  int fd_ = -1;
  void* ring_mem_ = nullptr;
  size_t ring_sz_ = 0;
  io_uring_sqe* sqes_ = nullptr;
  size_t sqes_sz_ = 0;

  uint32_t* sq_head_ = nullptr;
  uint32_t* sq_tail_ = nullptr;
  uint32_t sq_mask_ = 0;
  uint32_t* sq_array_ = nullptr;
  uint32_t sq_entries_ = 0;
  uint32_t sq_tail_local_ = 0;
  unsigned pending_ = 0;  // SQEs appended since the last submit

  uint32_t* cq_head_ = nullptr;
  uint32_t* cq_tail_ = nullptr;
  uint32_t cq_mask_ = 0;
  io_uring_cqe* cqes_ = nullptr;

  void* buf_ring_mem_ = nullptr;
  size_t buf_ring_sz_ = 0;
  char* buf_pool_ = nullptr;
  size_t buf_pool_sz_ = 0;
  size_t buf_size_ = 0;
  uint32_t buf_mask_ = 0;
  uint16_t buf_tail_local_ = 0;
};

namespace {

void PrepAcceptMultishot(io_uring_sqe* sqe, int fd, uint64_t ud) {
  sqe->opcode = IORING_OP_ACCEPT;
  sqe->fd = fd;
  sqe->ioprio = IORING_ACCEPT_MULTISHOT;
  sqe->user_data = ud;
}

void PrepPollMultishot(io_uring_sqe* sqe, int fd, uint64_t ud) {
  sqe->opcode = IORING_OP_POLL_ADD;
  sqe->fd = fd;
  sqe->len = IORING_POLL_ADD_MULTI;
  sqe->poll32_events = POLLIN;
  sqe->user_data = ud;
}

void PrepRecvMultishot(io_uring_sqe* sqe, int fd, uint16_t bgid, uint64_t ud) {
  sqe->opcode = IORING_OP_RECV;
  sqe->fd = fd;
  sqe->ioprio = IORING_RECV_MULTISHOT;
  sqe->flags = IOSQE_BUFFER_SELECT;
  sqe->buf_group = bgid;
  sqe->user_data = ud;
}

void PrepRecvSingle(io_uring_sqe* sqe, int fd, void* buf, size_t len,
                    uint64_t ud) {
  sqe->opcode = IORING_OP_RECV;
  sqe->fd = fd;
  sqe->addr = reinterpret_cast<uint64_t>(buf);
  sqe->len = static_cast<uint32_t>(len);
  sqe->user_data = ud;
}

void PrepSend(io_uring_sqe* sqe, int fd, const void* buf, size_t len,
              uint64_t ud) {
  sqe->opcode = IORING_OP_SEND;
  sqe->fd = fd;
  sqe->addr = reinterpret_cast<uint64_t>(buf);
  sqe->len = static_cast<uint32_t>(len);
  sqe->msg_flags = MSG_NOSIGNAL;
  sqe->user_data = ud;
}

void PrepSendmsg(io_uring_sqe* sqe, int fd, const msghdr* msg, uint64_t ud) {
  sqe->opcode = IORING_OP_SENDMSG;
  sqe->fd = fd;
  sqe->addr = reinterpret_cast<uint64_t>(msg);
  sqe->len = 1;
  sqe->msg_flags = MSG_NOSIGNAL;
  sqe->user_data = ud;
}

void PrepCancel(io_uring_sqe* sqe, uint64_t target_ud, uint64_t ud) {
  sqe->opcode = IORING_OP_ASYNC_CANCEL;
  sqe->fd = -1;
  sqe->addr = target_ud;
  sqe->user_data = ud;
}

}  // namespace
}  // namespace uring_internal

using uring_internal::PrepAcceptMultishot;
using uring_internal::PrepCancel;
using uring_internal::PrepPollMultishot;
using uring_internal::PrepRecvMultishot;
using uring_internal::PrepRecvSingle;
using uring_internal::PrepSend;
using uring_internal::PrepSendmsg;
using uring_internal::Ring;

bool UringAvailable(std::string* reason) {
  // Functional probe, not just an op table: sets up a ring, registers
  // a provided-buffer ring, and pushes one byte through a multishot
  // recv on a socketpair — exactly the feature set the backend needs.
  // Kernels that pass the ops probe but predate multishot recv (<6.0)
  // or buffer rings (<5.19) fail here and fall back to epoll.
  static const std::pair<bool, std::string> result = [] {
    std::pair<bool, std::string> r{false, std::string()};
    std::string why;
    auto ring = Ring::Create(8, &why);
    if (!ring) {
      r.second = why;
      return r;
    }
    if (!ring->RegisterBufRing(/*bgid=*/0, /*nbufs=*/4, /*buf_size=*/4096,
                               &why)) {
      r.second = why;
      return r;
    }
    int sp[2];
    if (socketpair(AF_UNIX, SOCK_STREAM, 0, sp) != 0) {
      r.second = "socketpair failed";
      return r;
    }
    io_uring_sqe* sqe = ring->GetSqe();
    PrepRecvMultishot(sqe, sp[0], 0, /*ud=*/42);
    const char byte = 'x';
    ssize_t ignored = write(sp[1], &byte, 1);
    (void)ignored;
    ring->SubmitAndWait(/*min_complete=*/1, /*timeout_micros=*/1'000'000,
                        nullptr);
    io_uring_cqe cqe{};
    bool saw_data = false;
    while (ring->PeekCqe(&cqe)) {
      if (cqe.user_data == 42 && cqe.res == 1 &&
          (cqe.flags & IORING_CQE_F_BUFFER)) {
        saw_data = true;
      }
    }
    close(sp[0]);
    close(sp[1]);
    if (!saw_data) {
      r.second = "multishot recv with provided buffers not functional";
      return r;
    }
    r.first = true;
    return r;
  }();
  if (reason && !result.first) *reason = result.second;
  return result.first;
}

namespace {

/// Per-connection uring bookkeeping, hung off ServerConn::backend_state.
/// Loop-thread-only.
struct UringConnState {
  uint64_t recv_ud = 0;   // armed multishot recv, 0 = none
  uint64_t write_ud = 0;  // in-flight sendmsg, 0 = none
  bool want_recv = false;
  bool want_send = false;
  bool retired = false;
  // Both must outlive the in-flight sendmsg SQE.
  iovec iov[64];
  msghdr msg{};
};

UringConnState* St(const std::shared_ptr<ServerConn>& conn) {
  return static_cast<UringConnState*>(conn->backend_state.get());
}

class UringServerBackend final : public ServerIoBackend {
 public:
  UringServerBackend(std::unique_ptr<Ring> ring, IoCounters* counters)
      : ring_(std::move(ring)), counters_(counters) {}

  ~UringServerBackend() override { Shutdown(); }

  Status Start(int listen_fd, int wake_fd, Sink* sink) override {
    listen_fd_ = listen_fd;
    wake_fd_ = wake_fd;
    sink_ = sink;
    rearm_accept_ = true;
    rearm_wake_ = true;
    return Status::OK();
  }

  void Shutdown() override {
    // Dropping the ring cancels every in-flight op; the op map releases
    // its connection refs. Conn fds are owned and closed by the server.
    ops_.clear();
    conn_work_.clear();
    cancels_.clear();
    ring_.reset();
  }

  Status SubmitRecv(const std::shared_ptr<ServerConn>& conn) override {
    auto st = std::make_shared<UringConnState>();
    st->want_recv = true;
    conn->backend_state = st;
    conn_work_.push_back(conn);
    return Status::OK();
  }

  void SubmitWritev(const std::shared_ptr<ServerConn>& conn) override {
    UringConnState* st = St(conn);
    if (st == nullptr || st->retired) return;
    st->want_send = true;
    conn_work_.push_back(conn);
  }

  void Retire(const std::shared_ptr<ServerConn>& conn) override {
    UringConnState* st = St(conn);
    if (st == nullptr || st->retired) return;
    st->retired = true;
    // The fd is already closed; armed ops are cancelled by user_data
    // (never by fd — the number may be recycled by the next accept).
    if (st->recv_ud != 0) cancels_.push_back(st->recv_ud);
    if (st->write_ud != 0) cancels_.push_back(st->write_ud);
  }

  Status Wait() override {
    if (!wedged_.ok()) return wedged_;
    PrepPending();
    if (!ring_->CqeReady()) {
      const int r = ring_->SubmitAndWait(/*min_complete=*/1,
                                         /*timeout_micros=*/UINT64_MAX,
                                         counters_);
      if (r < 0) {
        wedged_ = Status::IOError(std::string("io_uring_enter: ") +
                                  std::strerror(-r));
        return wedged_;
      }
    } else if (ring_->pending() > 0) {
      ring_->SubmitAndWait(0, UINT64_MAX, counters_);
    }
    io_uring_cqe cqe{};
    while (ring_->PeekCqe(&cqe)) {
      counters_->cqes.fetch_add(1, std::memory_order_relaxed);
      Handle(cqe);
    }
    return Status::OK();
  }

  const char* name() const override { return "uring"; }

 private:
  struct Op {
    enum Kind { kRecv, kSend } kind;
    std::shared_ptr<ServerConn> conn;
  };

  static constexpr uint64_t kAcceptUd = 1;
  static constexpr uint64_t kWakeUd = 2;
  static constexpr uint64_t kCancelUd = 3;
  static constexpr uint16_t kBgid = 0;

  io_uring_sqe* GetSqeBlocking() {
    io_uring_sqe* sqe;
    while ((sqe = ring_->GetSqe()) == nullptr) {
      ring_->SubmitAndWait(0, UINT64_MAX, counters_);
    }
    return sqe;
  }

  void PrepPending() {
    if (rearm_accept_) {
      rearm_accept_ = false;
      PrepAcceptMultishot(GetSqeBlocking(), listen_fd_, kAcceptUd);
    }
    if (rearm_wake_) {
      rearm_wake_ = false;
      PrepPollMultishot(GetSqeBlocking(), wake_fd_, kWakeUd);
    }
    if (!conn_work_.empty()) {
      std::vector<std::shared_ptr<ServerConn>> work;
      work.swap(conn_work_);
      for (auto& conn : work) {
        UringConnState* st = St(conn);
        if (st == nullptr || st->retired) continue;
        if (st->want_recv && st->recv_ud == 0) {
          st->want_recv = false;
          const uint64_t ud = next_ud_++;
          PrepRecvMultishot(GetSqeBlocking(), conn->fd, kBgid, ud);
          ops_.emplace(ud, Op{Op::kRecv, conn});
          st->recv_ud = ud;
        }
        if (st->want_send && st->write_ud == 0) {
          st->want_send = false;
          ArmSend(conn, st);
        }
      }
    }
    for (uint64_t target : cancels_) {
      PrepCancel(GetSqeBlocking(), target, kCancelUd);
    }
    cancels_.clear();
  }

  void ArmSend(const std::shared_ptr<ServerConn>& conn, UringConnState* st) {
    unsigned cnt = 0;
    {
      MutexLock guard(conn->mu);
      if (conn->closed || conn->write_failed) return;
      if (conn->outbox.empty()) {
        conn->want_write = false;
        return;
      }
      // The iovecs reference the outbox strings in place: workers only
      // push_back while want_write is set (deque references are stable
      // under push_back) and only the completion below pops, so the
      // bytes stay pinned for the SQE's lifetime.
      for (const auto& b : conn->outbox) {
        const size_t off = (cnt == 0) ? conn->head_off : 0;
        st->iov[cnt].iov_base = const_cast<char*>(b.data()) + off;
        st->iov[cnt].iov_len = b.size() - off;
        if (++cnt == 64) break;
      }
    }
    st->msg = msghdr{};
    st->msg.msg_iov = st->iov;
    st->msg.msg_iovlen = cnt;
    const uint64_t ud = next_ud_++;
    PrepSendmsg(GetSqeBlocking(), conn->fd, &st->msg, ud);
    ops_.emplace(ud, Op{Op::kSend, conn});
    st->write_ud = ud;
  }

  void Handle(const io_uring_cqe& cqe) {
    switch (cqe.user_data) {
      case kAcceptUd: {
        if (cqe.res >= 0) sink_->OnAccepted(cqe.res);
        if (!(cqe.flags & IORING_CQE_F_MORE)) rearm_accept_ = true;
        return;
      }
      case kWakeUd: {
        if (!(cqe.flags & IORING_CQE_F_MORE)) rearm_wake_ = true;
        if (cqe.res >= 0) {
          uint64_t tick;
          while (read(wake_fd_, &tick, sizeof(tick)) > 0) {
          }
          counters_->recvs.fetch_add(1, std::memory_order_relaxed);
          sink_->OnWake();
        }
        return;
      }
      case kCancelUd:
        return;
      default:
        break;
    }
    auto it = ops_.find(cqe.user_data);
    if (it == ops_.end()) {
      if (cqe.flags & IORING_CQE_F_BUFFER) {
        ring_->RecycleBuf(
            static_cast<uint16_t>(cqe.flags >> IORING_CQE_BUFFER_SHIFT));
      }
      return;
    }
    if (it->second.kind == Op::kRecv) {
      HandleRecv(cqe, it);
    } else {
      HandleSend(cqe, it);
    }
  }

  void HandleRecv(const io_uring_cqe& cqe,
                  std::unordered_map<uint64_t, Op>::iterator it) {
    std::shared_ptr<ServerConn> conn = it->second.conn;
    UringConnState* st = St(conn);
    const bool more = (cqe.flags & IORING_CQE_F_MORE) != 0;
    if (!more) {
      ops_.erase(it);
      st->recv_ud = 0;
    }
    const int bid = (cqe.flags & IORING_CQE_F_BUFFER)
                        ? static_cast<int>(cqe.flags >> IORING_CQE_BUFFER_SHIFT)
                        : -1;
    if (st->retired) {
      if (bid >= 0) ring_->RecycleBuf(static_cast<uint16_t>(bid));
      return;
    }
    if (cqe.res > 0 && bid >= 0) {
      sink_->OnRecvData(conn, Slice(ring_->BufData(static_cast<uint16_t>(bid)),
                                    static_cast<size_t>(cqe.res)));
      ring_->RecycleBuf(static_cast<uint16_t>(bid));
      // The sink may have retired the connection (protocol error).
      if (!more && !st->retired) {
        st->want_recv = true;
        conn_work_.push_back(conn);
      }
      return;
    }
    if (bid >= 0) ring_->RecycleBuf(static_cast<uint16_t>(bid));
    if (cqe.res == 0) {
      sink_->OnRecvEof(conn);
      return;
    }
    if (cqe.res == -ENOBUFS) {
      // All provided buffers were in use; the multishot ended. Buffers
      // were recycled as their data was consumed — re-arm.
      st->want_recv = true;
      conn_work_.push_back(conn);
      return;
    }
    if (cqe.res != -ECANCELED) sink_->OnConnError(conn);
  }

  void HandleSend(const io_uring_cqe& cqe,
                    std::unordered_map<uint64_t, Op>::iterator it) {
    std::shared_ptr<ServerConn> conn = it->second.conn;
    UringConnState* st = St(conn);
    ops_.erase(it);
    st->write_ud = 0;
    if (st->retired) return;
    bool failed = false;
    bool again = false;
    {
      MutexLock guard(conn->mu);
      if (conn->closed) return;
      if (cqe.res <= 0) {
        conn->write_failed = true;
        failed = true;
      } else {
        size_t left = static_cast<size_t>(cqe.res);
        while (left > 0 && !conn->outbox.empty()) {
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
        if (conn->outbox.empty()) {
          conn->want_write = false;
        } else {
          // Short write, or replies appended while the SQE was in
          // flight: resubmit the remainder at its exact byte offset.
          again = true;
        }
      }
    }
    if (failed) {
      sink_->OnConnError(conn);
      return;
    }
    if (again) {
      st->want_send = true;
      conn_work_.push_back(conn);
    }
  }

  std::unique_ptr<Ring> ring_;
  IoCounters* const counters_;
  Sink* sink_ = nullptr;
  int listen_fd_ = -1;
  int wake_fd_ = -1;
  uint64_t next_ud_ = 16;
  std::unordered_map<uint64_t, Op> ops_;
  bool rearm_accept_ = false;
  bool rearm_wake_ = false;
  std::vector<std::shared_ptr<ServerConn>> conn_work_;
  std::vector<uint64_t> cancels_;
  Status wedged_;
};

}  // namespace

std::unique_ptr<ServerIoBackend> CreateUringServerBackend(
    IoCounters* counters, std::string* reason) {
  auto ring = Ring::Create(256, reason);
  if (!ring) return nullptr;
  if (!ring->RegisterBufRing(/*bgid=*/0, /*nbufs=*/16, /*buf_size=*/65536,
                             reason)) {
    return nullptr;
  }
  return std::make_unique<UringServerBackend>(std::move(ring), counters);
}

// ---------------------------------------------------------------------------
// ClientUringIo
// ---------------------------------------------------------------------------

namespace {
constexpr uint64_t kClientRecvUd = 1;
constexpr uint64_t kClientWakeUd = 2;
constexpr uint64_t kClientSendUd = 3;
}  // namespace

std::unique_ptr<ClientUringIo> ClientUringIo::Create(int sock_fd, int wake_fd,
                                                     IoCounters* counters,
                                                     std::string* reason) {
  if (!UringAvailable(reason)) return nullptr;
  auto ring = Ring::Create(16, reason);
  if (!ring) return nullptr;
  return std::unique_ptr<ClientUringIo>(
      new ClientUringIo(std::move(ring), sock_fd, wake_fd, counters));
}

ClientUringIo::ClientUringIo(std::unique_ptr<uring_internal::Ring> ring,
                             int sock_fd, int wake_fd, IoCounters* counters)
    : ring_(std::move(ring)),
      sock_fd_(sock_fd),
      wake_fd_(wake_fd),
      counters_(counters) {
  recv_buf_.resize(65536);
}

ClientUringIo::~ClientUringIo() = default;

void ClientUringIo::QueueSend(std::string data) {
  send_buf_ = std::move(data);
  send_off_ = 0;
  send_inflight_ = true;
  send_submitted_ = false;
}

bool ClientUringIo::PrepPending() {
  if (!recv_armed_ && wedged_.ok()) {
    PrepRecvSingle(ring_->GetSqe(), sock_fd_, recv_buf_.data(),
                   recv_buf_.size(), kClientRecvUd);
    recv_armed_ = true;
  }
  if (!wake_armed_) {
    PrepPollMultishot(ring_->GetSqe(), wake_fd_, kClientWakeUd);
    wake_armed_ = true;
  }
  if (send_inflight_ && !send_submitted_) {
    PrepSend(ring_->GetSqe(), sock_fd_, send_buf_.data() + send_off_,
             send_buf_.size() - send_off_, kClientSendUd);
    send_submitted_ = true;
  }
  return true;
}

void ClientUringIo::Wait(uint64_t timeout_micros, bool expect_reply,
                         const std::function<void(Slice)>& on_recv,
                         Events* ev) {
  if (!wedged_.ok()) {
    ev->error = wedged_;
    return;
  }
  const bool fresh_send = send_inflight_ && !send_submitted_;
  PrepPending();
  if (!ring_->CqeReady()) {
    // The one-enter burst: the corked request bytes, the recv re-arm,
    // and the completion reap all ride this single syscall.
    //
    // On an unsaturated socket the SEND SQE completes inline during
    // this very enter, and with min_complete=1 its lone CQE would end
    // the wait — one wasted wakeup per burst just to learn our own
    // bytes left. When the caller is owed replies, demand one
    // completion beyond the send so the wait runs on to the reply
    // batch (or EOF/error, which also posts a CQE). Capped: under
    // genuine send backpressure the send may outlive the reply, and
    // replies must not sit unreaped behind it for longer than a
    // scheduling beat.
    unsigned min_complete = 1;
    uint64_t wait_micros = timeout_micros;
    if (fresh_send && expect_reply) {
      min_complete = 2;
      wait_micros = std::min<uint64_t>(wait_micros, 10'000);
    }
    const int r = ring_->SubmitAndWait(min_complete, wait_micros, counters_);
    if (r < 0) {
      wedged_ = Status::Unavailable(std::string("io_uring_enter: ") +
                                    std::strerror(-r));
      ev->error = wedged_;
      return;
    }
  } else if (ring_->pending() > 0) {
    ring_->SubmitAndWait(0, UINT64_MAX, counters_);
  }
  bool any = false;
  io_uring_cqe cqe{};
  while (ring_->PeekCqe(&cqe)) {
    counters_->cqes.fetch_add(1, std::memory_order_relaxed);
    any = true;
    switch (cqe.user_data) {
      case kClientRecvUd: {
        recv_armed_ = false;
        if (cqe.res > 0) {
          on_recv(Slice(recv_buf_.data(), static_cast<size_t>(cqe.res)));
        } else if (cqe.res == 0) {
          ev->eof = true;
          wedged_ = Status::Unavailable("connection closed");
        } else if (cqe.res != -ECANCELED && cqe.res != -EINTR) {
          ev->error = Status::Unavailable(std::string("recv failed: ") +
                                          std::strerror(-cqe.res));
          wedged_ = ev->error;
        }
        break;
      }
      case kClientWakeUd: {
        if (!(cqe.flags & IORING_CQE_F_MORE)) wake_armed_ = false;
        if (cqe.res >= 0) {
          uint64_t tick;
          while (read(wake_fd_, &tick, sizeof(tick)) > 0) {
          }
          counters_->recvs.fetch_add(1, std::memory_order_relaxed);
          ev->wake = true;
        }
        break;
      }
      case kClientSendUd: {
        if (cqe.res < 0) {
          if (cqe.res != -ECANCELED && cqe.res != -EINTR) {
            ev->error = Status::Unavailable(std::string("send failed: ") +
                                            std::strerror(-cqe.res));
            wedged_ = ev->error;
          }
          send_inflight_ = false;
        } else {
          send_off_ += static_cast<size_t>(cqe.res);
          if (send_off_ >= send_buf_.size()) {
            send_inflight_ = false;
            send_submitted_ = false;
            send_buf_.clear();
            send_off_ = 0;
            ev->send_done = true;
          } else {
            // Short send under backpressure: the continuation resumes
            // at the exact byte offset on the next cycle (§2-safe — a
            // byte-stream continuation, never a re-encoded frame).
            send_submitted_ = false;
          }
        }
        break;
      }
      default:
        break;
    }
  }
  if (!any) ev->timed_out = true;
}

}  // namespace rrq::net
