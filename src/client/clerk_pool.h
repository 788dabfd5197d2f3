#ifndef RRQ_CLIENT_CLERK_POOL_H_
#define RRQ_CLIENT_CLERK_POOL_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "client/clerk.h"
#include "client/reliable_client.h"
#include "net/queue_wire.h"
#include "net/tcp_transport.h"
#include "util/result.h"
#include "util/slice.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace rrq::client {

struct ClerkPoolOptions {
  /// Where the daemon lives. The pool owns exactly one TcpChannel built
  /// from this; every clerk's ops multiplex on it.
  net::TcpChannelOptions channel;
  /// Number of clerks sharing the channel.
  int clerks = 8;
  /// Clerk i registers as "<client_prefix>-<i>" with both queues.
  std::string client_prefix = "pool";
  /// The shared request queue every clerk Sends into.
  std::string request_queue = "requests";
  /// Clerk i's private reply queue is "<reply_queue_prefix><client id>"
  /// — private per registrant, as the §3 protocol requires (the reply
  /// demultiplexing across clerks is by queue + registrant; the wire
  /// demultiplexing across in-flight calls is by correlation id).
  std::string reply_queue_prefix = "reply.";
  /// Diagnostic/bench mode: clerk i's request queue is its own reply
  /// queue, so one Transceive is a self-contained enqueue→dequeue pair
  /// with no server program in the loop (isolates pool + wire cost).
  bool self_loop = false;
  /// Provision (CreateQueue) the request and reply queues at Start().
  bool provision_queues = true;
  SendMode send_mode = SendMode::kRpc;
  /// Per-Receive reply wait. Also the long-poll bound a blocking
  /// dequeue sends server-side; the transport stretches each such
  /// call's deadline past it (net::kBlockingCallMarginMicros).
  uint64_t receive_timeout_micros = 2'000'000;
  uint32_t request_priority = 0;
  /// Recovery budgets handed to each slot's ReliableClient.
  int max_recovery_attempts = 32;
  int max_poll_attempts = 200;
};

/// N clerks behind ONE pipelined connection — the paper's §5 shape
/// (many client threads, few queue-manager connections) made real:
/// each clerk keeps its private reply queue and rid/ckpt protocol
/// unchanged, while their queue ops share the channel's combining
/// writer and are fanned back out by the demux reader. Three layers of
/// demultiplexing cooperate:
///
///   correlation id → pending call   (TcpChannel)
///   reply queue + registrant → clerk (the queue manager itself)
///   rid tag → request               (the clerk protocol, Fig 5)
///
/// Use either face per slot, not both concurrently:
///  - Execute(i, request): the reliable, envelope-wrapped Fig 2 loop
///    (rides out daemon kills; resolves §2 uncertainty exactly-once).
///    Thread-safe across distinct slots — one thread per slot.
///  - TransceiveAsync(i, ...): the raw pipelined clerk op for
///    closed-loop chains (bench, latency-sensitive callers); failures
///    surface to the caller, who resynchronizes via Resynchronize(i).
class ClerkPool {
 public:
  struct SlotStats {
    uint64_t transceives = 0;        ///< TransceiveAsync completions.
    uint64_t failures = 0;           ///< ... that failed.
    uint64_t deadline_expiries = 0;  ///< ... failed by a per-call deadline.
    uint64_t resyncs = 0;            ///< Successful re-Connects after loss.
  };

  explicit ClerkPool(ClerkPoolOptions options);
  ~ClerkPool();

  ClerkPool(const ClerkPool&) = delete;
  ClerkPool& operator=(const ClerkPool&) = delete;

  /// Provisions the queues (when asked to) and connects every clerk —
  /// N Connect resynchronizations pipelined over the one channel.
  Status Start();
  /// Disconnects every clerk (best effort — the daemon may be gone).
  Status Stop();

  size_t size() const { return slots_.size(); }
  const std::string& client_id(size_t i) const;
  const std::string& reply_queue(size_t i) const;
  const std::string& request_queue(size_t i) const;

  /// Reliable execution on slot i (Fig 2): exactly-once processing
  /// across daemon kills. One logical caller per slot.
  Result<std::string> Execute(size_t i, const Slice& request);

  /// Load-balanced reliable execution: claims any currently-free slot
  /// (lowest index first), runs Execute on it, and releases it.
  /// Blocks while every slot is busy, so any number of caller threads
  /// can share the pool — the pool itself becomes the paper's
  /// many-callers-few-sessions funnel. Safe to mix with per-slot
  /// Execute only for slots those callers own exclusively.
  Result<std::string> Execute(const Slice& request);

  /// Repoints the pool's channel at another daemon (a promoted
  /// backup). Clerk sessions are durable state the backup replicated,
  /// so nothing per-slot happens eagerly: in-flight Executes recover
  /// through their own reconnect loops against the new target, and
  /// idle slots reconnect on next use. Safe to call while every slot
  /// is mid-Execute — that is the failover scenario it exists for.
  Status Repoint(const std::string& host, uint16_t port);

  /// Raw pipelined Transceive on slot i's clerk (no recovery). See
  /// Clerk::TransceiveAsync for `overlap_receive`.
  void TransceiveAsync(size_t i, const Slice& request, const std::string& rid,
                       const Slice& ckpt, bool overlap_receive,
                       std::function<void(Result<std::string>)> done);

  /// Re-runs slot i's Connect resynchronization (bounded attempts) and
  /// returns the rids the system remembers — the §2 evidence from
  /// which a raw (TransceiveAsync) caller resolves in-doubt ops.
  Result<ConnectResult> Resynchronize(size_t i);

  /// Resynchronizes every slot whose session dropped (a channel
  /// failure drops all of them at once). First error wins, but every
  /// slot is attempted.
  Status ResynchronizeAll();

  /// Slot i's ReliableClient (stats, CancelInFlight, ...).
  ReliableClient* reliable(size_t i) { return slots_[i]->reliable.get(); }
  /// Slot i's clerk; null before Start(). The pointer is stable until
  /// the next Resynchronize/Execute-recovery on that slot.
  Clerk* clerk(size_t i) { return slots_[i]->reliable->clerk(); }

  net::TcpChannel* channel() { return &channel_; }
  net::ChannelQueueApi* api() { return &api_; }

  SlotStats slot_stats(size_t i) const;
  /// Sum of per-slot resyncs (reconnects beyond each slot's first).
  uint64_t resyncs() const;

 private:
  struct Slot {
    std::string client_id;
    std::string request_queue;
    std::string reply_queue;
    std::unique_ptr<ReliableClient> reliable;
    std::atomic<uint64_t> transceives{0};
    std::atomic<uint64_t> failures{0};
    std::atomic<uint64_t> deadline_expiries{0};
  };

  // Claims the lowest free slot for pool-level Execute (blocks while
  // all are busy); ReleaseSlot returns it and wakes one waiter.
  size_t ClaimSlot();
  void ReleaseSlot(size_t i);

  ClerkPoolOptions options_;
  net::TcpChannel channel_;
  net::ChannelQueueApi api_;
  std::vector<std::unique_ptr<Slot>> slots_;
  bool started_ = false;

  Mutex slots_mu_;
  CondVar slot_free_cv_;
  std::vector<bool> busy_ GUARDED_BY(slots_mu_);
};

}  // namespace rrq::client

#endif  // RRQ_CLIENT_CLERK_POOL_H_
