#ifndef RRQ_NET_QUEUE_WIRE_H_
#define RRQ_NET_QUEUE_WIRE_H_

#include <functional>
#include <string>

#include "net/transport.h"
#include "queue/queue_api.h"
#include "queue/queue_repository.h"
#include "util/result.h"
#include "util/slice.h"
#include "util/status.h"

namespace rrq::net {

// The queue-service byte protocol: how a clerk's QueueApi calls are
// serialized for any transport (the simulated comm::Network or a real
// TCP connection to an rrqd daemon). One opcode byte, then the queue
// name, then per-op fields; replies carry an app-level Status followed
// by the result payload. Decoders fail closed — truncated or invalid
// bytes yield Corruption/InvalidArgument, never undefined behavior —
// because on a real socket this is the trust boundary.

constexpr unsigned char kOpRegister = 1;
constexpr unsigned char kOpDeregister = 2;
constexpr unsigned char kOpEnqueue = 3;
constexpr unsigned char kOpDequeue = 4;
constexpr unsigned char kOpRead = 5;
constexpr unsigned char kOpKill = 6;
// Admin extensions, used by out-of-process clients to provision their
// reply queues on the daemon and to observe depths.
constexpr unsigned char kOpCreateQueue = 7;
constexpr unsigned char kOpDepth = 8;
// Replication admin ops (PR 9): observe the shipping pipeline and
// promote a backup to primary. Both carry an empty queue-name field so
// every request keeps the [op][queue][fields] shape.
constexpr unsigned char kOpReplStatus = 9;
constexpr unsigned char kOpPromote = 10;

/// Snapshot of a daemon's replication posture, served by kOpReplStatus
/// (both roles answer it; fields that don't apply are empty/zero).
struct ReplStatusInfo {
  /// "primary" | "backup" | "standalone".
  std::string role;
  /// Sender pipeline state on a primary ("shipping", "snapshot", ...);
  /// "applying" / "promoted" on a backup.
  std::string state;
  uint64_t stream_id = 0;
  /// Primary: highest sequence the backup acked. Backup: its applied
  /// watermark.
  uint64_t acked_seq = 0;
  /// Primary: newest sequence produced. Backup: equal to acked_seq.
  uint64_t head_seq = 0;
  uint64_t reconnects = 0;
  bool promoted = false;
  std::string last_error;
};

void EncodeReplStatusInfo(const ReplStatusInfo& info, std::string* out);
Status DecodeReplStatusInfo(Slice* input, ReplStatusInfo* info);

void EncodeElement(const queue::Element& e, std::string* out);
Status DecodeElement(Slice* input, queue::Element* e);
void EncodeQueueOptions(const queue::QueueOptions& options, std::string* out);
Status DecodeQueueOptions(Slice* input, queue::QueueOptions* options);

/// True when `request` is an op that may park its server thread for a
/// long time — a Dequeue carrying a nonzero wait timeout. The TCP
/// server's blocking hint (TcpServer::set_blocking_hint) uses this to
/// keep long-polls off the bounded worker pool. Malformed requests
/// return false (the dispatcher rejects them quickly anyway).
bool QueueRequestMayBlock(const Slice& request);

/// Transit margin added on top of a blocking Dequeue's server-side
/// wait bound when deriving the transport call deadline
/// (CallOptions::min_deadline_micros = timeout + margin): the server
/// is allowed to park for the full `timeout_micros`, so the client
/// must outwait that plus scheduling and wire latency. Without this a
/// long-poll whose timeout exceeds the channel's default deadline is
/// expired client-side while the server's *destructive* dequeue can
/// still commit — the reply is then discarded as a late straggler and
/// the element is silently lost to the clerk.
constexpr uint64_t kBlockingCallMarginMicros = 5'000'000;

/// Serves the byte protocol against a local repository. This is the
/// whole server side of the protocol: the simulated QueueService and
/// the rrqd daemon's TCP loop both delegate here, so every transport
/// speaks identical bytes. At-most-once per message, no retry or
/// deduplication — the uncertainty on failure is the client
/// protocol's to resolve (§2).
class QueueServiceDispatcher {
 public:
  /// `repo` is not owned and must outlive the dispatcher.
  explicit QueueServiceDispatcher(queue::QueueRepository* repo) : repo_(repo) {}

  /// Decodes one request and executes it. Malformed requests return
  /// Corruption/InvalidArgument with `*reply` untouched; well-formed
  /// requests return OK with the app-level status encoded inside
  /// `*reply`.
  Status Handle(const Slice& request, std::string* reply);
  /// Executes a request that arrived one-way. As Handle, but the reply
  /// gate is skipped: no reply leaves, so there is no output to hold.
  void HandleOneWay(const Slice& request);

  // ---- Replication hooks (all optional; set before serving) ----------

  /// Serves kOpReplStatus. Unset: the op reports a standalone daemon.
  void set_replication_status_fn(std::function<ReplStatusInfo()> fn) {
    repl_status_fn_ = std::move(fn);
  }
  /// Serves kOpPromote. Unset: the op fails FailedPrecondition (only a
  /// backup can be promoted).
  void set_promote_fn(std::function<Status()> fn) {
    promote_fn_ = std::move(fn);
  }
  /// Consulted before every state-mutating op (register, deregister,
  /// enqueue, dequeue, kill, create). A non-OK return is sent to the
  /// client as the op's status — how an unpromoted backup refuses
  /// writes while still answering reads and admin ops. Must be
  /// thread-safe.
  void set_write_gate(std::function<Status()> gate) {
    write_gate_ = std::move(gate);
  }
  /// Runs after every op the write gate covers, before its reply
  /// leaves — a replicating primary's output-commit point (the ack-mode
  /// wait for the backup). A non-OK return replaces the op's reply
  /// with that status; the op's effects stand. Not run for one-way
  /// requests (HandleOneWay). Must be thread-safe.
  void set_reply_gate(std::function<Status()> gate) {
    reply_gate_ = std::move(gate);
  }

 private:
  // Handle, with the reply gate run only when `gate_reply` is set.
  Status Serve(const Slice& request, std::string* reply, bool gate_reply);
  // Executes one decoded op; `input` holds its fields.
  Status Dispatch(unsigned char op, const std::string& queue, Slice input,
                  std::string* reply);

  queue::QueueRepository* repo_;
  std::function<ReplStatusInfo()> repl_status_fn_;
  std::function<Status()> promote_fn_;
  std::function<Status()> write_gate_;
  std::function<Status()> reply_gate_;
};

/// queue::QueueApi over any Channel speaking the byte protocol — the
/// client side, shared by the simulated comm::RemoteQueueApi and every
/// TCP client (over a TcpChannel the caller owns). Transport failures
/// surface as Unavailable; the clerk resolves the resulting uncertainty
/// through reconnection and persistent registration, never blind retry.
///
/// Holds no per-call state, so it is exactly as thread-safe as its
/// channel: over a multiplexed TcpChannel, one shared ChannelQueueApi
/// serves many clerk threads, their calls pipelined on one socket.
/// The *Async variants put multiple queue ops in flight from a single
/// thread; callbacks follow Channel::CallAsync's rules (may run on the
/// channel's demux thread, must not block).
class ChannelQueueApi final : public queue::QueueApi {
 public:
  /// `channel` is not owned and must outlive this object.
  explicit ChannelQueueApi(Channel* channel) : channel_(channel) {}

  Result<queue::RegistrationInfo> Register(const std::string& queue,
                                           const std::string& registrant,
                                           bool stable) override;
  Status Deregister(const std::string& queue,
                    const std::string& registrant) override;
  Result<queue::ElementId> Enqueue(const std::string& queue,
                                   const Slice& contents, uint32_t priority,
                                   const std::string& registrant,
                                   const Slice& tag, bool one_way) override;
  Result<queue::Element> Dequeue(const std::string& queue,
                                 const std::string& registrant,
                                 const Slice& tag,
                                 uint64_t timeout_micros) override;
  Result<queue::Element> Read(const std::string& queue,
                              queue::ElementId eid) override;
  Result<bool> KillElement(const std::string& queue,
                           queue::ElementId eid) override;

  // ---- Pipelined variants -------------------------------------------
  // True wire concurrency over a TcpChannel: multiple ops in flight
  // from a single thread, completions demuxed by correlation id.

  void EnqueueAsync(const std::string& queue, const Slice& contents,
                    uint32_t priority, const std::string& registrant,
                    const Slice& tag, bool one_way,
                    std::function<void(Result<queue::ElementId>)> done) override;
  void DequeueAsync(const std::string& queue, const std::string& registrant,
                    const Slice& tag, uint64_t timeout_micros,
                    std::function<void(Result<queue::Element>)> done) override;

  // ---- Admin extensions (not part of QueueApi) ----------------------

  /// Creates `queue` on the remote repository (a remote client's only
  /// way to provision its private reply queue).
  Status CreateQueue(const std::string& queue,
                     const queue::QueueOptions& options = {});
  Result<size_t> Depth(const std::string& queue);
  /// Replication posture of the daemon (either role).
  Result<ReplStatusInfo> ReplicationStatus();
  /// Promotes a backup daemon to primary (idempotent; the daemon
  /// starts accepting writes and refuses further replication).
  Status Promote();

 private:
  Status CallService(const std::string& request, std::string* payload,
                     const CallOptions& options = {});

  Channel* channel_;
};

}  // namespace rrq::net

#endif  // RRQ_NET_QUEUE_WIRE_H_
