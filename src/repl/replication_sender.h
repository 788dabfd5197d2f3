#ifndef RRQ_REPL_REPLICATION_SENDER_H_
#define RRQ_REPL_REPLICATION_SENDER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>

#include "net/tcp_transport.h"
#include "queue/queue_repository.h"
#include "repl/replication_log.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace rrq::repl {

struct ReplicationSenderOptions {
  /// The backup's replication listener.
  std::string host = "127.0.0.1";
  uint16_t port = 0;
  /// Per-boot random stream identity (nonzero); see ReplicaApplier.
  uint64_t stream_id = 0;
  /// Records per ship call.
  size_t batch_max_records = 128;
  /// Idle poll on the replication log between ships.
  uint64_t poll_timeout_micros = 100'000;
  /// Backoff between reconnect/retry rounds (bounded, exponential).
  uint64_t backoff_initial_micros = 50'000;
  uint64_t backoff_max_micros = 1'000'000;
  /// Extra TcpChannel knobs (host/port are overwritten from above).
  net::TcpChannelOptions channel;
};

/// A point-in-time view of the shipping pipeline, served through the
/// ReplicationStatus admin op.
struct ReplicationState {
  /// "connecting" | "snapshot" | "shipping" | "fell_behind" | "stopped"
  std::string state;
  uint64_t stream_id = 0;
  /// Highest sequence the backup acknowledged.
  uint64_t acked_seq = 0;
  /// Newest sequence the primary has produced.
  uint64_t head_seq = 0;
  uint64_t ships_sent = 0;
  uint64_t snapshot_records_sent = 0;
  uint64_t reconnects = 0;
  std::string last_error;
};

/// Primary-side half of WAL shipping: a background thread that drains
/// the ReplicationLog over a dedicated TcpChannel to the backup's
/// applier, with acks, gap rewind, and bounded reconnect/backoff.
///
/// The transport's never-resend rule does not apply to this channel:
/// shipping is idempotent by record sequence number (the backup dedups
/// at or below its watermark), so after any failure the sender simply
/// re-hellos, reads the backup's watermark, and resumes from there —
/// re-sending records whose fate was uncertain is exactly the
/// protocol.
///
/// Initial catch-up: a backup reporting watermark 0 is seeded with a
/// full-state snapshot (CaptureReplicaSnapshot at a log barrier S,
/// shipped as snapshot chunks) and then tailed from S+1. A backup
/// whose watermark fell below the log's retention window cannot catch
/// up and is reported as "fell_behind" (reseed: wipe the backup).
class ReplicationSender {
 public:
  ReplicationSender(ReplicationSenderOptions options, ReplicationLog* log,
                    queue::QueueRepository* repo);
  ~ReplicationSender();

  ReplicationSender(const ReplicationSender&) = delete;
  ReplicationSender& operator=(const ReplicationSender&) = delete;

  /// Starts the shipping thread. InvalidArgument on a zero stream id.
  Status Start();
  /// Stops and joins the shipping thread (idempotent).
  void Stop();

  ReplicationState state() const;

 private:
  void SenderMain();
  // One connect → hello → (snapshot) → ship cycle; returns when the
  // connection breaks or Stop() is requested. Sets state/last_error.
  // True when the session reached the shipping state — the caller
  // resets its reconnect backoff (a healthy session must not leave
  // the next disconnect paying the maximum backoff).
  bool RunSession();
  Status CallBackup(const std::string& request, uint64_t* watermark);
  Status SendSnapshot(uint64_t* resume_seq);
  // Interruptible backoff sleep; returns false when stopping.
  bool BackoffSleep(uint64_t* backoff_micros);
  void SetState(const std::string& state);
  void SetError(const Status& error);

  ReplicationSenderOptions options_;
  ReplicationLog* const log_;
  queue::QueueRepository* const repo_;
  std::unique_ptr<net::TcpChannel> channel_;

  std::atomic<bool> stop_{false};
  std::atomic<bool> started_{false};
  std::thread thread_;

  mutable Mutex mu_;
  CondVar stop_cv_;  // Wakes BackoffSleep on Stop().
  std::string state_ GUARDED_BY(mu_) = "stopped";
  std::string last_error_ GUARDED_BY(mu_);

  std::atomic<uint64_t> ships_sent_{0};
  std::atomic<uint64_t> snapshot_records_sent_{0};
  std::atomic<uint64_t> reconnects_{0};
};

}  // namespace rrq::repl

#endif  // RRQ_REPL_REPLICATION_SENDER_H_
