#ifndef RRQ_REPL_REPLICATION_LOG_H_
#define RRQ_REPL_REPLICATION_LOG_H_

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "util/status.h"
#include "util/thread_annotations.h"

namespace rrq::repl {

/// In-memory sequenced buffer between a primary repository's
/// replication sink and the ReplicationSender. The repository's sink
/// appends records in apply order — the repository's per-shard
/// delivery tickets already serialize sink calls behind the
/// group-commit watermark, so the log's sequence numbers (1, 2, ...)
/// are exactly apply order. The sender fetches batches and the
/// backup's acks advance a watermark that both trims the buffer and
/// releases ack-mode waiters (AckGate).
///
/// Retention is bounded: past `max_buffered` records the oldest are
/// dropped even when unacked. A sender (or a freshly resumed backup)
/// asking for a dropped sequence gets Aborted — the "backup fell
/// behind, reseed required" verdict, surfaced through
/// ReplicationStatus rather than silently skipping records.
///
/// Thread-safe.
class ReplicationLog {
 public:
  explicit ReplicationLog(size_t max_buffered = 1 << 16)
      : max_buffered_(max_buffered == 0 ? 1 : max_buffered) {}

  ReplicationLog(const ReplicationLog&) = delete;
  ReplicationLog& operator=(const ReplicationLog&) = delete;

  /// Appends one record, returning its sequence number (from 1).
  uint64_t Append(std::string record);

  /// Sequence of the newest appended record (0 = none yet).
  uint64_t head_seq() const;
  /// Sequence of the oldest retained record; head_seq()+1 when the
  /// buffer is empty. A fetch below this is Aborted.
  uint64_t base_seq() const;
  /// Highest sequence acknowledged by the backup.
  uint64_t acked() const;
  /// True when retention ever dropped an unacked record.
  bool overflowed() const;

  /// Advances the ack watermark (monotonic; lower acks are no-ops),
  /// trims acknowledged records, and wakes WaitAcked callers.
  void Acked(uint64_t seq);

  /// Blocks until `seq` is acked, Shutdown() runs, or
  /// `timeout_micros` elapses (Unavailable — the semi-synchronous
  /// gate: the caller's commit stands, the error is surfaced).
  /// Returns OK immediately between BeginSnapshot()/EndSnapshot().
  Status WaitAcked(uint64_t seq, uint64_t timeout_micros);

  /// Marks a seed snapshot in progress: WaitAcked returns OK without
  /// blocking (already-parked waiters are released) until
  /// EndSnapshot(). The sender cannot advance acks while it is busy
  /// capturing/shipping the seed, so ack-mode waiters parking behind
  /// it would stall for a full timeout (and a sink that waits would
  /// deadlock the capture's delivery drain) — and the gate is moot
  /// anyway: until the seed completes there is no consistent backup
  /// to fail over to. Ack mode degrades to async for the duration of
  /// the seed.
  void BeginSnapshot();
  void EndSnapshot();

  /// Copies up to `max_records` records starting at `from_seq` into
  /// `*records`. Blocks up to `timeout_micros` when `from_seq` is past
  /// the head (NotFound on timeout with nothing new — the sender's
  /// idle poll). Aborted when `from_seq` fell below base_seq().
  /// Cancelled after Shutdown().
  Status Fetch(uint64_t from_seq, size_t max_records,
               uint64_t timeout_micros, std::vector<std::string>* records);

  /// Wakes every blocked Fetch/WaitAcked with Cancelled. Appends after
  /// shutdown still sequence (the repository may still be committing)
  /// but nothing blocks.
  void Shutdown();

 private:
  const size_t max_buffered_;

  mutable Mutex mu_;
  CondVar appended_cv_;  // New records for blocked fetchers.
  CondVar acked_cv_;     // Watermark advance for ack-mode waiters.
  std::deque<std::string> records_ GUARDED_BY(mu_);
  uint64_t base_ GUARDED_BY(mu_) = 1;   // Seq of records_.front().
  uint64_t next_ GUARDED_BY(mu_) = 1;   // Next seq to assign.
  uint64_t acked_ GUARDED_BY(mu_) = 0;
  bool overflowed_ GUARDED_BY(mu_) = false;
  bool shutdown_ GUARDED_BY(mu_) = false;
  bool snapshotting_ GUARDED_BY(mu_) = false;
};

}  // namespace rrq::repl

#endif  // RRQ_REPL_REPLICATION_LOG_H_
