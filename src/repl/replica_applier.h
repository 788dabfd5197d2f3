#ifndef RRQ_REPL_REPLICA_APPLIER_H_
#define RRQ_REPL_REPLICA_APPLIER_H_

#include <atomic>
#include <cstdint>
#include <string>

#include "env/env.h"
#include "queue/queue_repository.h"
#include "util/slice.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace rrq::repl {

struct ReplicaApplierOptions {
  /// Environment + directory holding the stream-identity file
  /// (REPL_STREAM). nullptr env keeps the identity in memory only.
  env::Env* env = nullptr;
  std::string dir;
  /// The backup repository records apply into. Must outlive the
  /// applier and already be Open()ed (its recovery restores the
  /// applied watermark).
  queue::QueueRepository* repo = nullptr;
};

/// Backup-side half of WAL shipping: an RpcHandler served on the
/// backup's replication TcpServer that feeds each shipped batch of
/// records to QueueRepository::ApplyReplicatedBatch, one commit per
/// batch, in sequence order.
///
/// Stream identity: a primary's sequence numbers are only meaningful
/// within one primary incarnation, so the applier binds to the first
/// stream that seeds it and persists that id (REPL_STREAM) atomically
/// with snapshot completion. A hello from any other stream — a
/// restarted primary, or a different one — is refused with
/// FailedPrecondition("reseed required"): the operator wipes the
/// backup directory to accept a fresh seed. A crash mid-seed leaves a
/// non-empty repository with no stream file, which lands in the same
/// refused state instead of risking a double-applied snapshot.
///
/// Promotion flips the applier read-only-for-the-dead-primary: every
/// subsequent replication request is refused, so a partitioned
/// ex-primary that comes back cannot keep mutating the new primary.
///
/// Thread-safe: the transport may run handlers concurrently, so one
/// batch applies at a time under apply_mu_ (order within a batch is
/// the shipped order; across batches the gap check forces sequence
/// continuity).
class ReplicaApplier {
 public:
  explicit ReplicaApplier(ReplicaApplierOptions options);

  ReplicaApplier(const ReplicaApplier&) = delete;
  ReplicaApplier& operator=(const ReplicaApplier&) = delete;

  /// Loads the persisted stream identity (if any). Call once, after
  /// the repository's Open().
  Status Open();

  /// The RpcHandler: decodes one replication request, applies it,
  /// encodes the watermark reply. Always returns OK with a reply
  /// carrying the application status, except on requests too
  /// malformed to answer (transport drops the connection).
  Status Handle(const Slice& request, std::string* reply);

  /// Refuses all further replication traffic. Returns the applied
  /// watermark at the cut — the promoted state is exactly the
  /// primary's history through that sequence.
  uint64_t Promote();

  bool promoted() const {
    return promoted_.load(std::memory_order_acquire);
  }
  uint64_t stream_id() const;
  uint64_t applied_seq() const { return options_.repo->applied_repl_seq(); }

  uint64_t ships_received() const {
    return ships_.load(std::memory_order_relaxed);
  }
  uint64_t records_applied() const {
    return applied_.load(std::memory_order_relaxed);
  }
  uint64_t duplicates_skipped() const {
    return duplicates_.load(std::memory_order_relaxed);
  }
  uint64_t gaps_rejected() const {
    return gaps_.load(std::memory_order_relaxed);
  }

 private:
  Status HandleHello(uint64_t stream, uint64_t* watermark)
      REQUIRES(apply_mu_);
  Status HandleShip(uint64_t stream, Slice* body, uint64_t* watermark)
      REQUIRES(apply_mu_);
  Status HandleSnapshotBegin(uint64_t stream, Slice* body,
                             uint64_t* watermark) REQUIRES(apply_mu_);
  Status HandleSnapshotChunk(uint64_t stream, Slice* body,
                             uint64_t* watermark) REQUIRES(apply_mu_);
  Status HandleSnapshotEnd(uint64_t stream, uint64_t* watermark)
      REQUIRES(apply_mu_);
  Status PersistStreamId(uint64_t stream) REQUIRES(apply_mu_);
  std::string StreamPath() const;

  ReplicaApplierOptions options_;

  mutable Mutex apply_mu_;
  uint64_t stream_id_ GUARDED_BY(apply_mu_) = 0;  // 0 = none adopted.
  bool snapshot_active_ GUARDED_BY(apply_mu_) = false;
  uint64_t snapshot_stream_ GUARDED_BY(apply_mu_) = 0;
  uint64_t snapshot_barrier_ GUARDED_BY(apply_mu_) = 0;

  std::atomic<bool> promoted_{false};
  std::atomic<uint64_t> ships_{0};
  std::atomic<uint64_t> applied_{0};
  std::atomic<uint64_t> duplicates_{0};
  std::atomic<uint64_t> gaps_{0};
};

}  // namespace rrq::repl

#endif  // RRQ_REPL_REPLICA_APPLIER_H_
