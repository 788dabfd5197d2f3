#ifndef RRQ_WAL_LOG_WRITER_H_
#define RRQ_WAL_LOG_WRITER_H_

#include <atomic>
#include <memory>

#include "env/env.h"
#include "util/slice.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace rrq::wal {

/// Appends length-delimited, checksummed records to a log file.
/// Thread-safe: concurrent AddRecord calls are serialized internally.
///
/// Durability uses group commit: a committer appends its record
/// (receiving the log offset that must become durable to cover it),
/// then calls SyncTo(offset). The first waiter becomes the sync
/// leader, performs ONE physical Sync() covering every record appended
/// so far, and advances the durable-offset watermark, releasing every
/// follower whose offset is covered. Committers whose offset is
/// already below the watermark return without any I/O. N concurrent
/// committers therefore pay ~1 fsync instead of N.
///
/// Invariant: durable_offset() only advances after a successful
/// physical Sync() of at least that many log bytes, so SyncTo(o)
/// returning OK means bytes [0, o) survive a crash.
///
/// Fail-stop: the first failed append, flush or sync poisons the
/// writer. Every later AddRecord and SyncTo returns that error, so no
/// commit is acknowledged on top of bytes the kernel may have dropped;
/// the owner recovers by reopening from what is on disk.
class LogWriter {
 public:
  /// Takes ownership of `dest`, which must be positioned at the end of
  /// an empty or freshly created file (use `initial_offset` to resume
  /// appending to a log with existing contents; those bytes are
  /// treated as already durable).
  ///
  /// `group_commit` selects batched leader/follower syncing (default).
  /// When false every SyncTo performs its own exclusive physical sync
  /// — the pre-group-commit behavior, kept for benchmarks that measure
  /// the difference.
  explicit LogWriter(std::unique_ptr<env::WritableFile> dest,
                     uint64_t initial_offset = 0, bool group_commit = true);

  LogWriter(const LogWriter&) = delete;
  LogWriter& operator=(const LogWriter&) = delete;

  /// Appends one logical record. The record is readable after the
  /// call, but durable only after a covering sync. When `end_offset`
  /// is non-null it receives the log offset to pass to SyncTo() for
  /// this record's durability.
  Status AddRecord(const Slice& record, uint64_t* end_offset = nullptr);

  /// Makes every byte below `offset` durable, batching with concurrent
  /// callers (see class comment). Returns immediately when the durable
  /// watermark already covers `offset`.
  Status SyncTo(uint64_t offset);

  /// Forces everything appended so far to stable storage. Equivalent
  /// to SyncTo(PhysicalSize()).
  Status Sync();

  /// Bytes written so far (including headers and block padding).
  uint64_t PhysicalSize() const;

  /// Watermark: bytes known durable on stable storage.
  uint64_t durable_offset() const;

  /// The error that poisoned the writer (OK while healthy).
  Status error() const;

  // ---- Group-commit observability ------------------------------------
  /// Physical Sync() calls issued to the file.
  uint64_t sync_count() const {
    return physical_syncs_.load(std::memory_order_relaxed);
  }
  /// Durability requests (SyncTo/Sync calls) that were not already
  /// satisfied by the watermark on entry. sync_request_count() /
  /// sync_count() is the batching factor (records per sync).
  uint64_t sync_request_count() const {
    return sync_requests_.load(std::memory_order_relaxed);
  }
  /// Records appended so far.
  uint64_t record_count() const {
    return records_.load(std::memory_order_relaxed);
  }

 private:
  Status AppendLocked(const Slice& record, uint64_t* end_offset)
      REQUIRES(mu_);
  Status EmitPhysicalRecord(unsigned char type, const char* ptr, size_t n)
      REQUIRES(mu_);
  // Makes `s` sticky (the first error wins) and returns the sticky one.
  Status Poison(const Status& s) EXCLUDES(mu_);

  // dest_ itself is deliberately unguarded: Append runs under mu_ while
  // the sync leader calls Flush/Sync concurrently with no lock held —
  // the WritableFile contract allows an append racing a sync (the sync
  // then covers at least the bytes visible when it started).
  std::unique_ptr<env::WritableFile> dest_;
  const bool group_commit_;
  mutable Mutex mu_;  // Serializes appends; guards physical_size_.
  // Current offset within the current block.
  int block_offset_ GUARDED_BY(mu_);
  uint64_t physical_size_ GUARDED_BY(mu_);
  // First append or sync failure; sticky (see class comment).
  Status error_ GUARDED_BY(mu_);

  // Group-commit state. Lock order: sync_mu_ before mu_ (the per-op
  // sync path snapshots the append frontier while holding sync_mu_);
  // sync_mu_ is never held across the physical sync itself.
  mutable Mutex sync_mu_ ACQUIRED_BEFORE(mu_);
  CondVar sync_cv_;
  bool sync_in_progress_ GUARDED_BY(sync_mu_) = false;
  uint64_t durable_offset_ GUARDED_BY(sync_mu_);

  std::atomic<uint64_t> physical_syncs_{0};
  std::atomic<uint64_t> sync_requests_{0};
  std::atomic<uint64_t> records_{0};
};

}  // namespace rrq::wal

#endif  // RRQ_WAL_LOG_WRITER_H_
