#ifndef RRQ_STORAGE_KV_STORE_H_
#define RRQ_STORAGE_KV_STORE_H_

#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "env/env.h"
#include "txn/resource_manager.h"
#include "txn/txn_manager.h"
#include "util/result.h"
#include "util/slice.h"
#include "util/status.h"
#include "util/thread_annotations.h"
#include "wal/log_writer.h"

namespace rrq::storage {

/// Options for KvStore.
struct KvStoreOptions {
  /// Environment for durable state. nullptr makes the store volatile
  /// (no WAL, no recovery) — useful for baselines and benchmarks.
  env::Env* env = nullptr;
  /// Directory for WAL / checkpoint / CURRENT files.
  std::string dir;
  /// Sync the commit record before acknowledging commit. Turning this
  /// off trades the durability of the last few transactions for speed.
  bool sync_commits = true;
  /// Batch WAL syncs across concurrent committers (leader/follower
  /// group commit). Disable for the per-operation-sync baseline.
  bool group_commit = true;
  /// Resolves in-doubt transactions found during recovery (prepared
  /// but neither committed nor aborted). Defaults to presumed abort.
  /// Wire this to TransactionManager::WasCommitted for 2PC.
  std::function<bool(txn::TxnId)> in_doubt_resolver;
  /// Prefix namespacing this store's keys in the shared lock manager.
  /// Defaults to `dir` (or "kv" when dir is empty).
  std::string lock_prefix;
  /// Bound on every lock wait inside Get/Put/Delete. Waiters past the
  /// bound fail with TimedOut (deadlock victims fail sooner, with
  /// Aborted).
  uint64_t lock_timeout_micros = 10'000'000;
  /// Hosts the store on `host`'s log (txn::HostedStore): no WAL and no
  /// files of its own. A transaction that writes the store enlists the
  /// host, whose commit record carries the write set, so the store's
  /// writes cost no force, no 2PC and no decision record of their own,
  /// and replicate with the host's records. env, dir, the sync options
  /// and the in-doubt resolver are then unused.
  txn::StoreHost* host = nullptr;
};

/// A recoverable, transactional key-value store: the "shared updatable
/// database" the paper's back-end servers operate on, and the
/// substrate for the §6 application-lock table.
///
/// Design: main-memory std::map of committed state; per-transaction
/// deferred write sets; strict 2PL via the enclosing transaction's
/// lock manager. Standalone, it keeps a redo-only WAL (prepare record
/// carries the write set, commit record makes it applicable) and a
/// fuzzy checkpoint that snapshots committed state and re-logs
/// in-flight prepares into a fresh WAL. Hosted (KvStoreOptions::host),
/// it keeps neither: committed writes arrive through ApplyRedo and
/// apply last-writer-wins by stamp, with a tombstone per delete.
///
/// Thread-safe.
class KvStore final : public txn::ResourceManager, public txn::HostedStore {
 public:
  explicit KvStore(std::string name, KvStoreOptions options = {});
  ~KvStore() override;

  KvStore(const KvStore&) = delete;
  KvStore& operator=(const KvStore&) = delete;

  /// Recovers durable state (checkpoint + WAL replay). Must be called
  /// once before use.
  Status Open();

  // ---- Transactional operations -------------------------------------
  // Each auto-enlists this store in *t* and acquires the appropriate
  // two-phase lock. Writes are deferred to commit; reads see the
  // transaction's own writes.

  Status Put(txn::Transaction* t, const Slice& key, const Slice& value);
  Status Delete(txn::Transaction* t, const Slice& key);

  /// Shared-locked read. NotFound when absent (or deleted by *t*).
  Result<std::string> Get(txn::Transaction* t, const Slice& key);

  /// Exclusive-locked read (read-for-update), avoiding S->X upgrade
  /// deadlocks in read-modify-write transactions.
  Result<std::string> GetForUpdate(txn::Transaction* t, const Slice& key);

  // ---- Non-transactional reads (read committed, no locks) -----------

  Result<std::string> GetCommitted(const Slice& key) const;
  std::vector<std::string> ScanKeys(const std::string& prefix) const;
  size_t size() const;

  /// Writes a checkpoint and truncates the WAL. A hosted store is
  /// checkpointed by its host; this is then a no-op.
  Status Checkpoint();

  // ---- txn::ResourceManager ------------------------------------------
  std::string_view rm_name() const override { return name_; }
  Status Prepare(txn::TxnId txn) override;
  Status CommitTxn(txn::TxnId txn) override;
  void AbortTxn(txn::TxnId txn) override;
  Status PrepareAndCommit(txn::TxnId txn) override;

  // ---- txn::HostedStore (hosted mode) ---------------------------------
  std::string TakeRedo(txn::TxnId txn) override;
  void DropRedo(txn::TxnId txn) override;
  Status ApplyRedo(uint64_t stamp, const Slice& redo) override;
  std::vector<std::string> SnapshotRedo() const override;

  // ---- Introspection ---------------------------------------------------
  uint64_t wal_bytes() const;
  /// Physical WAL syncs vs durability requests; the ratio is the
  /// group-commit batching factor.
  uint64_t wal_sync_count() const;
  uint64_t wal_sync_request_count() const;
  uint64_t checkpoint_count() const {
    return checkpoints_.load(std::memory_order_relaxed);
  }
  uint64_t recovered_txn_count() const {
    MutexLock guard(mu_);
    return recovered_txns_;
  }
  /// Failed RemoveFile calls on the retirement/GC path (checkpoint
  /// retiring the previous generation, recovery GC). Nonzero means
  /// orphan files may be accumulating; the crash sweep asserts on it.
  uint64_t remove_failure_count() const {
    return remove_failures_.load(std::memory_order_relaxed);
  }
  /// Orphan files (stale generations, stray .tmp) deleted by Open().
  uint64_t recovery_gc_removed_count() const {
    return gc_removed_.load(std::memory_order_relaxed);
  }

 private:
  struct WriteOp {
    std::string key;
    std::optional<std::string> value;  // nullopt = delete
  };
  using WriteSet = std::vector<WriteOp>;

  // A committed key. A hosted store keeps a deleted key as a tombstone
  // (live == false) carrying the delete's stamp, so an older write
  // replayed later from another log stream cannot resurrect it.
  struct Entry {
    std::string value;
    uint64_t stamp = 0;
    bool live = false;
  };

  std::string LockKey(const Slice& key) const;
  // The write-set encoding shared by WAL records and hosted redo:
  // [count][tag key [value]]...
  static void EncodeWrites(const WriteSet& ws, std::string* out);
  static Status DecodeWrites(Slice* input, WriteSet* ws);
  // A WAL record: [type][txn id][writes].
  static void EncodeWriteSet(txn::TxnId id, const WriteSet& ws,
                             unsigned char type, std::string* out);
  Status LogAndMaybeSync(const std::string& record, bool sync);
  // Applies a write set to committed state. A write older than the
  // key's stamp is skipped; a stamp-0 delete leaves no tombstone.
  void ApplyLocked(const WriteSet& ws, uint64_t stamp = 0) REQUIRES(mu_);
  // The participant a writing transaction enlists: the host, or this.
  txn::ResourceManager* participant() {
    if (options_.host != nullptr) return options_.host;
    return this;
  }
  void RemoveRetiredFile(const std::string& path);
  // Recovery steps, called from Open() which holds mu_ for the whole
  // durable path.
  Status OpenWalForAppend(uint64_t generation) REQUIRES(mu_);
  Status LoadCheckpoint(uint64_t generation) REQUIRES(mu_);
  Status ReplayWal(uint64_t generation) REQUIRES(mu_);
  std::string WalPath(uint64_t generation) const;
  std::string CheckpointPath(uint64_t generation) const;
  std::string CurrentPath() const;

  const std::string name_;
  KvStoreOptions options_;
  bool opened_ = false;

  mutable Mutex mu_;
  // Committed state, tombstones included; live_ counts the rest.
  std::map<std::string, Entry> data_ GUARDED_BY(mu_);
  size_t live_ GUARDED_BY(mu_) = 0;
  // Active write sets.
  std::unordered_map<txn::TxnId, WriteSet> pending_ GUARDED_BY(mu_);
  // Voted yes.
  std::unordered_map<txn::TxnId, WriteSet> prepared_ GUARDED_BY(mu_);
  // One-phase commits between their append and their apply. A
  // checkpoint in that window re-logs them as committed, since their
  // record stays behind in the retired WAL.
  std::unordered_map<txn::TxnId, WriteSet> committing_ GUARDED_BY(mu_);
  uint64_t generation_ GUARDED_BY(mu_) = 0;
  // Swapped by Checkpoint(); committers snapshot the shared_ptr under
  // mu_ and append outside it (LogWriter is internally synchronized;
  // the shared_ptr keeps the retired writer alive until the last
  // in-flight appender drops it).
  std::shared_ptr<wal::LogWriter> wal_ GUARDED_BY(mu_);
  uint64_t recovered_txns_ GUARDED_BY(mu_) = 0;
  std::atomic<uint64_t> checkpoints_{0};
  std::atomic<uint64_t> remove_failures_{0};
  std::atomic<uint64_t> gc_removed_{0};
};

}  // namespace rrq::storage

#endif  // RRQ_STORAGE_KV_STORE_H_
