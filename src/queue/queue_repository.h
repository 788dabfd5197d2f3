#ifndef RRQ_QUEUE_QUEUE_REPOSITORY_H_
#define RRQ_QUEUE_QUEUE_REPOSITORY_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "env/env.h"
#include "queue/element.h"
#include "txn/resource_manager.h"
#include "txn/txn_manager.h"
#include "util/result.h"
#include "util/status.h"
#include "util/thread_annotations.h"
#include "wal/log_writer.h"

namespace rrq::queue {

/// Options for a QueueRepository.
struct RepositoryOptions {
  /// Environment for durable state; nullptr makes the whole repository
  /// volatile.
  env::Env* env = nullptr;
  std::string dir;
  /// Sync the WAL on every auto-committed operation and commit record.
  bool sync_commits = true;
  /// Batch WAL syncs across concurrent committers (leader/follower
  /// group commit). Disable to restore per-operation syncing, the
  /// baseline the group-commit benchmark measures against.
  bool group_commit = true;
  /// Number of shards the repository is partitioned into (queues are
  /// assigned by a stable hash of their name; each shard has its own
  /// lock, WAL stream, and group-commit leader). 0 means
  /// hardware_concurrency. 1 reproduces the pre-sharding single-lock
  /// repository and its on-disk layout bit-for-bit. A durable directory
  /// remembers its shard count: reopening adopts the on-disk count, so
  /// pre-sharding data directories open unchanged regardless of this
  /// setting.
  unsigned shards = 0;
  /// In-doubt resolution at recovery (presumed abort by default).
  std::function<bool(txn::TxnId)> in_doubt_resolver;
  /// Invoked (outside the repository lock) when a committed enqueue
  /// raises a queue's depth to its alert_threshold.
  std::function<void(const std::string& queue, size_t depth)> alert_callback;
  /// Queue replication (§10): when set, every record of committed
  /// effects is pushed through this sink, in apply order, after the
  /// local apply. Feed the records to a backup repository's
  /// ApplyReplicatedRecord (possibly across the simulated network) to
  /// maintain a hot standby with identical eids, elements, and
  /// registrations. Semi-synchronous: the local commit stands even if
  /// the sink errors (the error is surfaced to the caller).
  std::function<Status(const Slice& record)> replication_sink;
};

/// Fork/join trigger (§6): once `remaining` committed enqueues have
/// arrived in `watched_queue`, enqueue `contents` into `target_queue`.
struct TriggerSpec {
  std::string watched_queue;
  uint64_t remaining = 0;
  std::string target_queue;
  std::string contents;
  uint32_t priority = 0;
};

/// A repository of recoverable queues — the paper's queue manager
/// (§4), one instance per "node".
///
/// Every data-manipulation operation can run inside a transaction
/// (pass the Transaction — effects commit/abort with it) or outside
/// one (pass nullptr — the operation auto-commits atomically). The
/// clerk uses the latter mode ("the queue is a gateway between the
/// non-transaction world of front-ends and the transactional world of
/// back-ends", §2); servers use the former.
///
/// Durability: a write-ahead log + checkpoint pair, recovered by
/// Open(). Volatile queues (per-queue option) skip logging. The
/// repository participates in one- and two-phase commit as a
/// txn::ResourceManager, and can host a txn::HostedStore (a KvStore):
/// the store's writes then ride the repository's commit records, so a
/// transaction over queues and the store commits with this log alone.
///
/// Internally the repository is partitioned into
/// RepositoryOptions::shards shards keyed by queue-name hash. Each
/// shard owns its queues, its mutex and condition variables, its WAL
/// stream (WAL-<gen>-<shard>) with its own group-commit leader, and
/// its slice of the checkpoint, so operations on queues in different
/// shards never contend on a lock or serialize into the same log.
/// A transaction enlists the repository once, however many shards it
/// touches. Its commit, and every internal cross-shard auto-commit
/// (redirected tagged enqueues, cross-shard error-queue moves,
/// replicated records), runs one coordinator-last protocol over the
/// involved shard WALs (CommitAcross): one force however many shards
/// it touches, resolved atomically by recovery. The eid counter is one
/// process-wide atomic, so element ids stay unique and monotonic
/// across shards; it also stamps the hosted store's writes.
///
/// Thread-safe.
class QueueRepository final : public txn::StoreHost {
 public:
  QueueRepository(std::string name, RepositoryOptions options = {});
  ~QueueRepository() override;

  QueueRepository(const QueueRepository&) = delete;
  QueueRepository& operator=(const QueueRepository&) = delete;

  /// Recovers durable state (shards recover in parallel). Call once
  /// before use.
  Status Open();

  // ---- Data definition (§4.1) ---------------------------------------
  // Auto-committed (durable immediately); not undoable.

  Status CreateQueue(const std::string& queue, QueueOptions options = {});
  Status DestroyQueue(const std::string& queue);
  /// Stopped queues reject Enqueue/Dequeue with FailedPrecondition.
  Status StartQueue(const std::string& queue);
  Status StopQueue(const std::string& queue);
  bool QueueExists(const std::string& queue) const;

  // ---- Persistent registration (§4.3) --------------------------------

  /// Registers `registrant` with `queue`. When `stable` is true the
  /// repository durably maintains the registrant's last tagged
  /// operation and returns it here on re-registration after a failure.
  Result<RegistrationInfo> Register(const std::string& queue,
                                    const std::string& registrant,
                                    bool stable);
  Status Deregister(const std::string& queue, const std::string& registrant);

  // ---- Data manipulation (§4.2) ---------------------------------------

  /// Enqueues `contents`. When `registrant` is a stable registrant of
  /// `queue`, the operation is tagged with `tag` atomically with the
  /// enqueue. Returns the new element's eid.
  Result<ElementId> Enqueue(txn::Transaction* t, const std::string& queue,
                            const Slice& contents, uint32_t priority = 0,
                            const std::string& registrant = "",
                            const Slice& tag = Slice());

  /// Dequeues the next element per the queue's policy, waiting up to
  /// `timeout_micros` for one to become visible (0 = no wait).
  /// Returns NotFound on timeout with an empty queue, Busy on timeout
  /// in strict-FIFO mode with a locked head.
  Result<Element> Dequeue(txn::Transaction* t, const std::string& queue,
                          const std::string& registrant = "",
                          const Slice& tag = Slice(),
                          uint64_t timeout_micros = 0);

  /// Dequeue with a content-based selector (§10 request scheduling).
  /// The selector sees the visible elements in (priority, FIFO) order.
  Result<Element> DequeueSelected(txn::Transaction* t,
                                  const std::string& queue,
                                  const Selector& selector,
                                  const std::string& registrant = "",
                                  const Slice& tag = Slice());

  /// Dequeues from the first of `queues` that has a visible element
  /// (queue sets, §9). The queues may live on different shards; the
  /// first-visible-wins scan order is the caller's order regardless.
  Result<Element> DequeueFromSet(txn::Transaction* t,
                                 const std::vector<std::string>& queues,
                                 const std::string& registrant = "",
                                 const Slice& tag = Slice());

  /// Reads an element without removing it: first the live element with
  /// that eid in `queue`, else any stable registrant's saved copy of it
  /// (the paper's Read-after-Dequeue for Rereceive).
  Result<Element> Read(const std::string& queue, ElementId eid) const;

  /// Cancels an element (§7). If still enqueued: deletes it (in `t` or
  /// auto-committed). If currently dequeued by an uncommitted
  /// transaction: marks it killed — that transaction's commit will be
  /// vetoed and the element deleted on its abort. Returns true when
  /// the element was (or will be) deleted, false when it was already
  /// consumed by a committed dequeue.
  Result<bool> KillElement(txn::Transaction* t, const std::string& queue,
                           ElementId eid);

  /// Installs a durable fork/join trigger (§6).
  Status SetTrigger(const TriggerSpec& spec);

  /// Applies a record produced by another repository's
  /// replication_sink (§10 queue replication). Ops apply with their
  /// original eids; the eid counter advances past the primary's
  /// watermark so a promoted backup never reuses ids. Durable backups
  /// log the record before applying. A record whose ops land on
  /// several local shards applies through the cross-shard commit
  /// protocol, so it stays atomic across a backup crash.
  ///
  /// `seq` is the shipper's monotonically increasing record sequence
  /// number for networked WAL shipping (src/repl/); 0 means untracked.
  /// A record whose seq is at or below the applied watermark is a
  /// duplicate delivery and is acknowledged without re-applying; a
  /// fresh record applies atomically WITH the watermark advance (the
  /// watermark rides inside the record as a micro-op, so a backup
  /// crash can never apply one without the other — re-delivery after
  /// recovery then dedups instead of double-applying).
  Status ApplyReplicatedRecord(const Slice& record, uint64_t seq = 0);

  /// Applies the seq-tracked records first_seq, first_seq + 1, ... (a
  /// shipped batch) as ONE commit with one watermark advance, skipping
  /// duplicates. Nothing applies unless every record decodes. Ops keep
  /// their order within each queue, which is all a replica's state
  /// depends on, so the batch lands exactly as the records one by one
  /// would, while the backup forces once per batch instead of once per
  /// record.
  Status ApplyReplicatedBatch(const std::vector<std::string>& records,
                              uint64_t first_seq);

  /// Highest replication sequence number durably applied by this
  /// repository (0 = none). Survives restart: the watermark is logged
  /// atomically with each applied record and carried by checkpoints.
  uint64_t applied_repl_seq() const {
    return applied_repl_seq_.load(std::memory_order_acquire);
  }

  /// Captures a consistent full-state snapshot for seeding a backup:
  /// under every shard lock — after draining in-flight replication
  /// deliveries, so everything already handed to the sink is excluded
  /// from the barrier point — invokes `at_barrier` (the caller records
  /// its shipping position S there), then serializes all queues,
  /// registrations, elements, and triggers as ordinary replication
  /// records. Feeding the records to an empty backup's
  /// ApplyReplicatedRecord (seq 0) followed by records S+1, S+2, ...
  /// reproduces this repository's state exactly.
  Status CaptureReplicaSnapshot(const std::function<void()>& at_barrier,
                                std::vector<std::string>* records);

  /// Durably advances the applied replication watermark to `seq`
  /// without applying any ops — the snapshot-install completion step
  /// (equivalent to applying an empty seq-tracked record).
  Status CommitReplWatermark(uint64_t seq);

  /// An encoded empty committed record: applying it changes no queue
  /// state (beyond the watermark advance its sequence implies). The
  /// sender pads an empty ReplicationLog with one before seeding so
  /// the seed barrier — and thus a seeded backup's watermark — is
  /// never 0, which must always mean "fresh backup".
  std::string NoopReplicationRecord() const;

  // ---- Introspection ----------------------------------------------------

  /// Committed, visible depth of `queue`.
  Result<size_t> Depth(const std::string& queue) const;
  std::vector<std::string> ListQueues() const;
  Result<QueueOptions> GetQueueOptions(const std::string& queue) const;

  /// Number of shards (resolved at Open; on-disk count wins for
  /// durable directories).
  size_t shard_count() const { return shards_.size(); }
  /// Stable shard index of `queue` (an FNV-1a hash of the name, mod
  /// shard_count; the placement is part of the on-disk format). Exposed
  /// so tests and benches can construct queue names that do / don't
  /// share a shard.
  size_t shard_of(const std::string& queue) const {
    return ShardIndexOf(queue);
  }

  // ---- txn::StoreHost ---------------------------------------------------
  // Transactional operations enlist the repository itself. As the only
  // participant it commits one-phase through CommitAcross: one force
  // however many shards it touches, and no decision log. Beside other
  // participants it fans the coordinator's 2PC out to the involved
  // shards. A hosted store's write set goes into the last involved
  // shard's part.
  std::string_view rm_name() const override { return name_; }
  Status Prepare(txn::TxnId txn) override;
  Status CommitTxn(txn::TxnId txn) override;
  void AbortTxn(txn::TxnId txn) override;
  Status PrepareAndCommit(txn::TxnId txn) override;
  /// Hosts `store` (see txn::StoreHost); call before Open(). Recovery,
  /// Checkpoint(), replica seeds and ApplyReplicatedRecord then carry
  /// its state, and they fail with FailedPrecondition on a log that
  /// holds store writes while no store is hosted.
  void HostStore(txn::HostedStore* store) override;

  // ---- Statistics -------------------------------------------------------
  uint64_t enqueue_count() const { return enqueues_.load(std::memory_order_relaxed); }
  uint64_t dequeue_count() const { return dequeues_.load(std::memory_order_relaxed); }
  uint64_t error_move_count() const {
    return error_moves_.load(std::memory_order_relaxed);
  }
  uint64_t replication_failure_count() const {
    return replication_failures_.load(std::memory_order_relaxed);
  }
  /// Physical WAL bytes, summed across the shard WAL streams.
  uint64_t wal_bytes() const;
  /// The error that poisoned a shard's WAL (see wal::LogWriter), from
  /// the lowest-numbered failed shard; OK while every shard is healthy.
  /// `shard`, when non-null, receives that shard's index. Once it is
  /// set, commits that log on that shard fail, and memory may hold
  /// effects the log lost: the owner should stop and recover.
  Status wal_error(size_t* shard = nullptr) const;
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
  /// Physical WAL syncs issued, summed across shards. Under concurrent
  /// committers this is less than wal_sync_request_count(): the ratio
  /// is the group-commit batching factor.
  uint64_t wal_sync_count() const;
  /// Durability requests made against the WALs (commits that needed a
  /// sync), summed across shards.
  uint64_t wal_sync_request_count() const;

  /// Writes a checkpoint (one slice per shard under a single atomic
  /// generation cut) and truncates the WALs. A slice is a counted list
  /// of ordinary committed records, recovered like the WAL.
  Status Checkpoint();

 private:
  // A single micro-operation inside a logged record. Records are
  // redo-only: applying a micro-op mutates committed state.
  //
  // Element contents ride in `payload` (immutable, refcounted), never
  // in `element.contents`: an op built from live state shares the
  // stored bytes instead of copying them under the shard lock, and a
  // decoded op hands its bytes to the element it inserts.
  struct MicroOp {
    enum Kind : unsigned char {
      kCreateQueue = 1,
      kDestroyQueue = 2,
      kStartQueue = 3,
      kStopQueue = 4,
      kRegister = 5,
      kDeregister = 6,
      kInsert = 7,       // element lands in queue (enqueue/move)
      kRemove = 8,       // element leaves queue (dequeue/kill)
      kSetLastOp = 9,    // registration tag update
      kSetTrigger = 10,
      kClearTrigger = 11,
      kBumpAbortCount = 12,
      // Advances the applied replication watermark (element.eid holds
      // the sequence number). Appended by the seq-tracked
      // ApplyReplicatedRecord so the watermark commits atomically with
      // the record's effects; `queue` routes the op to a shard but is
      // otherwise ignored.
      kSetReplWatermark = 13,
      // The hosted store's write set (`payload`, opaque here), stamped
      // by element.eid; stamp 0 marks a checkpoint or seed snapshot.
      // `queue` only routes the op to the shard that logs it.
      kRedo = 14,
    };
    Kind kind;
    std::string queue;
    std::string registrant;   // kRegister/kDeregister/kSetLastOp
    Element element;          // kInsert/kSetLastOp (metadata), kRemove (eid)
    std::shared_ptr<const std::string> payload;  // kInsert/kSetLastOp/kRedo
    QueueOptions qoptions;    // kCreateQueue
    bool stable = false;      // kRegister
    OpType op_type = OpType::kNone;  // kSetLastOp
    TriggerSpec trigger;             // kSetTrigger
    std::string tag;                 // kSetLastOp
  };

  // A live element. The metadata (eid, priority, abort bookkeeping)
  // lives in `meta` with empty contents; the contents are a shared
  // immutable string, so handing an element to a reader is a refcount
  // bump under the shard lock and the byte copy happens outside it.
  struct InternalElement {
    Element meta;                        // meta.contents is always empty.
    std::shared_ptr<const std::string> payload;
    uint64_t seq = 0;                    // FIFO order within priority.
    txn::TxnId locked_by = txn::kInvalidTxnId;  // Uncommitted dequeuer.
    bool killed = false;                 // KillElement hit a locked element.
  };

  struct LastOpRecord {
    OpType type = OpType::kNone;
    ElementId eid = kInvalidElementId;
    std::string tag;
    Element meta;                        // meta.contents is always empty.
    std::shared_ptr<const std::string> payload;
  };

  struct RegistrationRecord {
    bool stable = false;
    LastOpRecord last;
  };

  // Every QueueState field is guarded by the owning Shard's `mu` (not
  // expressible as GUARDED_BY: the shard type is defined in the .cc
  // and a member cannot name its container's lock). All access runs
  // inside Shard helpers or repository functions annotated
  // REQUIRES(s->mu).
  struct QueueState {
    QueueOptions options;
    bool started = true;
    // eid -> element. The ordered index drives dequeue order.
    std::unordered_map<ElementId, InternalElement> elements;
    // (inverted priority, seq) -> eid.
    std::map<std::pair<uint32_t, uint64_t>, ElementId> order;
    std::unordered_map<std::string, RegistrationRecord> registrations;
    CondVar cv;       // Waits on the owning Shard's mu.
    int waiters = 0;  // Blocked dequeuers (pins the queue against destroy).
  };

  // An element a pending transaction holds locked: a dequeue (returned
  // to the queue with abort bookkeeping if the txn aborts) or a kill
  // reservation (simply unlocked if the txn aborts).
  struct LockedRef {
    std::string queue;
    ElementId eid = kInvalidElementId;
    bool is_kill = false;
  };

  struct PendingTxn {
    std::vector<MicroOp> ops;
    std::vector<LockedRef> locked;
    // Voted yes in an outside coordinator's 2PC (Shard::Prepare).
    bool prepared = false;
    // A cross-shard part whose coordinator has logged the commit; its
    // marker and apply are still to come (CommitAcross phase 2).
    bool decided = false;
  };

  // A shard's part of a cross-shard commit, read at recovery from the
  // coordinator's decision record. `stamp` (the decision's eid
  // watermark) orders decisions that share a shard.
  struct DecidedPart {
    uint64_t stamp = 0;
    std::vector<MicroOp> ops;
  };
  using DecidedParts = std::unordered_map<txn::TxnId, DecidedPart>;

  // One shard: a slice of the queue namespace with its own lock, WAL
  // stream, pending-transaction table, and triggers. Defined in the
  // .cc.
  struct Shard;
  // Per-shard recovery scratch (decided parts read from other shards'
  // WALs, leftover prepared transactions, commit-record ids seen).
  struct ShardRecovery;
  // A reserved replication-delivery slot on one shard (sink calls must
  // arrive in apply order; see DeliverReplica).
  struct ReplTicket {
    Shard* shard = nullptr;
    uint64_t ticket = 0;
  };

  // ---- helpers --------------------------------------------------------
  size_t ShardIndexOf(const std::string& queue) const;
  Shard* ShardFor(const std::string& queue);
  const Shard* ShardFor(const std::string& queue) const;
  std::string ResolveRedirect(const std::string& queue) const;
  // Applies a committed micro-op to shard `s` (its lock held). Returns
  // queues whose waiters should be notified / alerts to fire.
  void ApplyMicroOp(Shard* s, const MicroOp& op,
                    std::vector<std::string>* notify_queues);
  // FailedPrecondition when `ops` carry store redo and none is hosted.
  Status CheckRedoHosted(const std::vector<MicroOp>& ops) const;
  // Serialization.
  static void EncodeMicroOp(const MicroOp& op, std::string* out);
  static Status DecodeMicroOp(Slice* input, MicroOp* op);
  // A record: [type][txn id][eid watermark][op count][ops]. The WAL,
  // checkpoint slices and replication all carry this one format.
  struct Record {
    unsigned char type = 0;
    txn::TxnId id = txn::kInvalidTxnId;
    uint64_t eid_watermark = 0;
    std::vector<MicroOp> ops;
  };
  void EncodeRecord(unsigned char type, txn::TxnId id,
                    const std::vector<MicroOp>& ops, std::string* out) const;
  // One record of several op lists in order (a cross-shard decision).
  void EncodeRecordParts(unsigned char type, txn::TxnId id,
                         std::span<const std::vector<MicroOp>* const> parts,
                         std::string* out) const;
  static Status DecodeRecord(Slice input, Record* out);
  // Logs and applies an auto-committed op list, routing it to
  // CommitOnShard or, when it spans shards, CommitAcross. `record`
  // may carry pre-encoded bytes for a single-shard commit to log
  // verbatim (replicated records); empty means encode from `ops`.
  // Takes shard locks itself.
  Status AutoCommit(std::vector<MicroOp> ops, std::string record = "",
                    bool evaluate_reactions = true);
  // A commit staged under one shard lock, handed off to FinishCommit
  // once the lock is released: the WAL writer + offset to sync, the
  // record bytes for the replication sink, the queues to notify, and
  // the reserved replication tickets.
  struct CommitHandoff {
    bool log = false;
    std::shared_ptr<wal::LogWriter> wal;
    uint64_t end_offset = 0;
    std::string record;
    std::vector<std::string> notify;
    std::vector<ReplTicket> tickets;
  };
  // Single-shard auto-commit; `record` as in AutoCommit.
  Status CommitOnShard(Shard* s, std::vector<MicroOp> ops,
                       std::string record, bool evaluate_reactions);
  // First half of every single-shard commit, run under the shard lock
  // (REQUIRES(s->mu) on the definition): appends the record, applies
  // the ops, reserves the replication ticket. `record` as in
  // AutoCommit, a 2PC commit marker, which logs no ops, or a
  // cross-shard decision. The record is logged when the ops need it, or
  // always with `must_log` (a decision whose other parts need it). The
  // caller
  // releases the lock and passes `out` to FinishCommit. On error
  // nothing was applied and `out` needs no cleanup. The dequeue, kill,
  // transaction-commit and abort paths call this directly so
  // decide-and-commit stays atomic under the lock.
  Status StageCommitLocked(Shard* s, const std::vector<MicroOp>& ops,
                           std::string record, CommitHandoff* out,
                           bool must_log = false);
  // Second half: syncs the WAL, wakes waiters, delivers replication in
  // ticket order, fires reactions. Call with no shard locks held.
  Status FinishCommit(CommitHandoff h, bool evaluate_reactions);
  // FinishCommit's sync, for a caller that must know whether the
  // commit failed before it woke anyone: after a failure it consumed
  // the replication tickets, and `h` must not be finished.
  Status SyncCommit(CommitHandoff* h);
  // The shards holding pending state for `id`, ascending.
  std::vector<Shard*> InvolvedShards(txn::TxnId id);
  // Moves the hosted store's write set for `id`, if any, into the last
  // of `involved` as a stamped kRedo op (adding a shard when the
  // transaction touched no queue).
  void AttachRedo(txn::TxnId id, std::vector<Shard*>* involved);
  // The one commit of a pending transaction `id` over `involved`
  // (ascending, non-empty; the last is the coordinator), with one
  // force: under every involved lock the coordinator logs one committed
  // record carrying the id and every part, the decision, and syncs it;
  // then each other shard logs an unsynced commit marker and applies
  // its part. The decision is also the one replicated record. Recovery
  // commits every part iff the decision survived. On a failure before
  // the decision every part is aborted.
  Status CommitAcross(txn::TxnId id, std::vector<Shard*> involved,
                      bool evaluate_reactions);
  // Buffers ops under txn `t` and enlists the repository with the
  // transaction. Takes shard locks itself.
  void BufferTxnOps(txn::Transaction* t, std::vector<MicroOp> ops,
                    std::vector<LockedRef> locked);
  // Core dequeue machinery shared by all dequeue flavors.
  Result<Element> DequeueInternal(txn::Transaction* t,
                                  const std::string& queue,
                                  const Selector* selector,
                                  const std::string& registrant,
                                  const Slice& tag, uint64_t timeout_micros);
  // Picks the next visible element. Requires the owning shard's lock.
  // Returns nullptr when none; sets *head_locked when strict-FIFO
  // found a locked head.
  InternalElement* PickVisible(QueueState* qs, const Selector* selector,
                               bool* head_locked);
  // Wakes blocked dequeuers on the named queues (groups by shard; call
  // without shard locks).
  void NotifyWaiters(const std::vector<std::string>& notify_queues);
  // Fires alerts & triggers for the named queues (replicated applies
  // don't — the primary's reactions arrive as ordinary records). Call
  // without shard locks, after the commit's replication delivery, so a
  // trigger's own replication can't overtake the record that fired it.
  void EvaluateReactions(const std::vector<std::string>& notify_queues);
  // Reserves the next delivery slot on `s` (its lock must be held, so
  // ticket order == apply order). A thread holding undelivered tickets
  // must not take a shard lock again: CaptureReplicaSnapshot waits for
  // every ticket while it holds all of them.
  ReplTicket AcquireReplTicket(Shard* s);
  // The delivery slot on `s` that every commit staged so far precedes
  // (0 without a sink). A read that hands committed state to a caller
  // without a record of its own waits on it (AwaitReplDelivery, without
  // shard locks), so the state it returns never outruns its record.
  uint64_t ReplBarrierLocked(Shard* s);
  void AwaitReplDelivery(Shard* s, uint64_t barrier);
  // Delivers one record to the sink in ticket order (waits for earlier
  // tickets on every involved shard, calls the sink, releases the
  // slots). Call without shard locks. Consumes the tickets even when
  // `record` is empty or the sink fails.
  Status DeliverReplica(const std::vector<ReplTicket>& tickets,
                        const std::string& record);
  MicroOp MakeLastOpMicro(const std::string& queue,
                          const std::string& registrant, OpType type,
                          const Slice& tag, const Element& meta,
                          std::shared_ptr<const std::string> payload) const;
  void BuildShards(size_t count);
  Status OpenShardWal(Shard* s, uint64_t generation);
  // Appends a shard's state as committed records. A replica seed
  // carries volatile queues' elements and the decided parts that a
  // cross-shard commit has yet to apply; a checkpoint leaves both out
  // and adds the applied replication watermark.
  void EncodeShardState(const Shard& s, bool checkpoint,
                        std::vector<std::string>* records) const;
  // Appends the hosted store's state as committed stamp-0 kRedo
  // records (nothing without a store). Call under every shard lock.
  void EncodeStoreState(std::vector<std::string>* records) const;
  Status LoadShardCheckpoint(Shard* s, uint64_t generation);
  // Recovery pass 1: files every other shard's part of each decision in
  // shard `shard`'s WAL under (*parts)[that shard].
  Status ReadDecidedParts(size_t shard, uint64_t generation,
                          std::vector<DecidedParts>* parts) const;
  // Pass 2: loads the shard's checkpoint slice, then replays its WAL,
  // applying each of `rec->decided` at its marker, or after the WAL in
  // decision order when the marker was lost.
  Status RecoverShard(Shard* s, uint64_t generation, ShardRecovery* rec);
  std::string WalPath(uint64_t g, size_t shard) const;
  std::string CheckpointPath(uint64_t g, size_t shard) const;
  std::string CurrentPath() const;
  // Removes a retired/orphaned file, logging and counting failures.
  void RemoveRetiredFile(const std::string& path);
  // Lifts the eid counter to at least `floor` (replicated records,
  // recovery watermarks).
  void AdvanceEid(uint64_t floor);

  const std::string name_;
  RepositoryOptions options_;
  bool opened_ = false;
  // Set by HostStore() before Open(), then immutable.
  txn::HostedStore* store_ = nullptr;

  // The shards. Sized by the constructor from options_.shards and
  // re-sized by Open() when a durable directory's on-disk count
  // differs; immutable afterwards, so lock-free to index.
  std::vector<std::unique_ptr<Shard>> shards_;

  // Atomic so commit records can be encoded outside shard locks (a
  // record's eid watermark only has to cover the eids of its own ops,
  // which are always allocated before the record is encoded) and so
  // eids stay unique across shards without a shared lock.
  std::atomic<uint64_t> next_eid_{1};
  // Serializes Checkpoint() and guards generation_ (Open() holds it
  // for its whole durable path, so recovery reads are covered too).
  // Lock order: checkpoint_mu_ before any Shard::mu.
  Mutex checkpoint_mu_;
  uint64_t generation_ GUARDED_BY(checkpoint_mu_) = 0;

  // Highest replication sequence applied (see applied_repl_seq()).
  // Advanced by ApplyMicroOp(kSetReplWatermark) with a CAS-max, read
  // lock-free for dedup.
  std::atomic<uint64_t> applied_repl_seq_{0};

  std::atomic<uint64_t> enqueues_{0};
  std::atomic<uint64_t> dequeues_{0};
  std::atomic<uint64_t> error_moves_{0};
  std::atomic<uint64_t> replication_failures_{0};
  std::atomic<uint64_t> remove_failures_{0};
  std::atomic<uint64_t> gc_removed_{0};
};

}  // namespace rrq::queue

#endif  // RRQ_QUEUE_QUEUE_REPOSITORY_H_
