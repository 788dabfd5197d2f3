#include "queue/queue_repository.h"

#include <algorithm>
#include <chrono>
#include <iterator>
#include <thread>
#include <unordered_set>

#include "env/gc.h"
#include "util/coding.h"
#include "util/logging.h"
#include "wal/log_reader.h"

namespace rrq::queue {

namespace {

// WAL record types (same pattern as the KV store).
constexpr unsigned char kRecPrepare = 1;
constexpr unsigned char kRecCommit = 2;
constexpr unsigned char kRecCommitted = 3;  // Fused auto-commit / 1PC.

constexpr int kMaxRedirectHops = 4;

// Internal cross-shard auto-commits (redirected tagged enqueues,
// cross-shard error-queue moves, replicated records spanning shards)
// run the cross-shard commit protocol under an id drawn from the eid
// counter with this bit set. The bit keeps internal ids out of the
// TransactionManager id space (epoch << 48 | counter never reaches bit
// 63 until epoch 0x8000) so recovery never consults the in-doubt
// resolver for them: an internal prepare without a commit record on
// any shard is always a presumed abort.
constexpr txn::TxnId kInternalTxnBit = txn::TxnId{1} << 63;

size_t ResolveShardCount(unsigned requested) {
  if (requested > 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

// Persistent formats store enums as raw bytes; a corrupted or torn
// byte must surface as Corruption at decode time, never as an
// out-of-range enum value that downstream switches silently ignore.
Status DecodeOpType(uint8_t raw, OpType* out) {
  if (raw > static_cast<uint8_t>(OpType::kDequeue)) {
    return Status::Corruption("invalid registration op type " +
                              std::to_string(raw));
  }
  *out = static_cast<OpType>(raw);
  return Status::OK();
}

Status DecodeDequeuePolicy(uint8_t raw, DequeuePolicy* out) {
  if (raw > static_cast<uint8_t>(DequeuePolicy::kStrictFifo)) {
    return Status::Corruption("invalid dequeue policy " + std::to_string(raw));
  }
  *out = static_cast<DequeuePolicy>(raw);
  return Status::OK();
}

// Element wire encoding (the inverse of DecodeElement): the metadata,
// then the contents from the shared payload.
void EncodeElementParts(const Element& meta,
                        const std::shared_ptr<const std::string>& payload,
                        std::string* out) {
  util::PutFixed64(out, meta.eid);
  util::PutVarint32(out, meta.priority);
  util::PutVarint32(out, meta.abort_count);
  util::PutLengthPrefixed(out, meta.abort_code);
  util::PutLengthPrefixed(out, *payload);
}

Status DecodeElement(Slice* input, Element* meta,
                     std::shared_ptr<const std::string>* payload) {
  RRQ_RETURN_IF_ERROR(util::GetFixed64(input, &meta->eid));
  RRQ_RETURN_IF_ERROR(util::GetVarint32(input, &meta->priority));
  RRQ_RETURN_IF_ERROR(util::GetVarint32(input, &meta->abort_count));
  RRQ_RETURN_IF_ERROR(util::GetLengthPrefixedString(input, &meta->abort_code));
  std::string contents;
  RRQ_RETURN_IF_ERROR(util::GetLengthPrefixedString(input, &contents));
  *payload = std::make_shared<const std::string>(std::move(contents));
  return Status::OK();
}

void EncodeQueueOptions(const QueueOptions& o, std::string* out) {
  util::PutVarint32(out, o.max_aborts);
  util::PutLengthPrefixed(out, o.error_queue);
  out->push_back(o.durable ? 1 : 0);
  out->push_back(static_cast<char>(o.policy));
  util::PutVarint64(out, o.alert_threshold);
  util::PutLengthPrefixed(out, o.redirect_to);
}

Status DecodeQueueOptions(Slice* input, QueueOptions* o) {
  RRQ_RETURN_IF_ERROR(util::GetVarint32(input, &o->max_aborts));
  RRQ_RETURN_IF_ERROR(util::GetLengthPrefixedString(input, &o->error_queue));
  if (input->size() < 2) return Status::Corruption("truncated queue options");
  o->durable = (*input)[0] != 0;
  RRQ_RETURN_IF_ERROR(
      DecodeDequeuePolicy(static_cast<uint8_t>((*input)[1]), &o->policy));
  input->remove_prefix(2);
  uint64_t threshold = 0;
  RRQ_RETURN_IF_ERROR(util::GetVarint64(input, &threshold));
  o->alert_threshold = static_cast<size_t>(threshold);
  RRQ_RETURN_IF_ERROR(util::GetLengthPrefixedString(input, &o->redirect_to));
  return Status::OK();
}

void EncodeTrigger(const TriggerSpec& t, std::string* out) {
  util::PutLengthPrefixed(out, t.watched_queue);
  util::PutVarint64(out, t.remaining);
  util::PutLengthPrefixed(out, t.target_queue);
  util::PutLengthPrefixed(out, t.contents);
  util::PutVarint32(out, t.priority);
}

Status DecodeTrigger(Slice* input, TriggerSpec* t) {
  RRQ_RETURN_IF_ERROR(util::GetLengthPrefixedString(input, &t->watched_queue));
  RRQ_RETURN_IF_ERROR(util::GetVarint64(input, &t->remaining));
  RRQ_RETURN_IF_ERROR(util::GetLengthPrefixedString(input, &t->target_queue));
  RRQ_RETURN_IF_ERROR(util::GetLengthPrefixedString(input, &t->contents));
  RRQ_RETURN_IF_ERROR(util::GetVarint32(input, &t->priority));
  return Status::OK();
}

// Holds a dynamic set of shard mutexes for a lexical scope, locking in
// the order given (callers pass ascending shard order — the cross-shard
// protocol's lock order). A dynamic lock set is invisible to thread
// safety analysis, so acquisition/release here is unannotated and every
// function that uses one is NO_THREAD_SAFETY_ANALYSIS.
class ShardLockSet {
 public:
  ShardLockSet() = default;
  ShardLockSet(const ShardLockSet&) = delete;
  ShardLockSet& operator=(const ShardLockSet&) = delete;
  ~ShardLockSet() NO_THREAD_SAFETY_ANALYSIS {
    for (Mutex* mu : mus_) mu->Unlock();
  }

  void Add(Mutex* mu) NO_THREAD_SAFETY_ANALYSIS {
    mu->Lock();
    mus_.push_back(mu);
  }

 private:
  std::vector<Mutex*> mus_;
};

}  // namespace

// ---------------------------------------------------------------------------
// Shard

// One shard of the repository: a slice of the queue namespace with its
// own lock, WAL stream (and therefore its own group-commit leader),
// pending-transaction table, and triggers. Transactions enlist the
// repository, not its shards: the facade runs the cross-shard commit
// (CommitAcross) and fans an outside coordinator's 2PC out to the
// shards' Prepare/CommitTxn/AbortTxn.
struct QueueRepository::Shard {
  Shard(QueueRepository* repo, size_t index) : repo(repo), index(index) {}

  QueueRepository* const repo;
  const size_t index;

  // Lock order across shards: ascending shard index (CommitAcross,
  // Checkpoint). repl_mu nests inside mu (AcquireReplTicket) and is
  // never held while taking mu.
  mutable Mutex mu;
  std::map<std::string, std::unique_ptr<QueueState>> queues GUARDED_BY(mu);
  std::unordered_map<txn::TxnId, PendingTxn> txns GUARDED_BY(mu);
  std::vector<TriggerSpec> triggers GUARDED_BY(mu);
  uint64_t next_seq GUARDED_BY(mu) = 1;
  // shared_ptr so a committer can keep syncing the writer it appended
  // to after releasing `mu`, even if a concurrent Checkpoint() swaps
  // in the next generation's writer meanwhile.
  std::shared_ptr<wal::LogWriter> wal GUARDED_BY(mu);

  // Replication delivery slots: tickets are taken under `mu` at apply
  // time and the sink is called in ticket order, so a backup sees this
  // shard's records in exactly the order they applied here.
  Mutex repl_mu ACQUIRED_AFTER(mu);
  CondVar repl_cv;
  uint64_t repl_next GUARDED_BY(repl_mu) = 0;
  uint64_t repl_done GUARDED_BY(repl_mu) = 0;

  QueueState* Find(const std::string& queue) REQUIRES(mu) {
    auto it = queues.find(queue);
    return it == queues.end() ? nullptr : it->second.get();
  }
  const QueueState* Find(const std::string& queue) const REQUIRES(mu) {
    auto it = queues.find(queue);
    return it == queues.end() ? nullptr : it->second.get();
  }

  // Whether any micro-op touches a durable queue (or repo metadata).
  bool NeedsLogging(const std::vector<MicroOp>& ops) const REQUIRES(mu) {
    return wal != nullptr && Durable(ops);
  }
  bool Durable(const std::vector<MicroOp>& ops) const REQUIRES(mu) {
    for (const MicroOp& op : ops) {
      switch (op.kind) {
        case MicroOp::kInsert:
        case MicroOp::kRemove:
        case MicroOp::kBumpAbortCount: {
          const QueueState* qs = Find(op.queue);
          if (qs == nullptr || qs->options.durable) return true;
          break;  // Element traffic on a volatile queue: no logging.
        }
        default:
          return true;  // Metadata, registrations, tags: always durable.
      }
    }
    return false;
  }

  bool HasTxn(txn::TxnId id) const EXCLUDES(mu) {
    MutexLock guard(mu);
    return txns.count(id) > 0;
  }

  // §7: a transaction must not commit a dequeue whose element was
  // killed (or whose queue was destroyed) under it. Kill reservations
  // made by the transaction itself don't veto.
  Status VetoKilled(const PendingTxn& pt) const REQUIRES(mu) {
    for (const LockedRef& ref : pt.locked) {
      if (ref.is_kill) continue;
      const QueueState* qs = Find(ref.queue);
      if (qs == nullptr) return Status::Cancelled("queue destroyed: " + ref.queue);
      auto eit = qs->elements.find(ref.eid);
      if (eit == qs->elements.end() || eit->second.killed) {
        return Status::Cancelled("element killed: " + std::to_string(ref.eid));
      }
    }
    return Status::OK();
  }

  // Unlocks the elements `pt` still holds for `id` once its ops
  // applied (its kRemove ops already deleted the dequeued ones).
  void ReleaseLocked(txn::TxnId id, const PendingTxn& pt) REQUIRES(mu);

  // This shard's part of an outside coordinator's two-phase commit
  // (bodies below, after the repo helpers). Prepare is the one vote: it
  // logs the part as a durable prepare record.
  Status Prepare(txn::TxnId id);
  Status CommitTxn(txn::TxnId id);
  void AbortTxn(txn::TxnId id);
};

// Per-shard recovery scratch: this shard's parts of the cross-shard
// commits that another shard's record decided (filled by the first
// recovery pass), leftover prepared transactions in WAL order, and
// every commit-record id seen (merged across shards to resolve an
// outside coordinator's prepares).
struct QueueRepository::ShardRecovery {
  DecidedParts decided;
  std::vector<txn::TxnId> prepared_order;
  std::unordered_map<txn::TxnId, std::vector<MicroOp>> prepared;
  std::unordered_set<txn::TxnId> committed;
};

QueueRepository::QueueRepository(std::string name, RepositoryOptions options)
    : name_(std::move(name)), options_(std::move(options)) {
  BuildShards(ResolveShardCount(options_.shards));
}

QueueRepository::~QueueRepository() = default;

void QueueRepository::BuildShards(size_t count) {
  if (count == 0) count = 1;
  shards_.clear();
  shards_.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    shards_.push_back(std::make_unique<Shard>(this, i));
  }
}

size_t QueueRepository::ShardIndexOf(const std::string& queue) const {
  if (shards_.size() <= 1) return 0;
  // FNV-1a with a nonstandard seed: stable across processes and
  // standard libraries, so a queue recovers onto the same shard (and the
  // same WAL stream) that logged it. std::hash carries no such
  // guarantee. The seed is the 64-bit FNV offset basis
  // 14695981039346656037 with its last digit dropped. It stays: every
  // sharded directory on disk was laid out by it, and
  // queue_repository_test pins the resulting placement.
  uint64_t h = 1469598103934665603ull;
  for (const char c : queue) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h % shards_.size();
}

QueueRepository::Shard* QueueRepository::ShardFor(const std::string& queue) {
  return shards_[ShardIndexOf(queue)].get();
}

const QueueRepository::Shard* QueueRepository::ShardFor(
    const std::string& queue) const {
  return shards_[ShardIndexOf(queue)].get();
}

std::string QueueRepository::WalPath(uint64_t g, size_t shard) const {
  std::string path = options_.dir + "/WAL-" + std::to_string(g);
  // Single-shard repositories keep the pre-sharding file names, so
  // their directories stay byte-compatible in both directions.
  if (shards_.size() > 1) path += "-" + std::to_string(shard);
  return path;
}
std::string QueueRepository::CheckpointPath(uint64_t g, size_t shard) const {
  std::string path = options_.dir + "/CHECKPOINT-" + std::to_string(g);
  if (shards_.size() > 1) path += "-" + std::to_string(shard);
  return path;
}
std::string QueueRepository::CurrentPath() const {
  return options_.dir + "/CURRENT";
}

// ---------------------------------------------------------------------------
// Micro-op serialization

void QueueRepository::EncodeMicroOp(const MicroOp& op, std::string* out) {
  out->push_back(static_cast<char>(op.kind));
  util::PutLengthPrefixed(out, op.queue);
  switch (op.kind) {
    case MicroOp::kCreateQueue:
      EncodeQueueOptions(op.qoptions, out);
      break;
    case MicroOp::kDestroyQueue:
    case MicroOp::kStartQueue:
    case MicroOp::kStopQueue:
      break;
    case MicroOp::kRegister:
      util::PutLengthPrefixed(out, op.registrant);
      out->push_back(op.stable ? 1 : 0);
      break;
    case MicroOp::kDeregister:
      util::PutLengthPrefixed(out, op.registrant);
      break;
    case MicroOp::kInsert:
      EncodeElementParts(op.element, op.payload, out);
      break;
    case MicroOp::kRemove:
    case MicroOp::kBumpAbortCount:
    case MicroOp::kSetReplWatermark:
      util::PutFixed64(out, op.element.eid);
      break;
    case MicroOp::kSetLastOp:
      util::PutLengthPrefixed(out, op.registrant);
      out->push_back(static_cast<char>(op.op_type));
      util::PutLengthPrefixed(out, op.tag);
      EncodeElementParts(op.element, op.payload, out);
      break;
    case MicroOp::kSetTrigger:
      EncodeTrigger(op.trigger, out);
      break;
    case MicroOp::kClearTrigger:
      EncodeTrigger(op.trigger, out);
      break;
    case MicroOp::kRedo:
      util::PutFixed64(out, op.element.eid);
      util::PutLengthPrefixed(out, *op.payload);
      break;
  }
}

Status QueueRepository::DecodeMicroOp(Slice* input, MicroOp* op) {
  if (input->empty()) return Status::Corruption("truncated micro-op");
  op->kind = static_cast<MicroOp::Kind>((*input)[0]);
  input->remove_prefix(1);
  RRQ_RETURN_IF_ERROR(util::GetLengthPrefixedString(input, &op->queue));
  switch (op->kind) {
    case MicroOp::kCreateQueue:
      return DecodeQueueOptions(input, &op->qoptions);
    case MicroOp::kDestroyQueue:
    case MicroOp::kStartQueue:
    case MicroOp::kStopQueue:
      return Status::OK();
    case MicroOp::kRegister: {
      RRQ_RETURN_IF_ERROR(util::GetLengthPrefixedString(input, &op->registrant));
      if (input->empty()) return Status::Corruption("truncated register op");
      op->stable = (*input)[0] != 0;
      input->remove_prefix(1);
      return Status::OK();
    }
    case MicroOp::kDeregister:
      return util::GetLengthPrefixedString(input, &op->registrant);
    case MicroOp::kInsert:
      return DecodeElement(input, &op->element, &op->payload);
    case MicroOp::kRemove:
    case MicroOp::kBumpAbortCount:
    case MicroOp::kSetReplWatermark:
      return util::GetFixed64(input, &op->element.eid);
    case MicroOp::kSetLastOp: {
      RRQ_RETURN_IF_ERROR(util::GetLengthPrefixedString(input, &op->registrant));
      if (input->empty()) return Status::Corruption("truncated last-op");
      RRQ_RETURN_IF_ERROR(
          DecodeOpType(static_cast<uint8_t>((*input)[0]), &op->op_type));
      input->remove_prefix(1);
      RRQ_RETURN_IF_ERROR(util::GetLengthPrefixedString(input, &op->tag));
      return DecodeElement(input, &op->element, &op->payload);
    }
    case MicroOp::kSetTrigger:
    case MicroOp::kClearTrigger:
      return DecodeTrigger(input, &op->trigger);
    case MicroOp::kRedo: {
      RRQ_RETURN_IF_ERROR(util::GetFixed64(input, &op->element.eid));
      std::string redo;
      RRQ_RETURN_IF_ERROR(util::GetLengthPrefixedString(input, &redo));
      op->payload = std::make_shared<const std::string>(std::move(redo));
      return Status::OK();
    }
  }
  return Status::Corruption("unknown micro-op kind");
}

void QueueRepository::EncodeRecord(unsigned char type, txn::TxnId id,
                                   const std::vector<MicroOp>& ops,
                                   std::string* out) const {
  const std::vector<MicroOp>* parts[] = {&ops};
  EncodeRecordParts(type, id, parts, out);
}

void QueueRepository::EncodeRecordParts(
    unsigned char type, txn::TxnId id,
    std::span<const std::vector<MicroOp>* const> parts,
    std::string* out) const {
  out->push_back(static_cast<char>(type));
  util::PutFixed64(out, id);
  util::PutFixed64(out, next_eid_.load(std::memory_order_relaxed));
  size_t count = 0;
  for (const std::vector<MicroOp>* ops : parts) count += ops->size();
  util::PutVarint64(out, count);
  for (const std::vector<MicroOp>* ops : parts) {
    for (const MicroOp& op : *ops) EncodeMicroOp(op, out);
  }
}

Status QueueRepository::DecodeRecord(Slice input, Record* out) {
  if (input.empty()) return Status::Corruption("empty record");
  out->type = static_cast<unsigned char>(input[0]);
  input.remove_prefix(1);
  RRQ_RETURN_IF_ERROR(util::GetFixed64(&input, &out->id));
  RRQ_RETURN_IF_ERROR(util::GetFixed64(&input, &out->eid_watermark));
  uint64_t op_count = 0;
  RRQ_RETURN_IF_ERROR(util::GetVarint64(&input, &op_count));
  out->ops.clear();
  // Every op takes at least one byte, so a corrupt count cannot make
  // the reservation outgrow the input.
  out->ops.reserve(static_cast<size_t>(std::min<uint64_t>(op_count, input.size())));
  for (uint64_t i = 0; i < op_count; ++i) {
    MicroOp op;
    RRQ_RETURN_IF_ERROR(DecodeMicroOp(&input, &op));
    out->ops.push_back(std::move(op));
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// State access helpers

std::string QueueRepository::ResolveRedirect(const std::string& queue) const {
  std::string current = queue;
  for (int hop = 0; hop < kMaxRedirectHops; ++hop) {
    const Shard* s = ShardFor(current);
    std::string next;
    {
      MutexLock guard(s->mu);
      const QueueState* qs = s->Find(current);
      if (qs == nullptr || qs->options.redirect_to.empty()) return current;
      next = qs->options.redirect_to;  // Immutable after creation.
    }
    current = std::move(next);
  }
  return current;
}

void QueueRepository::AdvanceEid(uint64_t floor) {
  uint64_t cur = next_eid_.load(std::memory_order_relaxed);
  while (floor > cur &&
         !next_eid_.compare_exchange_weak(cur, floor,
                                          std::memory_order_relaxed)) {
  }
}

// ---------------------------------------------------------------------------
// Applying committed micro-ops

void QueueRepository::ApplyMicroOp(Shard* s, const MicroOp& op,
                                   std::vector<std::string>* notify_queues)
    REQUIRES(s->mu) {
  switch (op.kind) {
    case MicroOp::kCreateQueue: {
      if (s->queues.count(op.queue) == 0) {
        auto qs = std::make_unique<QueueState>();
        qs->options = op.qoptions;
        s->queues[op.queue] = std::move(qs);
      }
      break;
    }
    case MicroOp::kDestroyQueue:
      s->queues.erase(op.queue);
      break;
    case MicroOp::kStartQueue: {
      QueueState* qs = s->Find(op.queue);
      if (qs != nullptr) qs->started = true;
      break;
    }
    case MicroOp::kStopQueue: {
      QueueState* qs = s->Find(op.queue);
      if (qs != nullptr) qs->started = false;
      break;
    }
    case MicroOp::kRegister: {
      QueueState* qs = s->Find(op.queue);
      if (qs != nullptr) {
        auto& reg = qs->registrations[op.registrant];  // Keeps existing last-op.
        reg.stable = op.stable;
      }
      break;
    }
    case MicroOp::kDeregister: {
      QueueState* qs = s->Find(op.queue);
      if (qs != nullptr) qs->registrations.erase(op.registrant);
      break;
    }
    case MicroOp::kInsert: {
      QueueState* qs = s->Find(op.queue);
      if (qs == nullptr) break;
      InternalElement ie;
      ie.meta = op.element;
      ie.payload = op.payload;
      ie.seq = s->next_seq++;
      const ElementId eid = ie.meta.eid;
      const uint32_t inv_priority = ~ie.meta.priority;
      qs->order[{inv_priority, ie.seq}] = eid;
      qs->elements[eid] = std::move(ie);
      if (notify_queues != nullptr) notify_queues->push_back(op.queue);
      break;
    }
    case MicroOp::kRemove: {
      QueueState* qs = s->Find(op.queue);
      if (qs == nullptr) break;
      auto it = qs->elements.find(op.element.eid);
      if (it != qs->elements.end()) {
        qs->order.erase({~it->second.meta.priority, it->second.seq});
        qs->elements.erase(it);
        // Strict-FIFO waiters blocked on a locked head must re-examine
        // the new head.
        if (notify_queues != nullptr) notify_queues->push_back(op.queue);
      }
      break;
    }
    case MicroOp::kBumpAbortCount: {
      QueueState* qs = s->Find(op.queue);
      if (qs == nullptr) break;
      auto it = qs->elements.find(op.element.eid);
      if (it != qs->elements.end()) {
        ++it->second.meta.abort_count;
        if (notify_queues != nullptr) notify_queues->push_back(op.queue);
      }
      break;
    }
    case MicroOp::kSetLastOp: {
      QueueState* qs = s->Find(op.queue);
      if (qs == nullptr) break;
      auto it = qs->registrations.find(op.registrant);
      if (it != qs->registrations.end() && it->second.stable) {
        it->second.last.type = op.op_type;
        it->second.last.eid = op.element.eid;
        it->second.last.tag = op.tag;
        it->second.last.meta = op.element;
        it->second.last.payload = op.payload;
      }
      break;
    }
    case MicroOp::kSetTrigger:
      s->triggers.push_back(op.trigger);
      break;
    case MicroOp::kSetReplWatermark: {
      uint64_t cur = applied_repl_seq_.load(std::memory_order_relaxed);
      while (op.element.eid > cur &&
             !applied_repl_seq_.compare_exchange_weak(
                 cur, op.element.eid, std::memory_order_release)) {
      }
      break;
    }
    case MicroOp::kClearTrigger: {
      auto it = std::find_if(s->triggers.begin(), s->triggers.end(),
                             [&op](const TriggerSpec& t) {
                               return t.watched_queue == op.trigger.watched_queue &&
                                      t.target_queue == op.trigger.target_queue;
                             });
      if (it != s->triggers.end()) s->triggers.erase(it);
      break;
    }
    case MicroOp::kRedo: {
      // Recovery and replication refuse redo when no store is hosted.
      if (store_ == nullptr) break;
      Status st = store_->ApplyRedo(op.element.eid, *op.payload);
      if (!st.ok()) {
        RRQ_LOG(kError) << name_ << ": hosted store redo failed: "
                        << st.ToString();
      }
      break;
    }
  }
}

Status QueueRepository::CheckRedoHosted(const std::vector<MicroOp>& ops) const {
  if (store_ != nullptr) return Status::OK();
  for (const MicroOp& op : ops) {
    if (op.kind == MicroOp::kRedo) {
      return Status::FailedPrecondition(
          name_ + ": log carries database redo but no store is hosted");
    }
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Commit plumbing

QueueRepository::ReplTicket QueueRepository::AcquireReplTicket(Shard* s)
    REQUIRES(s->mu) {
  MutexLock guard(s->repl_mu);
  return ReplTicket{s, s->repl_next++};
}

uint64_t QueueRepository::ReplBarrierLocked(Shard* s) REQUIRES(s->mu) {
  if (options_.replication_sink == nullptr) return 0;
  MutexLock guard(s->repl_mu);
  return s->repl_next;
}

void QueueRepository::AwaitReplDelivery(Shard* s, uint64_t barrier) {
  if (options_.replication_sink == nullptr) return;
  MutexLock guard(s->repl_mu);
  while (s->repl_done < barrier) s->repl_cv.Wait(s->repl_mu);
}

Status QueueRepository::DeliverReplica(const std::vector<ReplTicket>& tickets,
                                       const std::string& record) {
  if (tickets.empty()) return Status::OK();
  // Wait for every earlier slot on every involved shard. Tickets for a
  // multi-shard record are taken while holding all its shard locks, so
  // any two deliveries sharing a shard have consistent relative order
  // on every shard they share — the ascending waits cannot cycle.
  for (const ReplTicket& t : tickets) {
    MutexLock lock(t.shard->repl_mu);
    while (t.shard->repl_done != t.ticket) {
      t.shard->repl_cv.Wait(t.shard->repl_mu);
    }
  }
  Status result = Status::OK();
  if (!record.empty()) {
    result = options_.replication_sink(record);
    if (!result.ok()) {
      replication_failures_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  for (const ReplTicket& t : tickets) {
    {
      MutexLock guard(t.shard->repl_mu);
      ++t.shard->repl_done;
    }
    t.shard->repl_cv.SignalAll();
  }
  return result;
}

void QueueRepository::NotifyWaiters(
    const std::vector<std::string>& notify_queues) {
  for (const std::string& q : notify_queues) {
    Shard* s = ShardFor(q);
    MutexLock guard(s->mu);
    QueueState* qs = s->Find(q);
    if (qs != nullptr) qs->cv.SignalAll();
  }
}

void QueueRepository::EvaluateReactions(
    const std::vector<std::string>& notify_queues) {
  if (notify_queues.empty()) return;
  // Alerts and triggers are evaluated against committed depth, outside
  // the shard locks (they re-enter the public API).
  std::vector<std::pair<std::string, size_t>> alerts;
  std::vector<TriggerSpec> fired;
  for (const std::string& q : notify_queues) {
    Shard* s = ShardFor(q);
    MutexLock guard(s->mu);
    QueueState* qs = s->Find(q);
    if (qs == nullptr) continue;
    // Depth is O(queue) to compute; only pay for it when an alert or
    // trigger actually watches this queue.
    const bool has_alert = qs->options.alert_threshold != 0;
    bool has_trigger = false;
    for (const TriggerSpec& t : s->triggers) {
      if (t.watched_queue == q) {
        has_trigger = true;
        break;
      }
    }
    if (!has_alert && !has_trigger) continue;
    size_t depth = 0;
    for (const auto& [key, eid] : qs->order) {
      const auto& ie = qs->elements.at(eid);
      if (ie.locked_by == txn::kInvalidTxnId && !ie.killed) ++depth;
    }
    if (has_alert && depth == qs->options.alert_threshold) {
      alerts.emplace_back(q, depth);
    }
    for (const TriggerSpec& t : s->triggers) {
      if (t.watched_queue == q && depth >= t.remaining) {
        fired.push_back(t);
      }
    }
  }
  for (const auto& [q, depth] : alerts) {
    if (options_.alert_callback) options_.alert_callback(q, depth);
  }
  for (const TriggerSpec& t : fired) {
    // Clear first (durably), then fire — a crash in between loses the
    // join request, which the installer can re-arm; firing twice would
    // violate exactly-once.
    MicroOp clear;
    clear.kind = MicroOp::kClearTrigger;
    clear.queue = t.watched_queue;
    clear.trigger = t;
    Status s = AutoCommit({clear});
    if (s.ok()) {
      Enqueue(nullptr, t.target_queue, t.contents, t.priority);
    }
  }
}

Status QueueRepository::StageCommitLocked(Shard* s,
                                          const std::vector<MicroOp>& ops,
                                          std::string record,
                                          CommitHandoff* out, bool must_log)
    REQUIRES(s->mu) {
  const bool replicate = options_.replication_sink != nullptr && !ops.empty();
  out->log = must_log ? s->wal != nullptr : s->NeedsLogging(ops);
  if (record.empty() && (out->log || replicate)) {
    EncodeRecord(kRecCommitted, txn::kInvalidTxnId, ops, &record);
  }
  if (out->log) {
    out->wal = s->wal;
    RRQ_RETURN_IF_ERROR(out->wal->AddRecord(record, &out->end_offset));
  }
  for (const MicroOp& op : ops) ApplyMicroOp(s, op, &out->notify);
  if (replicate) {
    // A 2PC commit marker logs no ops; the sink needs them.
    if (static_cast<unsigned char>(record[0]) == kRecCommit) {
      record.clear();
      EncodeRecord(kRecCommitted, txn::kInvalidTxnId, ops, &record);
    }
    out->tickets.push_back(AcquireReplTicket(s));
  }
  out->record = std::move(record);
  return Status::OK();
}

Status QueueRepository::SyncCommit(CommitHandoff* h) {
  if (!h->log || !options_.sync_commits) return Status::OK();
  h->log = false;  // Synced once; FinishCommit does not sync again.
  Status sync = h->wal->SyncTo(h->end_offset);
  if (!sync.ok()) DeliverReplica(h->tickets, "");  // Consume the slot.
  return sync;
}

Status QueueRepository::FinishCommit(CommitHandoff h,
                                     bool evaluate_reactions) {
  RRQ_RETURN_IF_ERROR(SyncCommit(&h));
  // Replication delivery runs before waiter wakeup: under a sink that
  // blocks until the backup holds the record, a blocked dequeuer must
  // not be woken into the commit's effects early, or it could act on
  // state that a failover would lose. Note the scope: this gates
  // *wakeup*, not visibility — the effects were published when the
  // shard lock dropped after StageCommitLocked, so a polling
  // (timeout=0) Dequeue or Depth can observe them before the ack.
  // (The commit itself already stands locally either way — the sink's
  // verdict is surfaced to the committer.) rrqd's sink only appends
  // and gates each client reply on the backup's ack instead.
  // Without tickets (no sink, or no ops) nothing is sent.
  Status rs = DeliverReplica(h.tickets, h.record);
  NotifyWaiters(h.notify);
  // Reactions fire after the replication delivery so a trigger's own
  // record cannot overtake (or deadlock behind) the record that fired
  // it.
  if (evaluate_reactions) EvaluateReactions(h.notify);
  return rs;
}

Status QueueRepository::CommitOnShard(Shard* s, std::vector<MicroOp> ops,
                                      std::string record,
                                      bool evaluate_reactions) {
  CommitHandoff h;
  {
    MutexLock lock(s->mu);
    RRQ_RETURN_IF_ERROR(StageCommitLocked(s, ops, std::move(record), &h));
  }
  return FinishCommit(std::move(h), evaluate_reactions);
}

std::vector<QueueRepository::Shard*> QueueRepository::InvolvedShards(
    txn::TxnId id) {
  std::vector<Shard*> involved;
  for (auto& s : shards_) {
    if (s->HasTxn(id)) involved.push_back(s.get());
  }
  return involved;
}

void QueueRepository::AttachRedo(txn::TxnId id,
                                 std::vector<Shard*>* involved) {
  if (store_ == nullptr) return;
  std::string redo = store_->TakeRedo(id);
  if (redo.empty()) return;
  MicroOp op;
  op.kind = MicroOp::kRedo;
  // Drawn while the transaction holds its store locks, so two writers
  // of one key get stamps in commit order.
  op.element.eid = next_eid_.fetch_add(1, std::memory_order_relaxed);
  op.payload = std::make_shared<const std::string>(std::move(redo));
  if (involved->empty()) involved->push_back(ShardFor(op.queue));
  Shard* coord = involved->back();
  MutexLock guard(coord->mu);
  PendingTxn& pt = coord->txns[id];
  // Route the op with the shard's own ops, here and on a backup.
  if (!pt.ops.empty()) op.queue = pt.ops.front().queue;
  pt.ops.push_back(std::move(op));
}

// The lock set here is dynamic (every involved shard's mu, ascending),
// which is beyond the static analysis — the per-shard invariants are
// still enforced inside the REQUIRES-annotated helpers this calls via
// the gcc/TSan builds, but this function body itself is unchecked.
Status QueueRepository::CommitAcross(txn::TxnId id,
                                     std::vector<Shard*> involved,
                                     bool evaluate_reactions)
    NO_THREAD_SAFETY_ANALYSIS {
  Shard* const coord = involved.back();
  const bool spanning = involved.size() > 1;

  // Phase 1, under every involved lock: every part passes its
  // killed-element veto; the coordinator logs the decision — one
  // committed record carrying the id and every part — and applies its
  // own part; every other part is marked decided (so a checkpoint
  // re-logs it as committed and a replica seed ships it); every shard
  // takes its replication ticket, so deliveries sharing shards stay
  // ordered. The decision is also the one replicated record.
  CommitHandoff h;
  Status staged;
  {
    ShardLockSet locks;
    for (Shard* s : involved) locks.Add(&s->mu);
    bool log = false;
    std::vector<const std::vector<MicroOp>*> parts;
    for (Shard* s : involved) {
      const PendingTxn& part = s->txns[id];
      staged = s->VetoKilled(part);
      if (!staged.ok()) break;
      log = log || s->NeedsLogging(part.ops);
      parts.push_back(&part.ops);
    }
    PendingTxn& pt = coord->txns[id];
    if (staged.ok()) {
      std::string decision;
      if (spanning && (log || options_.replication_sink != nullptr)) {
        // The decision stamp: drawing an eid under the locks makes the
        // record's eid watermark strictly greater than that of every
        // decision that held one of these locks before. Recovery
        // applies parts whose markers were lost in this order.
        next_eid_.fetch_add(1, std::memory_order_relaxed);
        EncodeRecordParts(kRecCommitted, id, parts, &decision);
      }
      staged = StageCommitLocked(coord, pt.ops, std::move(decision), &h, log);
    }
    if (staged.ok()) {
      for (Shard* s : involved) {
        if (s == coord) continue;
        s->txns[id].decided = true;
        if (options_.replication_sink != nullptr) {
          h.tickets.push_back(AcquireReplTicket(s));
        }
      }
      coord->ReleaseLocked(id, pt);
      coord->txns.erase(id);
    }
  }
  if (!staged.ok()) {
    for (Shard* s : involved) s->AbortTxn(id);
    return staged;
  }
  if (!spanning) return FinishCommit(std::move(h), evaluate_reactions);

  // The decision is durable before any marker exists: a durable marker
  // without it would commit one part alone.
  Status synced = SyncCommit(&h);
  if (!synced.ok()) {
    RRQ_LOG(kError) << name_ << ": cross-shard decision " << id
                    << " not durable, parts left decided: "
                    << synced.ToString();
    return synced;
  }
  // Deliver the one replicated record before phase 2 takes any shard
  // lock again: a replica seed holds every lock while it drains the
  // undelivered tickets, so holding them into phase 2 would deadlock
  // with it. A seed cut before phase 2 ships the decided parts itself
  // (EncodeShardState), so it still equals the records it precedes.
  Status replicated = DeliverReplica(h.tickets, h.record);
  h.tickets.clear();

  // Phase 2: each other shard logs an unsynced commit marker and
  // applies its part under the same lock, so its WAL holds the marker
  // before any record that depends on the part. Recovery applies the
  // part, read from the decision, at the marker.
  std::string marker;
  EncodeRecord(kRecCommit, id, {}, &marker);
  for (Shard* s : involved) {
    if (s == coord) continue;
    MutexLock lock(s->mu);
    auto it = s->txns.find(id);
    if (it == s->txns.end()) continue;
    PendingTxn part = std::move(it->second);
    s->txns.erase(it);
    if (s->NeedsLogging(part.ops)) {
      Status logged = s->wal->AddRecord(marker);
      if (!logged.ok()) {
        // Recovery still commits the part from the coordinator's record.
        RRQ_LOG(kError) << name_ << ": commit marker for " << id
                        << " failed: " << logged.ToString();
      }
    }
    for (const MicroOp& op : part.ops) ApplyMicroOp(s, op, &h.notify);
    s->ReleaseLocked(id, part);
  }
  Status finished = FinishCommit(std::move(h), evaluate_reactions);
  return replicated.ok() ? finished : replicated;
}

Status QueueRepository::AutoCommit(std::vector<MicroOp> ops,
                                   std::string record,
                                   bool evaluate_reactions) {
  if (ops.empty()) return Status::OK();
  const size_t first = ShardIndexOf(ops[0].queue);
  const bool spanning =
      std::any_of(ops.begin(), ops.end(), [this, first](const MicroOp& op) {
        return ShardIndexOf(op.queue) != first;
      });
  if (!spanning) {
    // Encode the record outside the shard lock, and only when something
    // reads it: the WAL of a durable repository or the replication
    // sink. The eid watermark in the record is safe to read here
    // because every eid in `ops` was allocated before this call.
    if (record.empty() &&
        (options_.replication_sink != nullptr || options_.env != nullptr)) {
      EncodeRecord(kRecCommitted, txn::kInvalidTxnId, ops, &record);
    }
    return CommitOnShard(shards_[first].get(), std::move(ops),
                         std::move(record), evaluate_reactions);
  }
  // A spanning commit encodes its own decision record (CommitAcross),
  // which it logs and ships in place of `record`. Its internal commit
  // id comes from the eid counter, which guarantees uniqueness against
  // every id this repository will ever log (the counter recovers past
  // the WAL watermark); the high bit keeps it out of the
  // TransactionManager's id space.
  const txn::TxnId iid =
      kInternalTxnBit | next_eid_.fetch_add(1, std::memory_order_relaxed);
  std::map<size_t, std::vector<MicroOp>> by_shard;
  for (MicroOp& op : ops) {
    by_shard[ShardIndexOf(op.queue)].push_back(std::move(op));
  }
  std::vector<Shard*> involved;
  for (auto& [idx, part] : by_shard) {
    Shard* s = shards_[idx].get();
    MutexLock guard(s->mu);
    s->txns[iid].ops = std::move(part);
    involved.push_back(s);
  }
  return CommitAcross(iid, std::move(involved), evaluate_reactions);
}

void QueueRepository::BufferTxnOps(txn::Transaction* t,
                                   std::vector<MicroOp> ops,
                                   std::vector<LockedRef> locked) {
  // Partition by shard, then enlist the repository once: the
  // TransactionManager sees one participant however many shards the
  // transaction touches, and the commit crosses shards through
  // CommitAcross.
  std::map<size_t, std::pair<std::vector<MicroOp>, std::vector<LockedRef>>>
      by_shard;
  for (MicroOp& op : ops) {
    by_shard[ShardIndexOf(op.queue)].first.push_back(std::move(op));
  }
  for (LockedRef& l : locked) {
    by_shard[ShardIndexOf(l.queue)].second.push_back(std::move(l));
  }
  for (auto& [idx, part] : by_shard) {
    Shard* s = shards_[idx].get();
    MutexLock guard(s->mu);
    PendingTxn& pt = s->txns[t->id()];
    for (MicroOp& op : part.first) pt.ops.push_back(std::move(op));
    for (LockedRef& l : part.second) pt.locked.push_back(std::move(l));
  }
  t->Enlist(this);
}

// ---------------------------------------------------------------------------
// Shard as a 2PC participant

Status QueueRepository::Shard::Prepare(txn::TxnId id) {
  QueueRepository* r = repo;
  MutexLock lock(mu);
  auto it = txns.find(id);
  if (it == txns.end()) {
    // A transaction with no operations on this shard: trivially yes.
    txns[id].prepared = true;
    return Status::OK();
  }
  PendingTxn& pt = it->second;
  RRQ_RETURN_IF_ERROR(VetoKilled(pt));
  const bool log = NeedsLogging(pt.ops);
  uint64_t end_offset = 0;
  std::shared_ptr<wal::LogWriter> w;
  if (log) {
    w = wal;
    std::string record;
    r->EncodeRecord(kRecPrepare, id, pt.ops, &record);
    RRQ_RETURN_IF_ERROR(w->AddRecord(record, &end_offset));
  }
  pt.prepared = true;
  lock.Unlock();
  if (log) return w->SyncTo(end_offset);  // A yes vote must be durable.
  return Status::OK();
}

void QueueRepository::Shard::ReleaseLocked(txn::TxnId id,
                                           const PendingTxn& pt) {
  for (const LockedRef& ref : pt.locked) {
    QueueState* qs = Find(ref.queue);
    if (qs == nullptr) continue;
    auto eit = qs->elements.find(ref.eid);
    if (eit != qs->elements.end() && eit->second.locked_by == id) {
      eit->second.locked_by = txn::kInvalidTxnId;
    }
  }
}

Status QueueRepository::Shard::CommitTxn(txn::TxnId id) {
  // The commit record carries no ops; encode it before taking the lock.
  std::string record;
  if (repo->options_.env != nullptr) {
    repo->EncodeRecord(kRecCommit, id, {}, &record);
  }
  CommitHandoff h;
  {
    MutexLock lock(mu);
    auto it = txns.find(id);
    if (it == txns.end()) return Status::OK();  // No ops here.
    if (!it->second.prepared) {
      return Status::Internal("commit of unprepared transaction");
    }
    PendingTxn pt = std::move(it->second);
    txns.erase(it);
    RRQ_RETURN_IF_ERROR(
        repo->StageCommitLocked(this, pt.ops, std::move(record), &h));
    ReleaseLocked(id, pt);
  }
  return repo->FinishCommit(std::move(h), /*evaluate_reactions=*/true);
}

void QueueRepository::Shard::AbortTxn(txn::TxnId id) {
  QueueRepository* r = repo;
  MutexLock lock(mu);
  auto it = txns.find(id);
  if (it == txns.end()) return;
  if (it->second.decided) {
    // Its coordinator logged the commit; only recovery may settle it.
    RRQ_LOG(kError) << r->name_ << ": abort of decided transaction " << id
                    << " ignored";
    return;
  }
  PendingTxn pt = std::move(it->second);
  txns.erase(it);

  // Abort side effects (§4.2): each element this transaction had
  // dequeued returns to its queue with an incremented abort count; on
  // the n-th abort it moves to the error queue instead. Killed
  // elements are already durably deleted. These effects are themselves
  // durable and are NOT undone by the abort — they auto-commit. An
  // error queue hashed to another shard cannot commit under this lock:
  // the element stays locked (invisible) here and the move runs
  // through the cross-shard protocol after we release it.
  std::vector<MicroOp> side_effects;
  std::vector<MicroOp> spanning_effects;
  for (const LockedRef& ref : pt.locked) {
    QueueState* qs = Find(ref.queue);
    if (qs == nullptr) continue;
    auto eit = qs->elements.find(ref.eid);
    if (eit == qs->elements.end()) continue;  // Killed & removed.
    InternalElement& ie = eit->second;
    if (ie.locked_by != id) continue;
    if (ref.is_kill) {
      // The kill was undone with the transaction: release the element
      // intact.
      ie.locked_by = txn::kInvalidTxnId;
      ie.killed = false;
      continue;
    }
    const uint32_t new_count = ie.meta.abort_count + 1;
    const QueueOptions& qopt = qs->options;
    if (!qopt.error_queue.empty() && new_count >= qopt.max_aborts) {
      // Move to the error queue (stable element identity, §10). The
      // payload is shared, not copied — only the metadata changes.
      Element moved = ie.meta;
      moved.abort_count = new_count;
      moved.abort_code = "abort limit reached";
      std::shared_ptr<const std::string> moved_payload = ie.payload;
      MicroOp create;
      create.kind = MicroOp::kCreateQueue;
      create.queue = qopt.error_queue;
      create.qoptions.durable = qopt.durable;
      create.qoptions.max_aborts = 0;  // Error queues don't cascade.
      MicroOp remove;
      remove.kind = MicroOp::kRemove;
      remove.queue = ref.queue;
      remove.element.eid = ref.eid;
      MicroOp insert;
      insert.kind = MicroOp::kInsert;
      insert.queue = qopt.error_queue;
      insert.element = std::move(moved);
      insert.payload = std::move(moved_payload);
      const bool cross_shard =
          r->ShardIndexOf(qopt.error_queue) != this->index;
      if (cross_shard) {
        // Leave the element locked so no dequeuer consumes it while
        // the move is in flight; the spanning kRemove deletes it.
        spanning_effects.push_back(std::move(create));
        spanning_effects.push_back(std::move(remove));
        spanning_effects.push_back(std::move(insert));
      } else {
        ie.locked_by = txn::kInvalidTxnId;
        if (Find(qopt.error_queue) == nullptr) {
          side_effects.push_back(std::move(create));
        }
        side_effects.push_back(std::move(remove));
        side_effects.push_back(std::move(insert));
      }
      r->error_moves_.fetch_add(1, std::memory_order_relaxed);
    } else {
      ie.locked_by = txn::kInvalidTxnId;
      MicroOp bump;
      bump.kind = MicroOp::kBumpAbortCount;
      bump.queue = ref.queue;
      bump.element.eid = ref.eid;
      side_effects.push_back(std::move(bump));
    }
  }

  // The side effects auto-commit through the one commit tail; a failed
  // append applies none of them, so memory never runs ahead of the log.
  // A commit that fails before it is published wakes nobody, but the
  // released elements are back either way, so their queues are woken
  // here.
  std::vector<std::string> released;
  for (const LockedRef& ref : pt.locked) released.push_back(ref.queue);
  CommitHandoff h;
  h.notify = released;
  Status committed =
      r->StageCommitLocked(this, std::move(side_effects), "", &h);
  lock.Unlock();
  if (committed.ok()) committed = r->SyncCommit(&h);
  if (!committed.ok()) {
    RRQ_LOG(kError) << r->name_ << ": abort side effects failed: "
                    << committed.ToString();
    r->NotifyWaiters(released);
    r->EvaluateReactions(released);
  } else {
    Status rs = r->FinishCommit(std::move(h), /*evaluate_reactions=*/true);
    if (!rs.ok()) {
      RRQ_LOG(kError) << r->name_ << ": abort side effects not replicated: "
                      << rs.ToString();
    }
  }
  if (!spanning_effects.empty()) {
    Status s = r->AutoCommit(std::move(spanning_effects));
    if (!s.ok()) {
      RRQ_LOG(kError) << r->name_ << ": cross-shard error-queue move failed: "
                      << s.ToString();
    }
  }
}

// ---------------------------------------------------------------------------
// Repository facade as a ResourceManager

void QueueRepository::HostStore(txn::HostedStore* store) { store_ = store; }

Status QueueRepository::Prepare(txn::TxnId id) {
  // An outside coordinator's 2PC: every involved shard votes, and the
  // last one's prepare carries the hosted store's redo.
  std::vector<Shard*> involved = InvolvedShards(id);
  AttachRedo(id, &involved);
  for (Shard* s : involved) RRQ_RETURN_IF_ERROR(s->Prepare(id));
  return Status::OK();
}

Status QueueRepository::CommitTxn(txn::TxnId id) {
  for (Shard* s : InvolvedShards(id)) RRQ_RETURN_IF_ERROR(s->CommitTxn(id));
  return Status::OK();
}

void QueueRepository::AbortTxn(txn::TxnId id) {
  for (Shard* s : InvolvedShards(id)) s->AbortTxn(id);
  if (store_ != nullptr) store_->DropRedo(id);
}

Status QueueRepository::PrepareAndCommit(txn::TxnId id) {
  std::vector<Shard*> involved = InvolvedShards(id);
  AttachRedo(id, &involved);
  if (involved.empty()) return Status::OK();
  return CommitAcross(id, std::move(involved), /*evaluate_reactions=*/true);
}

// ---------------------------------------------------------------------------
// Replication

Status QueueRepository::ApplyReplicatedRecord(const Slice& record,
                                              uint64_t seq) {
  if (seq != 0) return ApplyReplicatedBatch({record.ToString()}, seq);
  if (record.empty()) return Status::InvalidArgument("empty record");
  // The record type is always a committed set.
  Record rec;
  RRQ_RETURN_IF_ERROR(DecodeRecord(record, &rec));
  RRQ_RETURN_IF_ERROR(CheckRedoHosted(rec.ops));
  // Only fully-decoded records mutate state (AdvanceEid included):
  // a truncated or bit-flipped record must leave the backup unchanged.
  AdvanceEid(rec.eid_watermark);
  // Durable backups log the record verbatim (it is already a valid
  // committed record carrying the primary's eid watermark); a record
  // spanning local shards goes through the cross-shard protocol so a
  // backup crash can't apply it partially. Chained sinks receive the
  // original bytes either way. Reactions don't fire: the primary's
  // reactions arrive as ordinary records.
  return AutoCommit(std::move(rec.ops), record.ToString(),
                    /*evaluate_reactions=*/false);
}

Status QueueRepository::ApplyReplicatedBatch(
    const std::vector<std::string>& records, uint64_t first_seq) {
  if (first_seq == 0) return Status::InvalidArgument("zero record sequence");
  // Decode everything before applying anything: a truncated or
  // bit-flipped record must leave the backup unchanged.
  const uint64_t applied = applied_repl_seq();
  std::vector<MicroOp> ops;
  uint64_t eid_watermark = 0;
  uint64_t last = 0;
  Record rec;
  for (size_t i = 0; i < records.size(); ++i) {
    if (records[i].empty()) return Status::InvalidArgument("empty record");
    RRQ_RETURN_IF_ERROR(DecodeRecord(records[i], &rec));
    RRQ_RETURN_IF_ERROR(CheckRedoHosted(rec.ops));
    // Duplicate delivery (sender retry after a lost ack, or a restart
    // resending from an older watermark): already applied.
    if (first_seq + i <= applied) continue;
    eid_watermark = std::max(eid_watermark, rec.eid_watermark);
    std::move(rec.ops.begin(), rec.ops.end(), std::back_inserter(ops));
    last = first_seq + i;
  }
  if (last == 0) return Status::OK();
  AdvanceEid(eid_watermark);
  // The watermark advances atomically with the batch's effects by
  // riding in it as a micro-op, so recovery replays both or neither. A
  // watermark-only batch (no ops) is the snapshot-end barrier.
  MicroOp marker;
  marker.kind = MicroOp::kSetReplWatermark;
  marker.queue = ops.empty() ? "" : ops[0].queue;
  marker.element.eid = last;
  ops.push_back(std::move(marker));
  return AutoCommit(std::move(ops), "", /*evaluate_reactions=*/false);
}

Status QueueRepository::CommitReplWatermark(uint64_t seq) {
  return ApplyReplicatedRecord(NoopReplicationRecord(), seq);
}

std::string QueueRepository::NoopReplicationRecord() const {
  std::string record;
  EncodeRecord(kRecCommitted, txn::kInvalidTxnId, {}, &record);
  return record;
}

Status QueueRepository::CaptureReplicaSnapshot(
    const std::function<void()>& at_barrier,
    std::vector<std::string>* records) NO_THREAD_SAFETY_ANALYSIS {
  records->clear();
  // Same order as Checkpoint(): checkpoint_mu_ first (so a concurrent
  // checkpoint can't interleave), then every shard lock ascending.
  MutexLock ckpt_guard(checkpoint_mu_);
  ShardLockSet locks;
  for (auto& shard : shards_) locks.Add(&shard->mu);
  // Drain in-flight sink deliveries: every commit that applied before
  // we took the locks has finished its replication hand-off, so state
  // captured here is exactly "everything at or before the barrier".
  // Deliveries only need repl_mu, so they complete while we hold mu;
  // new tickets can't appear (they are taken under mu).
  for (auto& shard : shards_) {
    MutexLock guard(shard->repl_mu);
    while (shard->repl_done != shard->repl_next) {
      shard->repl_cv.Wait(shard->repl_mu);
    }
  }
  if (at_barrier) at_barrier();
  for (auto& shard : shards_) EncodeShardState(*shard, false, records);
  EncodeStoreState(records);
  return Status::OK();
}

void QueueRepository::EncodeStoreState(
    std::vector<std::string>* records) const {
  if (store_ == nullptr) return;
  for (std::string& redo : store_->SnapshotRedo()) {
    // Stamp 0: older than every commit after the cut.
    MicroOp op;
    op.kind = MicroOp::kRedo;
    op.payload = std::make_shared<const std::string>(std::move(redo));
    records->emplace_back();
    EncodeRecord(kRecCommitted, txn::kInvalidTxnId, {op}, &records->back());
  }
}

void QueueRepository::EncodeShardState(const Shard& s, bool checkpoint,
                                       std::vector<std::string>* records) const
    REQUIRES(s.mu) {
  auto emit = [this, records](const std::vector<MicroOp>& ops) {
    records->emplace_back();
    EncodeRecord(kRecCommitted, txn::kInvalidTxnId, ops, &records->back());
  };
  constexpr size_t kElementsPerRecord = 256;
  for (const auto& [name, qs] : s.queues) {
    // One metadata record per queue: creation, started flag,
    // registrations and their saved last-ops.
    std::vector<MicroOp> meta;
    {
      MicroOp create;
      create.kind = MicroOp::kCreateQueue;
      create.queue = name;
      create.qoptions = qs->options;
      meta.push_back(std::move(create));
    }
    if (!qs->started) {
      MicroOp stop;
      stop.kind = MicroOp::kStopQueue;
      stop.queue = name;
      meta.push_back(std::move(stop));
    }
    for (const auto& [registrant, reg] : qs->registrations) {
      MicroOp r;
      r.kind = MicroOp::kRegister;
      r.queue = name;
      r.registrant = registrant;
      r.stable = reg.stable;
      meta.push_back(std::move(r));
      if (reg.stable && reg.last.type != OpType::kNone) {
        MicroOp last;
        last.kind = MicroOp::kSetLastOp;
        last.queue = name;
        last.registrant = registrant;
        last.op_type = reg.last.type;
        last.tag = reg.last.tag;
        last.element = reg.last.meta;
        last.element.eid = reg.last.eid;
        last.payload = reg.last.payload;
        meta.push_back(std::move(last));
      }
    }
    emit(meta);
    // Elements in dequeue order, chunked. A replica seed ships
    // volatile-queue elements too: the backup mirrors live state, not
    // just the durable subset (its own durability policy still honors
    // the queue's options because volatile inserts skip the backup's
    // WAL). A checkpoint persists none of them.
    if (checkpoint && !qs->options.durable) continue;
    std::vector<MicroOp> chunk;
    for (const auto& [key, eid] : qs->order) {
      const InternalElement& ie = qs->elements.at(eid);
      MicroOp ins;
      ins.kind = MicroOp::kInsert;
      ins.queue = name;
      ins.element = ie.meta;
      ins.payload = ie.payload;
      chunk.push_back(std::move(ins));
      if (chunk.size() >= kElementsPerRecord) {
        emit(chunk);
        chunk.clear();
      }
    }
    if (!chunk.empty()) emit(chunk);
  }
  if (!s.triggers.empty()) {
    std::vector<MicroOp> trigs;
    for (const TriggerSpec& t : s.triggers) {
      MicroOp op;
      op.kind = MicroOp::kSetTrigger;
      op.queue = t.watched_queue;
      op.trigger = t;
      trigs.push_back(std::move(op));
    }
    emit(trigs);
  }
  if (!checkpoint) {
    // A cross-shard commit delivers its record before phase 2 applies
    // the other shards' parts, so a seed cut in between ships those
    // decided parts itself: the seed must equal every record up to its
    // barrier, and that record is one of them. (A checkpoint re-logs
    // them into the new WAL instead.)
    for (const auto& [id, pt] : s.txns) {
      if (pt.decided && !pt.ops.empty()) emit(pt.ops);
    }
  }
  if (checkpoint) {
    // Always present, so even an empty slice carries the eid
    // watermark in its record header.
    MicroOp mark;
    mark.kind = MicroOp::kSetReplWatermark;
    mark.element.eid = applied_repl_seq();
    emit({mark});
  }
}

// ---------------------------------------------------------------------------
// Data definition

Status QueueRepository::CreateQueue(const std::string& queue,
                                    QueueOptions qoptions) {
  if (queue.empty()) return Status::InvalidArgument("empty queue name");
  {
    Shard* s = ShardFor(queue);
    MutexLock guard(s->mu);
    if (s->queues.count(queue) > 0) {
      return Status::AlreadyExists("queue exists: " + queue);
    }
  }
  MicroOp op;
  op.kind = MicroOp::kCreateQueue;
  op.queue = queue;
  op.qoptions = std::move(qoptions);
  return AutoCommit({std::move(op)});
}

Status QueueRepository::DestroyQueue(const std::string& queue) {
  {
    Shard* s = ShardFor(queue);
    MutexLock guard(s->mu);
    QueueState* qs = s->Find(queue);
    if (qs == nullptr) return Status::NotFound("no such queue: " + queue);
    if (qs->waiters > 0) {
      return Status::Busy("queue has blocked dequeuers: " + queue);
    }
    for (const auto& [eid, ie] : qs->elements) {
      if (ie.locked_by != txn::kInvalidTxnId) {
        return Status::Busy("queue has in-flight dequeues: " + queue);
      }
    }
  }
  MicroOp op;
  op.kind = MicroOp::kDestroyQueue;
  op.queue = queue;
  return AutoCommit({std::move(op)});
}

Status QueueRepository::StartQueue(const std::string& queue) {
  MicroOp op;
  op.kind = MicroOp::kStartQueue;
  op.queue = queue;
  {
    Shard* s = ShardFor(queue);
    MutexLock guard(s->mu);
    if (s->Find(queue) == nullptr) {
      return Status::NotFound("no such queue: " + queue);
    }
  }
  return AutoCommit({std::move(op)});
}

Status QueueRepository::StopQueue(const std::string& queue) {
  MicroOp op;
  op.kind = MicroOp::kStopQueue;
  op.queue = queue;
  {
    Shard* s = ShardFor(queue);
    MutexLock guard(s->mu);
    if (s->Find(queue) == nullptr) {
      return Status::NotFound("no such queue: " + queue);
    }
  }
  return AutoCommit({std::move(op)});
}

bool QueueRepository::QueueExists(const std::string& queue) const {
  const Shard* s = ShardFor(queue);
  MutexLock guard(s->mu);
  return s->Find(queue) != nullptr;
}

// ---------------------------------------------------------------------------
// Registration

Result<RegistrationInfo> QueueRepository::Register(
    const std::string& queue, const std::string& registrant, bool stable) {
  RegistrationInfo info;
  std::shared_ptr<const std::string> last_payload;
  Shard* s = ShardFor(queue);
  uint64_t barrier = 0;
  {
    MutexLock guard(s->mu);
    QueueState* qs = s->Find(queue);
    if (qs == nullptr) return Status::NotFound("no such queue: " + queue);
    auto it = qs->registrations.find(registrant);
    if (it != qs->registrations.end()) {
      // Re-registration after a failure: hand back the stable last-op
      // record (§4.3). Only the payload refcount is touched under the
      // shard lock; the byte copy happens below, after unlocking.
      info.was_registered = true;
      info.last_op = it->second.last.type;
      info.last_eid = it->second.last.eid;
      info.last_tag = it->second.last.tag;
      last_payload = it->second.last.payload;
      barrier = ReplBarrierLocked(s);
    }
  }
  if (info.was_registered) {
    // The last op may still be on its way to the replication sink; the
    // caller acts on it (§2 recovery), so it must not outrun its record.
    AwaitReplDelivery(s, barrier);
    if (last_payload != nullptr) info.last_element = *last_payload;
    return info;
  }
  MicroOp op;
  op.kind = MicroOp::kRegister;
  op.queue = queue;
  op.registrant = registrant;
  op.stable = stable;
  RRQ_RETURN_IF_ERROR(AutoCommit({std::move(op)}));
  return info;
}

Status QueueRepository::Deregister(const std::string& queue,
                                   const std::string& registrant) {
  {
    Shard* s = ShardFor(queue);
    MutexLock guard(s->mu);
    QueueState* qs = s->Find(queue);
    if (qs == nullptr) return Status::NotFound("no such queue: " + queue);
    if (qs->registrations.count(registrant) == 0) {
      return Status::NotFound("not registered: " + registrant);
    }
  }
  MicroOp op;
  op.kind = MicroOp::kDeregister;
  op.queue = queue;
  op.registrant = registrant;
  return AutoCommit({std::move(op)});
}

// ---------------------------------------------------------------------------
// Data manipulation

QueueRepository::MicroOp QueueRepository::MakeLastOpMicro(
    const std::string& queue, const std::string& registrant, OpType type,
    const Slice& tag, const Element& meta,
    std::shared_ptr<const std::string> payload) const {
  MicroOp op;
  op.kind = MicroOp::kSetLastOp;
  op.queue = queue;
  op.registrant = registrant;
  op.op_type = type;
  op.tag = tag.ToString();
  op.element = meta;
  op.payload = std::move(payload);
  return op;
}

Result<ElementId> QueueRepository::Enqueue(txn::Transaction* t,
                                           const std::string& queue,
                                           const Slice& contents,
                                           uint32_t priority,
                                           const std::string& registrant,
                                           const Slice& tag) {
  const std::string target = ResolveRedirect(queue);
  {
    Shard* s = ShardFor(target);
    MutexLock guard(s->mu);
    QueueState* qs = s->Find(target);
    if (qs == nullptr) return Status::NotFound("no such queue: " + target);
    if (!qs->started) {
      return Status::FailedPrecondition("queue stopped: " + target);
    }
  }
  if (!registrant.empty()) {
    // Tagged operations require a registration on the *named* queue —
    // which may live on a different shard than the redirect target.
    Shard* ns = ShardFor(queue);
    MutexLock guard(ns->mu);
    QueueState* named = ns->Find(queue);
    if (named == nullptr) {
      return Status::NotConnected("not registered: " + registrant);
    }
    auto rit = named->registrations.find(registrant);
    if (rit == named->registrations.end()) {
      return Status::NotConnected("not registered: " + registrant);
    }
    // Idempotent tagged enqueue: a resend (or a network-duplicated
    // one-way message) carrying the registrant's current tag is the
    // SAME logical request — acknowledge it without enqueuing again.
    // This is the dedup persistent registration makes possible; it
    // is what keeps Exactly-Once intact under message duplication.
    if (rit->second.stable && !tag.empty() &&
        rit->second.last.type == OpType::kEnqueue &&
        Slice(rit->second.last.tag) == tag) {
      // As with re-registration: the original may not have reached the
      // replication sink yet.
      const ElementId eid = rit->second.last.eid;
      const uint64_t barrier = ReplBarrierLocked(ns);
      guard.Unlock();
      AwaitReplDelivery(ns, barrier);
      return eid;
    }
  }
  const ElementId eid = next_eid_.fetch_add(1, std::memory_order_relaxed);

  // The contents are copied exactly once, outside the shard locks, into
  // a shared immutable payload; the insert op, the last-op record, and
  // the stored element all reference the same bytes.
  std::vector<MicroOp> ops;
  MicroOp insert;
  insert.kind = MicroOp::kInsert;
  insert.queue = target;
  insert.element.eid = eid;
  insert.element.priority = priority;
  insert.payload = std::make_shared<const std::string>(contents.ToString());
  ops.push_back(insert);
  if (!registrant.empty()) {
    ops.push_back(MakeLastOpMicro(queue, registrant, OpType::kEnqueue, tag,
                                  insert.element, insert.payload));
  }
  enqueues_.fetch_add(1, std::memory_order_relaxed);
  if (t == nullptr) {
    RRQ_RETURN_IF_ERROR(AutoCommit(std::move(ops)));
  } else {
    BufferTxnOps(t, std::move(ops), {});
  }
  return eid;
}

QueueRepository::InternalElement* QueueRepository::PickVisible(
    QueueState* qs, const Selector* selector, bool* head_locked) {
  *head_locked = false;
  if (qs->options.policy == DequeuePolicy::kStrictFifo) {
    // Strict: only the head is eligible; a locked head blocks.
    auto it = qs->order.begin();
    if (it == qs->order.end()) return nullptr;
    InternalElement& ie = qs->elements.at(it->second);
    if (ie.locked_by != txn::kInvalidTxnId || ie.killed) {
      *head_locked = true;
      return nullptr;
    }
    return &ie;
  }
  // Skip-locked scan in (priority, FIFO) order.
  if (selector == nullptr) {
    for (const auto& [key, eid] : qs->order) {
      InternalElement& ie = qs->elements.at(eid);
      if (ie.locked_by == txn::kInvalidTxnId && !ie.killed) return &ie;
    }
    return nullptr;
  }
  // Content-based selection must show the selector full elements, so
  // this path (and only this path) materializes contents under the
  // shard lock.
  std::vector<InternalElement*> internal;
  for (const auto& [key, eid] : qs->order) {
    InternalElement& ie = qs->elements.at(eid);
    if (ie.locked_by == txn::kInvalidTxnId && !ie.killed) {
      internal.push_back(&ie);
    }
  }
  if (internal.empty()) return nullptr;
  std::vector<Element> materialized;
  materialized.reserve(internal.size());
  std::vector<Element*> candidates;
  candidates.reserve(internal.size());
  for (InternalElement* ie : internal) {
    Element e = ie->meta;
    if (ie->payload != nullptr) e.contents = *ie->payload;
    materialized.push_back(std::move(e));
    candidates.push_back(&materialized.back());
  }
  size_t chosen = (*selector)(candidates);
  if (chosen >= internal.size()) return nullptr;
  return internal[chosen];
}

Result<Element> QueueRepository::DequeueInternal(
    txn::Transaction* t, const std::string& queue, const Selector* selector,
    const std::string& registrant, const Slice& tag,
    uint64_t timeout_micros) {
  Shard* s = ShardFor(queue);
  MutexLock lock(s->mu);
  QueueState* qs = s->Find(queue);
  if (qs == nullptr) return Status::NotFound("no such queue: " + queue);
  if (!qs->started) return Status::FailedPrecondition("queue stopped: " + queue);
  if (!registrant.empty() && qs->registrations.count(registrant) == 0) {
    return Status::NotConnected("not registered: " + registrant);
  }

  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::microseconds(timeout_micros);
  InternalElement* picked = nullptr;
  bool head_locked = false;
  while (true) {
    picked = PickVisible(qs, selector, &head_locked);
    if (picked != nullptr) break;
    if (timeout_micros == 0) {
      return head_locked
                 ? Status::Busy("head element locked (strict FIFO): " + queue)
                 : Status::NotFound("queue empty: " + queue);
    }
    ++qs->waiters;
    const auto wait_result = qs->cv.WaitUntil(s->mu, deadline);
    --qs->waiters;
    // The queue may have been stopped (not destroyed: waiters pin it).
    qs = s->Find(queue);
    if (qs == nullptr) return Status::NotFound("queue destroyed: " + queue);
    if (!qs->started) {
      return Status::FailedPrecondition("queue stopped: " + queue);
    }
    if (wait_result == std::cv_status::timeout) {
      picked = PickVisible(qs, selector, &head_locked);
      if (picked == nullptr) {
        return head_locked
                   ? Status::Busy("head element locked (strict FIFO): " + queue)
                   : Status::TimedOut("dequeue timed out: " + queue);
      }
      break;
    }
  }

  // Take the metadata and a reference to the shared payload under the
  // lock; the payload byte copy for the caller happens after unlock.
  Element copy = picked->meta;
  std::shared_ptr<const std::string> payload = picked->payload;
  dequeues_.fetch_add(1, std::memory_order_relaxed);

  MicroOp remove;
  remove.kind = MicroOp::kRemove;
  remove.queue = queue;
  remove.element.eid = copy.eid;
  std::vector<MicroOp> ops;
  ops.push_back(std::move(remove));
  if (!registrant.empty()) {
    ops.push_back(MakeLastOpMicro(queue, registrant, OpType::kDequeue, tag,
                                  copy, payload));
  }

  if (t == nullptr) {
    // Auto-commit: log + apply while still holding the shard lock, so
    // pick+consume stays atomic.
    CommitHandoff h;
    RRQ_RETURN_IF_ERROR(StageCommitLocked(s, std::move(ops), "", &h));
    lock.Unlock();
    RRQ_RETURN_IF_ERROR(FinishCommit(std::move(h),
                                     /*evaluate_reactions=*/true));
    if (payload != nullptr) copy.contents = *payload;
    return copy;
  }

  // Transactional: lock the element in place; removal applies at commit.
  picked->locked_by = t->id();
  lock.Unlock();
  if (payload != nullptr) copy.contents = *payload;
  BufferTxnOps(t, std::move(ops), {LockedRef{queue, copy.eid, false}});
  return copy;
}

Result<Element> QueueRepository::Dequeue(txn::Transaction* t,
                                         const std::string& queue,
                                         const std::string& registrant,
                                         const Slice& tag,
                                         uint64_t timeout_micros) {
  return DequeueInternal(t, queue, nullptr, registrant, tag, timeout_micros);
}

Result<Element> QueueRepository::DequeueSelected(txn::Transaction* t,
                                                 const std::string& queue,
                                                 const Selector& selector,
                                                 const std::string& registrant,
                                                 const Slice& tag) {
  return DequeueInternal(t, queue, &selector, registrant, tag, 0);
}

Result<Element> QueueRepository::DequeueFromSet(
    txn::Transaction* t, const std::vector<std::string>& queues,
    const std::string& registrant, const Slice& tag) {
  // First-visible-wins in the caller's order; each probe takes only the
  // shard owning that queue.
  for (const std::string& q : queues) {
    Result<Element> r = DequeueInternal(t, q, nullptr, registrant, tag, 0);
    if (r.ok()) return r;
    if (!r.status().IsNotFound() && !r.status().IsBusy()) return r;
  }
  return Status::NotFound("no element available in queue set");
}

Result<Element> QueueRepository::Read(const std::string& queue,
                                      ElementId eid) const {
  // Under the shard lock: find the element and bump the payload
  // refcount. The contents copy — the expensive part for large
  // payloads — happens after unlock, off the lock's critical path.
  Element result;
  std::shared_ptr<const std::string> payload;
  bool found = false;
  {
    const Shard* s = ShardFor(queue);
    MutexLock guard(s->mu);
    const QueueState* qs = s->Find(queue);
    if (qs == nullptr) return Status::NotFound("no such queue: " + queue);
    auto it = qs->elements.find(eid);
    if (it != qs->elements.end()) {
      result = it->second.meta;
      payload = it->second.payload;
      found = true;
    } else {
      // §4.3: a registrant may Read the element of its last operation
      // even after it was dequeued — serve it from the stable last-op
      // copies.
      for (const auto& [registrant, reg] : qs->registrations) {
        if (reg.last.eid == eid) {
          result = reg.last.meta;
          payload = reg.last.payload;
          found = true;
          break;
        }
      }
    }
  }
  if (!found) {
    return Status::NotFound("no such element: " + std::to_string(eid));
  }
  if (payload != nullptr) result.contents = *payload;
  return result;
}

Result<bool> QueueRepository::KillElement(txn::Transaction* t,
                                          const std::string& queue,
                                          ElementId eid) {
  Shard* s = ShardFor(queue);
  MutexLock lock(s->mu);
  QueueState* qs = s->Find(queue);
  if (qs == nullptr) return Status::NotFound("no such queue: " + queue);
  auto it = qs->elements.find(eid);
  if (it == qs->elements.end()) {
    return false;  // Already consumed by a committed dequeue.
  }
  InternalElement& ie = it->second;

  MicroOp remove;
  remove.kind = MicroOp::kRemove;
  remove.queue = queue;
  remove.element.eid = eid;

  if (ie.locked_by == txn::kInvalidTxnId) {
    if (t != nullptr) {
      // Reserve the element for this transaction so no dequeuer races
      // us; the kill-flavored lock entry makes an abort of t release
      // the element intact (no abort-count bump).
      ie.locked_by = t->id();
      ie.killed = true;
      lock.Unlock();
      BufferTxnOps(t, {std::move(remove)}, {LockedRef{queue, eid, true}});
      return true;
    }
    CommitHandoff h;
    RRQ_RETURN_IF_ERROR(StageCommitLocked(s, {std::move(remove)}, "", &h));
    lock.Unlock();
    RRQ_RETURN_IF_ERROR(FinishCommit(std::move(h),
                                     /*evaluate_reactions=*/true));
    return true;
  }

  // Locked by an uncommitted dequeuer. If it already voted yes, or a
  // cross-shard decision already committed it, we can no longer
  // unilaterally abort it (§7's "not yet committed" window closes at
  // prepare, or at the decision).
  auto tit = s->txns.find(ie.locked_by);
  if (tit != s->txns.end() &&
      (tit->second.prepared || tit->second.decided)) {
    return false;
  }
  // Durably delete now; the dequeuer's prepare will find the element
  // gone and veto, aborting its transaction.
  CommitHandoff h;
  RRQ_RETURN_IF_ERROR(StageCommitLocked(s, {std::move(remove)}, "", &h));
  lock.Unlock();
  RRQ_RETURN_IF_ERROR(FinishCommit(std::move(h),
                                   /*evaluate_reactions=*/true));
  return true;
}

Status QueueRepository::SetTrigger(const TriggerSpec& spec) {
  {
    Shard* s = ShardFor(spec.watched_queue);
    MutexLock guard(s->mu);
    if (s->Find(spec.watched_queue) == nullptr) {
      return Status::NotFound("no such queue: " + spec.watched_queue);
    }
  }
  MicroOp op;
  op.kind = MicroOp::kSetTrigger;
  op.queue = spec.watched_queue;
  op.trigger = spec;
  RRQ_RETURN_IF_ERROR(AutoCommit({std::move(op)}));
  // The condition may already hold.
  NotifyWaiters({spec.watched_queue});
  EvaluateReactions({spec.watched_queue});
  return Status::OK();
}

Result<size_t> QueueRepository::Depth(const std::string& queue) const {
  const Shard* s = ShardFor(queue);
  MutexLock guard(s->mu);
  const QueueState* qs = s->Find(queue);
  if (qs == nullptr) return Status::NotFound("no such queue: " + queue);
  size_t depth = 0;
  for (const auto& [key, eid] : qs->order) {
    const auto& ie = qs->elements.at(eid);
    if (ie.locked_by == txn::kInvalidTxnId && !ie.killed) ++depth;
  }
  return depth;
}

Result<QueueOptions> QueueRepository::GetQueueOptions(
    const std::string& queue) const {
  const Shard* s = ShardFor(queue);
  MutexLock guard(s->mu);
  const QueueState* qs = s->Find(queue);
  if (qs == nullptr) return Status::NotFound("no such queue: " + queue);
  return qs->options;
}

std::vector<std::string> QueueRepository::ListQueues() const {
  std::vector<std::string> names;
  for (const auto& s : shards_) {
    MutexLock guard(s->mu);
    for (const auto& [name, qs] : s->queues) names.push_back(name);
  }
  std::sort(names.begin(), names.end());
  return names;
}

// ---------------------------------------------------------------------------
// Durability: open / replay / checkpoint

Status QueueRepository::Open() {
  if (opened_) return Status::FailedPrecondition("repository already open");
  if (options_.env == nullptr) {
    opened_ = true;
    return Status::OK();
  }
  env::Env* env = options_.env;
  RRQ_RETURN_IF_ERROR(env->CreateDirIfMissing(options_.dir));
  // Held across the whole durable open path: generation_ is guarded by
  // checkpoint_mu_, and holding it also keeps a concurrent Checkpoint()
  // (nothing should be calling one yet, but the lock makes it safe)
  // from cutting a generation mid-recovery.
  MutexLock cp_guard(checkpoint_mu_);
  const bool have_current = env->FileExists(CurrentPath());
  if (have_current) {
    std::string current;
    RRQ_RETURN_IF_ERROR(env::ReadFileToString(env, CurrentPath(), &current));
    Slice input(current);
    RRQ_RETURN_IF_ERROR(util::GetVarint64(&input, &generation_));
    // Pre-sharding directories carry only the generation; the absent
    // count means 1. The on-disk count always wins over the configured
    // one — the WAL streams and checkpoint slices are keyed by it.
    uint64_t disk_shards = 1;
    if (!input.empty()) {
      RRQ_RETURN_IF_ERROR(util::GetVarint64(&input, &disk_shards));
      if (disk_shards == 0) {
        return Status::Corruption("invalid shard count in CURRENT");
      }
    }
    if (disk_shards != shards_.size()) {
      RRQ_LOG(kInfo) << name_ << ": adopting on-disk shard count "
                     << disk_shards << " (configured " << shards_.size()
                     << ")";
      BuildShards(static_cast<size_t>(disk_shards));
    }
  }
  // A crash inside Checkpoint() can strand the previous generation's
  // WAL/checkpoint files (crash between the CURRENT switch and the
  // retire), a freshly written next generation (crash before the
  // CURRENT switch), or a half-written *.tmp. Sweep them before
  // recovery creates any files of its own.
  {
    env::GcStats gc;
    RRQ_RETURN_IF_ERROR(
        env::RetireStaleGenerations(env, options_.dir, generation_, &gc));
    gc_removed_.fetch_add(gc.removed, std::memory_order_relaxed);
    remove_failures_.fetch_add(gc.failures, std::memory_order_relaxed);
  }
  if (have_current) {
    // Shards recover in parallel, in two passes. The recovery threads
    // get the generation by value — they must not touch generation_
    // (guarded by checkpoint_mu_, which this thread holds).
    const uint64_t gen = generation_;
    auto each_shard = [this](const std::function<Status(size_t)>& fn) {
      if (shards_.size() == 1) return fn(0);
      std::vector<Status> statuses(shards_.size());
      std::vector<std::thread> threads;
      threads.reserve(shards_.size());
      for (size_t i = 0; i < shards_.size(); ++i) {
        threads.emplace_back([&fn, &statuses, i] { statuses[i] = fn(i); });
      }
      for (std::thread& th : threads) th.join();
      for (const Status& st : statuses) RRQ_RETURN_IF_ERROR(st);
      return Status::OK();
    };
    std::vector<ShardRecovery> recs(shards_.size());
    if (shards_.size() > 1) {
      // Pass 1: a cross-shard commit logs every part in its
      // coordinator's decision record, so collect each shard's parts
      // from the other shards' WALs before any shard replays.
      std::vector<std::vector<DecidedParts>> found(shards_.size());
      RRQ_RETURN_IF_ERROR(each_shard([this, gen, &found](size_t i) {
        found[i].resize(shards_.size());
        return ReadDecidedParts(i, gen, &found[i]);
      }));
      for (std::vector<DecidedParts>& from : found) {
        for (size_t j = 0; j < from.size(); ++j) recs[j].decided.merge(from[j]);
      }
    }
    // Pass 2: each shard loads its checkpoint slice and replays its WAL.
    RRQ_RETURN_IF_ERROR(each_shard([this, gen, &recs](size_t i) {
      return RecoverShard(shards_[i].get(), gen, &recs[i]);
    }));
    // Resolve leftover prepares: an outside coordinator's 2PC logs a
    // prepare and later a commit marker on each involved shard, so a
    // marker on any shard commits every shard's part. Without one the
    // in-doubt resolver, which knows the outside coordinator's
    // decisions, settles external ids; an internal id (a repository
    // directory written before decisions carried every part) without a
    // surviving decision is presumed aborted.
    std::unordered_set<txn::TxnId> committed;
    for (const ShardRecovery& rec : recs) {
      committed.insert(rec.committed.begin(), rec.committed.end());
    }
    for (size_t i = 0; i < shards_.size(); ++i) {
      Shard* s = shards_[i].get();
      MutexLock lock(s->mu);
      for (const txn::TxnId id : recs[i].prepared_order) {
        auto pit = recs[i].prepared.find(id);
        if (pit == recs[i].prepared.end()) continue;  // Applied in replay.
        bool commit = committed.count(id) > 0;
        if (!commit && (id & kInternalTxnBit) == 0 &&
            options_.in_doubt_resolver != nullptr) {
          commit = options_.in_doubt_resolver(id);
        }
        if (commit) {
          for (const MicroOp& op : pit->second) ApplyMicroOp(s, op, nullptr);
          RRQ_LOG(kInfo) << name_ << ": in-doubt txn " << id
                         << " resolved to COMMIT";
        } else {
          RRQ_LOG(kInfo) << name_ << ": in-doubt txn " << id
                         << " resolved to ABORT (presumed)";
        }
      }
    }
  }
  for (auto& s : shards_) {
    RRQ_RETURN_IF_ERROR(OpenShardWal(s.get(), generation_));
  }
  if (!have_current) {
    std::string current;
    util::PutVarint64(&current, generation_);
    if (shards_.size() > 1) util::PutVarint64(&current, shards_.size());
    RRQ_RETURN_IF_ERROR(
        env::WriteStringToFileSync(env, current, CurrentPath()));
  }
  opened_ = true;
  return Status::OK();
}

Status QueueRepository::OpenShardWal(Shard* s, uint64_t generation) {
  env::Env* env = options_.env;
  const std::string path = WalPath(generation, s->index);
  uint64_t size = 0;
  if (env->FileExists(path)) {
    RRQ_RETURN_IF_ERROR(env->GetFileSize(path, &size));
  }
  std::unique_ptr<env::WritableFile> file;
  RRQ_RETURN_IF_ERROR(env->NewAppendableFile(path, &file));
  MutexLock lock(s->mu);
  s->wal = std::make_shared<wal::LogWriter>(std::move(file), size,
                                            options_.group_commit);
  return Status::OK();
}

Status QueueRepository::LoadShardCheckpoint(Shard* s, uint64_t generation) {
  env::Env* env = options_.env;
  const std::string path = CheckpointPath(generation, s->index);
  if (!env->FileExists(path)) return Status::OK();
  std::string data;
  RRQ_RETURN_IF_ERROR(env::ReadFileToString(env, path, &data));
  // A slice is a counted list of committed records, so one cut at any
  // point, a record boundary included, surfaces as Corruption.
  Slice input(data);
  uint64_t count = 0;
  RRQ_RETURN_IF_ERROR(util::GetVarint64(&input, &count));
  MutexLock guard(s->mu);
  Record rec;
  for (uint64_t i = 0; i < count; ++i) {
    Slice bytes;
    RRQ_RETURN_IF_ERROR(util::GetLengthPrefixed(&input, &bytes));
    RRQ_RETURN_IF_ERROR(DecodeRecord(bytes, &rec));
    if (rec.type != kRecCommitted) {
      return Status::Corruption("checkpoint holds a non-committed record");
    }
    RRQ_RETURN_IF_ERROR(CheckRedoHosted(rec.ops));
    // Shards load in parallel; the counter takes the max slice value.
    AdvanceEid(rec.eid_watermark);
    for (const MicroOp& op : rec.ops) ApplyMicroOp(s, op, nullptr);
  }
  if (!input.empty()) return Status::Corruption("trailing checkpoint bytes");
  return Status::OK();
}

Status QueueRepository::ReadDecidedParts(
    size_t shard, uint64_t generation,
    std::vector<DecidedParts>* parts) const {
  env::Env* env = options_.env;
  const std::string path = WalPath(generation, shard);
  if (!env->FileExists(path)) return Status::OK();
  std::unique_ptr<env::SequentialFile> file;
  RRQ_RETURN_IF_ERROR(env->NewSequentialFile(path, &file));
  wal::LogReader reader(std::move(file));
  Slice record;
  std::string scratch;
  Record r;
  while (reader.ReadRecord(&record, &scratch)) {
    // Only a decision — a committed record carrying an id — holds other
    // shards' parts; every other record is skipped undecoded (the type
    // byte and the fixed64 id lead every record).
    if (record.size() < 1 + 8 ||
        static_cast<unsigned char>(record[0]) != kRecCommitted ||
        util::DecodeFixed64(record.data() + 1) == txn::kInvalidTxnId) {
      continue;
    }
    RRQ_RETURN_IF_ERROR(DecodeRecord(record, &r));
    for (MicroOp& op : r.ops) {
      const size_t to = ShardIndexOf(op.queue);
      if (to == shard) continue;
      DecidedPart& part = (*parts)[to][r.id];
      part.stamp = r.eid_watermark;
      part.ops.push_back(std::move(op));
    }
  }
  return Status::OK();
}

Status QueueRepository::RecoverShard(Shard* s, uint64_t generation,
                                       ShardRecovery* rec) {
  RRQ_RETURN_IF_ERROR(LoadShardCheckpoint(s, generation));
  env::Env* env = options_.env;
  const std::string path = WalPath(generation, s->index);
  if (!env->FileExists(path)) return Status::OK();
  std::unique_ptr<env::SequentialFile> file;
  RRQ_RETURN_IF_ERROR(env->NewSequentialFile(path, &file));
  wal::LogReader reader(std::move(file));

  Slice record;
  std::string scratch;
  MutexLock guard(s->mu);
  Record r;
  while (reader.ReadRecord(&record, &scratch)) {
    if (record.empty()) continue;
    RRQ_RETURN_IF_ERROR(DecodeRecord(record, &r));
    RRQ_RETURN_IF_ERROR(CheckRedoHosted(r.ops));
    AdvanceEid(r.eid_watermark);
    const txn::TxnId id = r.id;
    if (r.type == kRecCommitted) {
      // A cross-shard decision carries the id and every part; only this
      // shard's part applies here, the others at their shards' markers.
      // Its id also commits the prepares that directories written before
      // decisions carried every part hold for the other parts.
      const bool decision = id != txn::kInvalidTxnId;
      if (decision) rec->committed.insert(id);
      for (const MicroOp& op : r.ops) {
        if (!decision || ShardIndexOf(op.queue) == s->index) {
          ApplyMicroOp(s, op, nullptr);
        }
      }
    } else if (r.type == kRecPrepare) {
      if (rec->prepared.find(id) == rec->prepared.end()) {
        rec->prepared_order.push_back(id);
      }
      rec->prepared[id] = std::move(r.ops);
    } else if (r.type == kRecCommit) {
      // Record the id even when the prepare lives on another shard's
      // WAL: the merged set resolves cross-shard leftovers.
      rec->committed.insert(id);
      auto it = rec->prepared.find(id);
      if (it != rec->prepared.end()) {
        for (const MicroOp& op : it->second) ApplyMicroOp(s, op, nullptr);
        rec->prepared.erase(it);
      }
      // The marker of a part decided in another shard's record: every
      // record after it here may depend on the part.
      auto dit = rec->decided.find(id);
      if (dit != rec->decided.end()) {
        for (const MicroOp& op : dit->second.ops) ApplyMicroOp(s, op, nullptr);
        rec->decided.erase(dit);
      }
    } else {
      return Status::Corruption("unknown repository WAL record type");
    }
  }
  // Decided parts whose markers never became durable. No durable record
  // here depends on one (it would follow the marker), but a later
  // decision may: apply them last, in decision order. A part of only
  // volatile element traffic never logs a marker, and is lost with the
  // crash like the rest of that traffic.
  std::vector<const DecidedPart*> lost;
  for (const auto& [id, part] : rec->decided) {
    if (s->Durable(part.ops)) lost.push_back(&part);
  }
  std::sort(lost.begin(), lost.end(),
            [](const DecidedPart* a, const DecidedPart* b) {
              return a->stamp < b->stamp;
            });
  for (const DecidedPart* part : lost) {
    for (const MicroOp& op : part->ops) ApplyMicroOp(s, op, nullptr);
  }
  return Status::OK();
}

// Holds every shard lock at once (a dynamic lock set — see
// ShardLockSet), so the analysis cannot follow it.
Status QueueRepository::Checkpoint() NO_THREAD_SAFETY_ANALYSIS {
  if (options_.env == nullptr) return Status::OK();
  env::Env* env = options_.env;
  // One atomic generation cut across all shards: every slice is written
  // under every shard lock, then CURRENT switches all of them at once.
  MutexLock cp_guard(checkpoint_mu_);
  ShardLockSet locks;
  for (auto& s : shards_) locks.Add(&s->mu);
  const uint64_t next_gen = generation_ + 1;

  std::vector<std::shared_ptr<wal::LogWriter>> new_wals(shards_.size());
  for (size_t i = 0; i < shards_.size(); ++i) {
    Shard* s = shards_[i].get();
    std::vector<std::string> records;
    EncodeShardState(*s, /*checkpoint=*/true, &records);
    if (i == 0) EncodeStoreState(&records);
    std::string slice;
    util::PutVarint64(&slice, records.size());
    for (const std::string& r : records) util::PutLengthPrefixed(&slice, r);
    RRQ_RETURN_IF_ERROR(
        env::WriteStringToFileSync(env, slice, CheckpointPath(next_gen, i)));

    std::unique_ptr<env::WritableFile> file;
    RRQ_RETURN_IF_ERROR(env->NewWritableFile(WalPath(next_gen, i), &file));
    auto new_wal = std::make_shared<wal::LogWriter>(std::move(file), 0,
                                                    options_.group_commit);
    // Prepared and decided parts must survive the truncation: re-log
    // each into the new WAL. A part whose coordinator already logged the
    // decision goes in as a committed record of its own, because that
    // decision stays behind in the retired generation (its effects are
    // in the coordinator's slice); its marker, when it comes, finds no
    // decision to read at replay.
    for (const auto& [id, pt] : s->txns) {
      if (!pt.prepared && !pt.decided) continue;
      std::string record;
      if (pt.decided) {
        EncodeRecord(kRecCommitted, txn::kInvalidTxnId, pt.ops, &record);
      } else {
        EncodeRecord(kRecPrepare, id, pt.ops, &record);
      }
      RRQ_RETURN_IF_ERROR(new_wal->AddRecord(record));
    }
    RRQ_RETURN_IF_ERROR(new_wal->Sync());
    new_wals[i] = std::move(new_wal);
  }

  std::string current;
  util::PutVarint64(&current, next_gen);
  if (shards_.size() > 1) util::PutVarint64(&current, shards_.size());
  RRQ_RETURN_IF_ERROR(env::WriteStringToFileSync(env, current, CurrentPath()));

  for (size_t i = 0; i < shards_.size(); ++i) {
    RemoveRetiredFile(WalPath(generation_, i));
  }
  for (size_t i = 0; i < shards_.size(); ++i) {
    RemoveRetiredFile(CheckpointPath(generation_, i));
  }
  generation_ = next_gen;
  for (size_t i = 0; i < shards_.size(); ++i) {
    shards_[i]->wal = std::move(new_wals[i]);
  }
  return Status::OK();
}

void QueueRepository::RemoveRetiredFile(const std::string& path) {
  Status s = options_.env->RemoveFile(path);
  if (s.ok() || s.IsNotFound()) return;  // Gen 0 has no checkpoint file.
  remove_failures_.fetch_add(1, std::memory_order_relaxed);
  RRQ_LOG(kWarn) << name_ << ": failed to retire " << path << ": "
                 << s.ToString() << " (recovery GC will re-attempt)";
}

// ---------------------------------------------------------------------------
// Statistics

uint64_t QueueRepository::wal_bytes() const {
  uint64_t total = 0;
  for (const auto& s : shards_) {
    MutexLock guard(s->mu);
    if (s->wal != nullptr) total += s->wal->PhysicalSize();
  }
  return total;
}

Status QueueRepository::wal_error(size_t* shard) const {
  for (const auto& s : shards_) {
    MutexLock guard(s->mu);
    if (s->wal == nullptr) continue;
    Status error = s->wal->error();
    if (!error.ok()) {
      if (shard != nullptr) *shard = s->index;
      return error;
    }
  }
  return Status::OK();
}

uint64_t QueueRepository::wal_sync_count() const {
  uint64_t total = 0;
  for (const auto& s : shards_) {
    MutexLock guard(s->mu);
    if (s->wal != nullptr) total += s->wal->sync_count();
  }
  return total;
}

uint64_t QueueRepository::wal_sync_request_count() const {
  uint64_t total = 0;
  for (const auto& s : shards_) {
    MutexLock guard(s->mu);
    if (s->wal != nullptr) total += s->wal->sync_request_count();
  }
  return total;
}

}  // namespace rrq::queue
