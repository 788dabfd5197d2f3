#include "storage/kv_store.h"

#include <algorithm>

#include "env/gc.h"
#include "util/coding.h"
#include "util/logging.h"
#include "wal/log_reader.h"

namespace rrq::storage {

namespace {

// WAL record types.
constexpr unsigned char kRecPrepare = 1;
constexpr unsigned char kRecCommit = 2;
// Fused 1PC record: write set that is committed the moment the record
// is durable.
constexpr unsigned char kRecCommitted = 3;

// Write-op tags inside a prepare/committed record.
constexpr unsigned char kOpPut = 1;
constexpr unsigned char kOpDelete = 2;

// Live keys per SnapshotRedo payload.
constexpr size_t kEntriesPerSnapshotPayload = 256;

}  // namespace

KvStore::KvStore(std::string name, KvStoreOptions options)
    : name_(std::move(name)), options_(std::move(options)) {
  if (options_.lock_prefix.empty()) {
    options_.lock_prefix = options_.dir.empty() ? "kv:" + name_ : options_.dir;
  }
  if (options_.host != nullptr) options_.host->HostStore(this);
}

KvStore::~KvStore() = default;

std::string KvStore::LockKey(const Slice& key) const {
  return options_.lock_prefix + "\x1f" + key.ToString();
}

std::string KvStore::WalPath(uint64_t generation) const {
  return options_.dir + "/WAL-" + std::to_string(generation);
}
std::string KvStore::CheckpointPath(uint64_t generation) const {
  return options_.dir + "/CHECKPOINT-" + std::to_string(generation);
}
std::string KvStore::CurrentPath() const { return options_.dir + "/CURRENT"; }

Status KvStore::Open() {
  if (opened_) return Status::FailedPrecondition("KvStore already open");
  // A hosted store's state is recovered by its host.
  if (options_.env == nullptr || options_.host != nullptr) {
    opened_ = true;
    return Status::OK();
  }
  env::Env* env = options_.env;
  RRQ_RETURN_IF_ERROR(env->CreateDirIfMissing(options_.dir));
  // Recovery mutates every guarded field; hold mu_ for the whole
  // durable path (Open runs before any concurrent use anyway).
  MutexLock guard(mu_);

  if (env->FileExists(CurrentPath())) {
    std::string current;
    RRQ_RETURN_IF_ERROR(env::ReadFileToString(env, CurrentPath(), &current));
    Slice input(current);
    uint64_t generation = 0;
    RRQ_RETURN_IF_ERROR(util::GetVarint64(&input, &generation));
    generation_ = generation;
  }
  // A crash inside Checkpoint() can strand the previous generation's
  // WAL/checkpoint (crash between the CURRENT switch and the retire),
  // a freshly written next generation (crash before the CURRENT
  // switch), or a half-written *.tmp. Sweep them before recovery
  // creates any files of its own.
  {
    env::GcStats gc;
    RRQ_RETURN_IF_ERROR(
        env::RetireStaleGenerations(env, options_.dir, generation_, &gc));
    gc_removed_.fetch_add(gc.removed, std::memory_order_relaxed);
    remove_failures_.fetch_add(gc.failures, std::memory_order_relaxed);
  }
  if (env->FileExists(CurrentPath())) {
    RRQ_RETURN_IF_ERROR(LoadCheckpoint(generation_));
    RRQ_RETURN_IF_ERROR(ReplayWal(generation_));
  }
  RRQ_RETURN_IF_ERROR(OpenWalForAppend(generation_));
  if (!options_.env->FileExists(CurrentPath())) {
    std::string current;
    util::PutVarint64(&current, generation_);
    RRQ_RETURN_IF_ERROR(
        env::WriteStringToFileSync(env, current, CurrentPath()));
  }
  opened_ = true;
  return Status::OK();
}

Status KvStore::LoadCheckpoint(uint64_t generation) REQUIRES(mu_) {
  env::Env* env = options_.env;
  const std::string path = CheckpointPath(generation);
  if (!env->FileExists(path)) return Status::OK();  // Empty baseline.
  std::string data;
  RRQ_RETURN_IF_ERROR(env::ReadFileToString(env, path, &data));
  Slice input(data);
  uint64_t count = 0;
  RRQ_RETURN_IF_ERROR(util::GetVarint64(&input, &count));
  for (uint64_t i = 0; i < count; ++i) {
    std::string key, value;
    RRQ_RETURN_IF_ERROR(util::GetLengthPrefixedString(&input, &key));
    RRQ_RETURN_IF_ERROR(util::GetLengthPrefixedString(&input, &value));
    ApplyLocked({WriteOp{std::move(key), std::move(value)}});
  }
  return Status::OK();
}

Status KvStore::ReplayWal(uint64_t generation) REQUIRES(mu_) {
  env::Env* env = options_.env;
  const std::string path = WalPath(generation);
  if (!env->FileExists(path)) return Status::OK();

  std::unique_ptr<env::SequentialFile> file;
  RRQ_RETURN_IF_ERROR(env->NewSequentialFile(path, &file));
  wal::LogReader reader(std::move(file));

  std::unordered_map<txn::TxnId, WriteSet> prepared;
  Slice record;
  std::string scratch;
  while (reader.ReadRecord(&record, &scratch)) {
    Slice input = record;
    if (input.empty()) continue;
    unsigned char type = static_cast<unsigned char>(input[0]);
    input.remove_prefix(1);
    uint64_t id = 0;
    RRQ_RETURN_IF_ERROR(util::GetFixed64(&input, &id));

    if (type == kRecCommit) {
      auto it = prepared.find(id);
      if (it != prepared.end()) {
        ApplyLocked(it->second);
        prepared.erase(it);
        ++recovered_txns_;
      }
      continue;
    }
    if (type != kRecPrepare && type != kRecCommitted) {
      return Status::Corruption("unknown KvStore WAL record type");
    }
    WriteSet ws;
    RRQ_RETURN_IF_ERROR(DecodeWrites(&input, &ws));
    if (type == kRecCommitted) {
      ApplyLocked(ws);
      ++recovered_txns_;
    } else {
      prepared[id] = std::move(ws);
    }
  }

  // In-doubt resolution (presumed abort unless a resolver says
  // otherwise).
  for (auto& [id, ws] : prepared) {
    const bool committed =
        options_.in_doubt_resolver != nullptr && options_.in_doubt_resolver(id);
    if (committed) {
      ApplyLocked(ws);
      ++recovered_txns_;
      RRQ_LOG(kInfo) << name_ << ": in-doubt txn " << id
                     << " resolved to COMMIT";
    } else {
      RRQ_LOG(kInfo) << name_ << ": in-doubt txn " << id
                     << " resolved to ABORT (presumed)";
    }
  }
  return Status::OK();
}

Status KvStore::OpenWalForAppend(uint64_t generation) REQUIRES(mu_) {
  env::Env* env = options_.env;
  const std::string path = WalPath(generation);
  uint64_t size = 0;
  if (env->FileExists(path)) {
    RRQ_RETURN_IF_ERROR(env->GetFileSize(path, &size));
  }
  std::unique_ptr<env::WritableFile> file;
  RRQ_RETURN_IF_ERROR(env->NewAppendableFile(path, &file));
  wal_ = std::make_shared<wal::LogWriter>(std::move(file), size,
                                          options_.group_commit);
  return Status::OK();
}

void KvStore::ApplyLocked(const WriteSet& ws, uint64_t stamp) {
  for (const WriteOp& op : ws) {
    auto [it, inserted] = data_.try_emplace(op.key);
    Entry& e = it->second;
    if (!inserted && stamp < e.stamp) continue;  // A newer write won.
    e.stamp = stamp;
    if (op.value.has_value()) {
      if (!e.live) ++live_;
      e.live = true;
      e.value = *op.value;
    } else {
      if (e.live) --live_;
      e.live = false;
      e.value.clear();
      if (stamp == 0) data_.erase(it);  // Nothing older can follow.
    }
  }
}

void KvStore::EncodeWrites(const WriteSet& ws, std::string* out) {
  util::PutVarint64(out, ws.size());
  for (const WriteOp& op : ws) {
    out->push_back(
        static_cast<char>(op.value.has_value() ? kOpPut : kOpDelete));
    util::PutLengthPrefixed(out, op.key);
    if (op.value.has_value()) util::PutLengthPrefixed(out, *op.value);
  }
}

Status KvStore::DecodeWrites(Slice* input, WriteSet* ws) {
  uint64_t op_count = 0;
  RRQ_RETURN_IF_ERROR(util::GetVarint64(input, &op_count));
  ws->clear();
  // Every op takes at least two bytes, so a corrupt count cannot make
  // the reservation outgrow the input.
  ws->reserve(static_cast<size_t>(std::min<uint64_t>(op_count, input->size())));
  for (uint64_t i = 0; i < op_count; ++i) {
    if (input->empty()) return Status::Corruption("truncated write set");
    const unsigned char op = static_cast<unsigned char>((*input)[0]);
    input->remove_prefix(1);
    WriteOp w;
    RRQ_RETURN_IF_ERROR(util::GetLengthPrefixedString(input, &w.key));
    if (op == kOpPut) {
      std::string value;
      RRQ_RETURN_IF_ERROR(util::GetLengthPrefixedString(input, &value));
      w.value = std::move(value);
    } else if (op != kOpDelete) {
      return Status::Corruption("unknown write-op tag");
    }
    ws->push_back(std::move(w));
  }
  return Status::OK();
}

void KvStore::EncodeWriteSet(txn::TxnId id, const WriteSet& ws,
                             unsigned char type, std::string* out) {
  out->push_back(static_cast<char>(type));
  util::PutFixed64(out, id);
  EncodeWrites(ws, out);
}

Status KvStore::LogAndMaybeSync(const std::string& record, bool sync) {
  // Snapshot the writer under mu_; Checkpoint() swaps wal_. The
  // shared_ptr keeps the retired writer alive if a checkpoint races
  // this append.
  std::shared_ptr<wal::LogWriter> wal;
  {
    MutexLock guard(mu_);
    wal = wal_;
  }
  if (wal == nullptr) return Status::OK();
  uint64_t end_offset = 0;
  RRQ_RETURN_IF_ERROR(wal->AddRecord(record, &end_offset));
  if (sync) return wal->SyncTo(end_offset);
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Transactional operations

Status KvStore::Put(txn::Transaction* t, const Slice& key,
                    const Slice& value) {
  RRQ_RETURN_IF_ERROR(t->Lock(LockKey(key), txn::LockMode::kExclusive,
                              options_.lock_timeout_micros));
  t->Enlist(participant());
  MutexLock guard(mu_);
  pending_[t->id()].push_back(WriteOp{key.ToString(), value.ToString()});
  return Status::OK();
}

Status KvStore::Delete(txn::Transaction* t, const Slice& key) {
  RRQ_RETURN_IF_ERROR(t->Lock(LockKey(key), txn::LockMode::kExclusive,
                              options_.lock_timeout_micros));
  t->Enlist(participant());
  MutexLock guard(mu_);
  pending_[t->id()].push_back(WriteOp{key.ToString(), std::nullopt});
  return Status::OK();
}

Result<std::string> KvStore::Get(txn::Transaction* t, const Slice& key) {
  RRQ_RETURN_IF_ERROR(t->Lock(LockKey(key), txn::LockMode::kShared,
                              options_.lock_timeout_micros));
  MutexLock guard(mu_);
  // Read own (deferred) writes: scan the write set backwards.
  auto it = pending_.find(t->id());
  if (it != pending_.end()) {
    const std::string needle = key.ToString();
    for (auto op = it->second.rbegin(); op != it->second.rend(); ++op) {
      if (op->key == needle) {
        if (op->value.has_value()) return *op->value;
        return Status::NotFound("deleted in this transaction");
      }
    }
  }
  auto found = data_.find(key.ToString());
  if (found == data_.end() || !found->second.live) {
    return Status::NotFound(key.ToString());
  }
  return found->second.value;
}

Result<std::string> KvStore::GetForUpdate(txn::Transaction* t,
                                          const Slice& key) {
  RRQ_RETURN_IF_ERROR(t->Lock(LockKey(key), txn::LockMode::kExclusive,
                              options_.lock_timeout_micros));
  return Get(t, key);  // S request is covered by the X hold.
}

Result<std::string> KvStore::GetCommitted(const Slice& key) const {
  MutexLock guard(mu_);
  auto found = data_.find(key.ToString());
  if (found == data_.end() || !found->second.live) {
    return Status::NotFound(key.ToString());
  }
  return found->second.value;
}

std::vector<std::string> KvStore::ScanKeys(const std::string& prefix) const {
  std::vector<std::string> keys;
  MutexLock guard(mu_);
  for (auto it = data_.lower_bound(prefix);
       it != data_.end() && it->first.compare(0, prefix.size(), prefix) == 0;
       ++it) {
    if (it->second.live) keys.push_back(it->first);
  }
  return keys;
}

size_t KvStore::size() const {
  MutexLock guard(mu_);
  return live_;
}

// ---------------------------------------------------------------------------
// ResourceManager

Status KvStore::Prepare(txn::TxnId id) {
  std::string record;
  bool have_wal = false;
  {
    MutexLock guard(mu_);
    auto it = pending_.find(id);
    WriteSet ws = it == pending_.end() ? WriteSet{} : std::move(it->second);
    if (it != pending_.end()) pending_.erase(it);
    EncodeWriteSet(id, ws, kRecPrepare, &record);
    prepared_[id] = std::move(ws);
    // Snapshotted under mu_: Checkpoint() swaps wal_ (the old code read
    // it unlocked here, racing the swap).
    have_wal = wal_ != nullptr;
  }
  // Prepared state must survive a crash: sync unconditionally.
  Status s = LogAndMaybeSync(record, /*sync=*/have_wal);
  if (!s.ok()) {
    MutexLock guard(mu_);
    prepared_.erase(id);
    return s;
  }
  return Status::OK();
}

Status KvStore::CommitTxn(txn::TxnId id) {
  std::string record;
  record.push_back(static_cast<char>(kRecCommit));
  util::PutFixed64(&record, id);
  RRQ_RETURN_IF_ERROR(LogAndMaybeSync(record, options_.sync_commits));
  MutexLock guard(mu_);
  auto it = prepared_.find(id);
  if (it == prepared_.end()) {
    return Status::Internal("commit of unprepared transaction");
  }
  ApplyLocked(it->second);
  prepared_.erase(it);
  return Status::OK();
}

Status KvStore::PrepareAndCommit(txn::TxnId id) {
  std::string record;
  {
    MutexLock guard(mu_);
    auto it = pending_.find(id);
    WriteSet& ws = committing_[id];
    if (it != pending_.end()) {
      ws = std::move(it->second);
      pending_.erase(it);
    }
    EncodeWriteSet(id, ws, kRecCommitted, &record);
  }
  Status s = LogAndMaybeSync(record, options_.sync_commits);
  MutexLock guard(mu_);
  auto it = committing_.find(id);
  if (s.ok()) ApplyLocked(it->second);
  committing_.erase(it);
  return s;
}

void KvStore::AbortTxn(txn::TxnId id) {
  // Presumed abort: drop volatile state, log nothing.
  MutexLock guard(mu_);
  pending_.erase(id);
  prepared_.erase(id);
}

// ---------------------------------------------------------------------------
// HostedStore

std::string KvStore::TakeRedo(txn::TxnId id) {
  WriteSet ws;
  {
    MutexLock guard(mu_);
    auto it = pending_.find(id);
    if (it == pending_.end()) return "";
    ws = std::move(it->second);
    pending_.erase(it);
  }
  std::string redo;
  EncodeWrites(ws, &redo);
  return redo;
}

void KvStore::DropRedo(txn::TxnId id) { AbortTxn(id); }

Status KvStore::ApplyRedo(uint64_t stamp, const Slice& redo) {
  Slice input = redo;
  WriteSet ws;
  RRQ_RETURN_IF_ERROR(DecodeWrites(&input, &ws));
  if (!input.empty()) return Status::Corruption("trailing redo bytes");
  MutexLock guard(mu_);
  ApplyLocked(ws, stamp);
  return Status::OK();
}

std::vector<std::string> KvStore::SnapshotRedo() const {
  std::vector<std::string> payloads;
  WriteSet chunk;
  auto flush = [&payloads, &chunk]() {
    payloads.emplace_back();
    EncodeWrites(chunk, &payloads.back());
    chunk.clear();
  };
  MutexLock guard(mu_);
  for (const auto& [key, e] : data_) {
    if (!e.live) continue;  // Every later write is newer than the cut.
    chunk.push_back(WriteOp{key, e.value});
    if (chunk.size() >= kEntriesPerSnapshotPayload) flush();
  }
  if (!chunk.empty()) flush();
  return payloads;
}

// ---------------------------------------------------------------------------
// Checkpointing

Status KvStore::Checkpoint() {
  if (options_.env == nullptr || options_.host != nullptr) return Status::OK();
  env::Env* env = options_.env;

  MutexLock guard(mu_);
  const uint64_t next_gen = generation_ + 1;

  // 1. Snapshot committed state.
  std::string snapshot;
  util::PutVarint64(&snapshot, live_);
  for (const auto& [key, e] : data_) {
    if (!e.live) continue;
    util::PutLengthPrefixed(&snapshot, key);
    util::PutLengthPrefixed(&snapshot, e.value);
  }
  RRQ_RETURN_IF_ERROR(
      env::WriteStringToFileSync(env, snapshot, CheckpointPath(next_gen)));

  // 2. Fresh WAL, re-logging in-flight prepares so in-doubt
  //    transactions stay resolvable, and in-flight one-phase commits,
  //    which the snapshot does not hold yet.
  std::unique_ptr<env::WritableFile> file;
  RRQ_RETURN_IF_ERROR(env->NewWritableFile(WalPath(next_gen), &file));
  auto new_wal = std::make_shared<wal::LogWriter>(std::move(file), 0,
                                                  options_.group_commit);
  for (const auto& [id, ws] : prepared_) {
    std::string record;
    EncodeWriteSet(id, ws, kRecPrepare, &record);
    RRQ_RETURN_IF_ERROR(new_wal->AddRecord(record));
  }
  for (const auto& [id, ws] : committing_) {
    std::string record;
    EncodeWriteSet(id, ws, kRecCommitted, &record);
    RRQ_RETURN_IF_ERROR(new_wal->AddRecord(record));
  }
  RRQ_RETURN_IF_ERROR(new_wal->Sync());

  // 3. Activate.
  std::string current;
  util::PutVarint64(&current, next_gen);
  RRQ_RETURN_IF_ERROR(env::WriteStringToFileSync(env, current, CurrentPath()));

  // 4. Retire the old generation.
  RemoveRetiredFile(WalPath(generation_));
  RemoveRetiredFile(CheckpointPath(generation_));
  generation_ = next_gen;
  wal_ = std::move(new_wal);
  checkpoints_.fetch_add(1, std::memory_order_relaxed);
  return Status::OK();
}

void KvStore::RemoveRetiredFile(const std::string& path) {
  Status s = options_.env->RemoveFile(path);
  if (s.ok() || s.IsNotFound()) return;  // Gen 0 has no checkpoint file.
  remove_failures_.fetch_add(1, std::memory_order_relaxed);
  RRQ_LOG(kWarn) << name_ << ": failed to retire " << path << ": "
                 << s.ToString() << " (recovery GC will re-attempt)";
}

uint64_t KvStore::wal_bytes() const {
  MutexLock guard(mu_);
  return wal_ == nullptr ? 0 : wal_->PhysicalSize();
}

uint64_t KvStore::wal_sync_count() const {
  MutexLock guard(mu_);
  return wal_ == nullptr ? 0 : wal_->sync_count();
}

uint64_t KvStore::wal_sync_request_count() const {
  MutexLock guard(mu_);
  return wal_ == nullptr ? 0 : wal_->sync_request_count();
}

}  // namespace rrq::storage
