#include "wal/log_writer.h"

#include <cstring>

#include "util/coding.h"
#include "util/crc32c.h"
#include "wal/log_format.h"

namespace rrq::wal {

LogWriter::LogWriter(std::unique_ptr<env::WritableFile> dest,
                     uint64_t initial_offset, bool group_commit)
    : dest_(std::move(dest)),
      group_commit_(group_commit),
      block_offset_(static_cast<int>(initial_offset % kBlockSize)),
      physical_size_(initial_offset),
      durable_offset_(initial_offset) {}

Status LogWriter::AddRecord(const Slice& record, uint64_t* end_offset) {
  MutexLock guard(mu_);
  RRQ_RETURN_IF_ERROR(error_);
  // A half-written record would hide every later one from the reader,
  // so a failed append poisons the writer like a failed sync.
  Status s = AppendLocked(record, end_offset);
  if (!s.ok()) error_ = s;
  return s;
}

Status LogWriter::AppendLocked(const Slice& record, uint64_t* end_offset) {
  const char* ptr = record.data();
  size_t left = record.size();

  // Fragment the record as needed. Empty records emit one zero-length
  // FULL fragment.
  bool begin = true;
  do {
    const int leftover = kBlockSize - block_offset_;
    if (leftover < kHeaderSize) {
      // Zero-fill the block trailer and start a new block.
      if (leftover > 0) {
        static const char kZeroes[kHeaderSize] = {0};
        RRQ_RETURN_IF_ERROR(
            dest_->Append(Slice(kZeroes, static_cast<size_t>(leftover))));
        physical_size_ += static_cast<uint64_t>(leftover);
      }
      block_offset_ = 0;
    }

    const size_t avail = static_cast<size_t>(kBlockSize) -
                         static_cast<size_t>(block_offset_) - kHeaderSize;
    const size_t fragment_length = left < avail ? left : avail;
    const bool end = (left == fragment_length);

    unsigned char type;
    if (begin && end) {
      type = kFullType;
    } else if (begin) {
      type = kFirstType;
    } else if (end) {
      type = kLastType;
    } else {
      type = kMiddleType;
    }

    RRQ_RETURN_IF_ERROR(EmitPhysicalRecord(type, ptr, fragment_length));
    ptr += fragment_length;
    left -= fragment_length;
    begin = false;
  } while (left > 0);
  records_.fetch_add(1, std::memory_order_relaxed);
  if (end_offset != nullptr) *end_offset = physical_size_;
  return Status::OK();
}

Status LogWriter::EmitPhysicalRecord(unsigned char type, const char* ptr,
                                     size_t n) {
  char buf[kHeaderSize];
  buf[4] = static_cast<char>(n & 0xff);
  buf[5] = static_cast<char>(n >> 8);
  buf[6] = static_cast<char>(type);

  uint32_t crc = util::crc32c::Extend(
      util::crc32c::Value(reinterpret_cast<char*>(&buf[6]), 1), ptr, n);
  util::EncodeFixed32(buf, util::crc32c::Mask(crc));

  RRQ_RETURN_IF_ERROR(dest_->Append(Slice(buf, kHeaderSize)));
  RRQ_RETURN_IF_ERROR(dest_->Append(Slice(ptr, n)));
  block_offset_ += kHeaderSize + static_cast<int>(n);
  physical_size_ += kHeaderSize + n;
  return Status::OK();
}

Status LogWriter::SyncTo(uint64_t offset) {
  if (!group_commit_) {
    // Per-operation mode: every committer pays its own physical sync,
    // serialized. This is the baseline group commit is measured
    // against.
    sync_requests_.fetch_add(1, std::memory_order_relaxed);
    MutexLock guard(sync_mu_);
    uint64_t target;
    {
      MutexLock append_guard(mu_);
      RRQ_RETURN_IF_ERROR(error_);
      target = physical_size_;
    }
    Status s = dest_->Flush();
    if (s.ok()) s = dest_->Sync();
    if (!s.ok()) return Poison(s);
    physical_syncs_.fetch_add(1, std::memory_order_relaxed);
    if (target > durable_offset_) durable_offset_ = target;
    return Status::OK();
  }

  MutexLock lock(sync_mu_);
  RRQ_RETURN_IF_ERROR(error());
  if (durable_offset_ >= offset) return Status::OK();  // Already covered.
  sync_requests_.fetch_add(1, std::memory_order_relaxed);
  while (true) {
    if (durable_offset_ >= offset) return Status::OK();  // Leader covered us.
    if (!sync_in_progress_) break;
    sync_cv_.Wait(sync_mu_);
    RRQ_RETURN_IF_ERROR(error());  // The leader's sync failed.
  }

  // Become the sync leader. The physical sync runs without sync_mu_ so
  // new committers can append and queue up behind this round.
  sync_in_progress_ = true;
  lock.Unlock();

  // Snapshot the append frontier first: the sync below covers at least
  // these bytes (it may cover more — that only over-delivers
  // durability, which is always safe for a redo-only log).
  uint64_t target;
  {
    MutexLock append_guard(mu_);
    target = physical_size_;
  }
  Status s = dest_->Flush();
  if (s.ok()) s = dest_->Sync();
  // Fail-stop: after a failed fsync the kernel may already have dropped
  // the dirty pages, so no later sync could vouch for these bytes. The
  // error sticks, and every waiter and later caller gets it.
  if (!s.ok()) Poison(s);

  lock.Lock();
  sync_in_progress_ = false;
  if (s.ok()) {
    physical_syncs_.fetch_add(1, std::memory_order_relaxed);
    if (target > durable_offset_) durable_offset_ = target;
  }
  sync_cv_.SignalAll();
  return s;
}

Status LogWriter::Poison(const Status& s) {
  MutexLock guard(mu_);
  if (error_.ok()) error_ = s;
  return error_;
}

Status LogWriter::error() const {
  MutexLock guard(mu_);
  return error_;
}

Status LogWriter::Sync() { return SyncTo(PhysicalSize()); }

uint64_t LogWriter::PhysicalSize() const {
  MutexLock guard(mu_);
  return physical_size_;
}

uint64_t LogWriter::durable_offset() const {
  MutexLock guard(sync_mu_);
  return durable_offset_;
}

}  // namespace rrq::wal
