#include "repl/replica_applier.h"

#include <algorithm>
#include <utility>

#include "repl/repl_wire.h"
#include "util/coding.h"

namespace rrq::repl {

ReplicaApplier::ReplicaApplier(ReplicaApplierOptions options)
    : options_(std::move(options)) {}

std::string ReplicaApplier::StreamPath() const {
  return options_.dir.empty() ? "REPL_STREAM"
                              : options_.dir + "/REPL_STREAM";
}

Status ReplicaApplier::Open() {
  MutexLock lock(apply_mu_);
  if (options_.env == nullptr) return Status::OK();
  const std::string path = StreamPath();
  if (!options_.env->FileExists(path)) return Status::OK();
  std::string data;
  RRQ_RETURN_IF_ERROR(env::ReadFileToString(options_.env, path, &data));
  Slice input(data);
  uint64_t id = 0;
  RRQ_RETURN_IF_ERROR(util::GetFixed64(&input, &id));
  if (id == 0) return Status::Corruption("zero stream id");
  stream_id_ = id;
  return Status::OK();
}

Status ReplicaApplier::PersistStreamId(uint64_t stream) {
  stream_id_ = stream;
  if (options_.env == nullptr) return Status::OK();
  std::string data;
  util::PutFixed64(&data, stream);
  return env::WriteStringToFileSync(options_.env, data, StreamPath());
}

uint64_t ReplicaApplier::stream_id() const {
  MutexLock lock(apply_mu_);
  return stream_id_;
}

uint64_t ReplicaApplier::Promote() {
  MutexLock lock(apply_mu_);  // Lets any in-flight batch finish first.
  promoted_.store(true, std::memory_order_release);
  snapshot_active_ = false;
  return options_.repo->applied_repl_seq();
}

Status ReplicaApplier::Handle(const Slice& request, std::string* reply) {
  Slice input = request;
  unsigned char op = 0;
  uint64_t stream = 0;
  // Too malformed to attribute: let the transport drop the connection.
  RRQ_RETURN_IF_ERROR(DecodeRequestHeader(&input, &op, &stream));

  MutexLock lock(apply_mu_);
  Status app;
  uint64_t watermark = options_.repo->applied_repl_seq();
  if (promoted_.load(std::memory_order_acquire)) {
    app = Status::FailedPrecondition("backup promoted; stream closed");
  } else if (stream == 0) {
    app = Status::InvalidArgument("zero stream id");
  } else {
    switch (op) {
      case kReplHello:
        app = HandleHello(stream, &watermark);
        break;
      case kReplShip:
        app = HandleShip(stream, &input, &watermark);
        break;
      case kReplSnapshotBegin:
        app = HandleSnapshotBegin(stream, &input, &watermark);
        break;
      case kReplSnapshotChunk:
        app = HandleSnapshotChunk(stream, &input, &watermark);
        break;
      case kReplSnapshotEnd:
        app = HandleSnapshotEnd(stream, &watermark);
        break;
      default:
        return Status::Corruption("unknown repl op");
    }
  }
  EncodeReplReply(app, watermark, reply);
  return Status::OK();
}

Status ReplicaApplier::HandleHello(uint64_t stream, uint64_t* watermark) {
  *watermark = options_.repo->applied_repl_seq();
  if (stream_id_ == stream) return Status::OK();  // Resume.
  if (stream_id_ != 0) {
    return Status::FailedPrecondition(
        "bound to another stream; reseed required");
  }
  // Fresh stream: only an empty repository may adopt one (anything
  // else is leftover state from a crashed seed or a previous life —
  // applying a new stream over it would diverge silently).
  if (*watermark != 0 || !options_.repo->ListQueues().empty()) {
    return Status::FailedPrecondition(
        "unseeded state present; reseed required");
  }
  return Status::OK();  // Adoption happens at snapshot end.
}

Status ReplicaApplier::HandleShip(uint64_t stream, Slice* body,
                                  uint64_t* watermark) {
  uint64_t first_seq = 0;
  std::vector<std::string> records;
  RRQ_RETURN_IF_ERROR(DecodeShipBody(body, &first_seq, &records));
  ships_.fetch_add(1, std::memory_order_relaxed);
  if (stream_id_ == 0 || stream != stream_id_) {
    return Status::FailedPrecondition("unknown stream; hello first");
  }
  if (first_seq == 0) return Status::InvalidArgument("zero ship seq");
  uint64_t applied = options_.repo->applied_repl_seq();
  if (first_seq > applied + 1) {
    gaps_.fetch_add(1, std::memory_order_relaxed);
    *watermark = applied;
    return Status::FailedPrecondition("sequence gap; rewind to watermark");
  }
  // One commit for the whole batch: the backup forces once per batch,
  // not once per record.
  const uint64_t end = first_seq + records.size();
  const uint64_t fresh_from = std::min(std::max(first_seq, applied + 1), end);
  Status s = options_.repo->ApplyReplicatedBatch(records, first_seq);
  *watermark = options_.repo->applied_repl_seq();
  if (!s.ok()) return s;
  duplicates_.fetch_add(fresh_from - first_seq, std::memory_order_relaxed);
  applied_.fetch_add(end - fresh_from, std::memory_order_relaxed);
  return Status::OK();
}

Status ReplicaApplier::HandleSnapshotBegin(uint64_t stream, Slice* body,
                                           uint64_t* watermark) {
  uint64_t barrier = 0;
  RRQ_RETURN_IF_ERROR(DecodeSnapshotBeginBody(body, &barrier));
  if (barrier == 0) {
    // A zero-barrier seed would commit watermark 0 — indistinguishable
    // from "never seeded" on the next hello, which then tries to
    // re-seed the bound stream and wedges. The sender pads its log so
    // this never happens; refuse it outright from anyone else.
    return Status::InvalidArgument("zero snapshot barrier");
  }
  if (stream_id_ != 0) {
    return Status::FailedPrecondition(
        "bound to another stream; reseed required");
  }
  if (options_.repo->applied_repl_seq() != 0 ||
      !options_.repo->ListQueues().empty()) {
    return Status::FailedPrecondition(
        "unseeded state present; reseed required");
  }
  snapshot_active_ = true;
  snapshot_stream_ = stream;
  snapshot_barrier_ = barrier;
  *watermark = 0;
  return Status::OK();
}

Status ReplicaApplier::HandleSnapshotChunk(uint64_t stream, Slice* body,
                                           uint64_t* watermark) {
  std::string record;
  RRQ_RETURN_IF_ERROR(DecodeSnapshotChunkBody(body, &record));
  if (!snapshot_active_ || stream != snapshot_stream_) {
    return Status::FailedPrecondition("no snapshot in progress");
  }
  // Untracked apply: the watermark only moves at snapshot end, so an
  // interrupted seed is detectable (state present, no stream file).
  Status s = options_.repo->ApplyReplicatedRecord(Slice(record), 0);
  if (!s.ok()) {
    snapshot_active_ = false;  // Poison the seed; sender restarts it.
    return s;
  }
  applied_.fetch_add(1, std::memory_order_relaxed);
  *watermark = 0;
  return Status::OK();
}

Status ReplicaApplier::HandleSnapshotEnd(uint64_t stream,
                                         uint64_t* watermark) {
  if (!snapshot_active_ || stream != snapshot_stream_) {
    return Status::FailedPrecondition("no snapshot in progress");
  }
  // Order matters: the watermark record commits (durably, through the
  // repository's WAL) before the stream file appears, so a crash
  // between the two still reads as "seed incomplete".
  RRQ_RETURN_IF_ERROR(
      options_.repo->CommitReplWatermark(snapshot_barrier_));
  RRQ_RETURN_IF_ERROR(PersistStreamId(stream));
  snapshot_active_ = false;
  *watermark = options_.repo->applied_repl_seq();
  return Status::OK();
}

}  // namespace rrq::repl
