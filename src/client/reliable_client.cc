#include "client/reliable_client.h"

#include <chrono>
#include <thread>

#include "util/logging.h"

namespace rrq::client {

namespace {

// Statuses after which the clerk dropped its session for §2
// uncertainty — the op may have committed server-side (connectivity
// loss, a transport deadline expiry, or a reply that arrived but
// failed to decode). Recover by reconnecting and comparing rids.
// (TimedOut only reaches here from a Send — a Receive's TimedOut is
// consumed by the poll branch first — and a timed-out Send is as
// in-doubt as a lost acknowledgement.)
bool NeedsReconnect(const Status& s) {
  return s.IsUnavailable() || s.IsNotConnected() || s.IsCorruption() ||
         s.IsTimedOut();
}

}  // namespace

ReliableClient::ReliableClient(ReliableClientOptions options,
                               ReplyProcessor processor)
    : options_(std::move(options)), processor_(std::move(processor)) {}

std::string ReliableClient::MakeRid() {
  return options_.clerk.client_id + "#" + std::to_string(next_seq_++);
}

uint64_t ReliableClient::ParseSeq(const std::string& rid) {
  const size_t pos = rid.rfind('#');
  if (pos == std::string::npos) return 0;
  errno = 0;
  char* end = nullptr;
  const unsigned long long seq = strtoull(rid.c_str() + pos + 1, &end, 10);
  if (end == rid.c_str() + pos + 1 || errno != 0) return 0;
  return seq;
}

std::string ReliableClient::DeviceState() const {
  return options_.device == nullptr ? std::string() :
                                      options_.device->ReadState();
}

Status ReliableClient::Reconnect(ConnectResult* result) {
  Status last = Status::Unavailable("no reconnect attempts made");
  for (int attempt = 0; attempt < options_.max_recovery_attempts; ++attempt) {
    clerk_ = std::make_unique<Clerk>(options_.clerk);
    auto r = clerk_->Connect();
    if (r.ok()) {
      *result = *r;
      const uint64_t recovered = ParseSeq(r->s_rid);
      if (recovered >= next_seq_) next_seq_ = recovered + 1;
      ++reconnects_;
      return Status::OK();
    }
    last = r.status();
    if (!last.IsUnavailable() && !last.IsTimedOut()) return last;
    // Transient: back off briefly and retry (real time; partitions in
    // tests heal asynchronously).
    std::this_thread::sleep_for(std::chrono::milliseconds(1 + attempt));
  }
  return last;
}

Status ReliableClient::Start() {
  if (started_) return Status::FailedPrecondition("already started");
  ConnectResult cr;
  RRQ_RETURN_IF_ERROR(Reconnect(&cr));

  // Fig 2 lines 2–11: connect-time resynchronization. In both branches
  // the receive loop does the work: with an outstanding request it
  // receives the pending reply; with a received-but-maybe-unprocessed
  // reply (state Reply-Recvd) it rereads the retained copy and
  // reprocesses unless the testable device proves it was processed.
  rid_ = cr.s_rid;
  wire_.clear();  // The previous incarnation's request is not resendable.
  if (in_flight()) BeginReceive(cr.ckpt);
  while (in_flight()) RRQ_RETURN_IF_ERROR(Poll().status());
  started_ = true;
  return Status::OK();
}

Result<std::string> ReliableClient::Execute(const Slice& request) {
  // A request an earlier call left in flight is finished first, as
  // Fig 2's Connect finishes one: the session holds one at a time.
  while (in_flight()) RRQ_RETURN_IF_ERROR(Poll().status());
  RRQ_RETURN_IF_ERROR(Submit(request).status());
  PolledReply reply;
  while (!reply.has_value()) {
    RRQ_ASSIGN_OR_RETURN(reply, Poll());
  }
  if (!reply->success) {
    return Status::Aborted("request failed permanently: " + reply->body);
  }
  return std::move(reply->body);
}

Result<std::string> ReliableClient::Submit(const Slice& request) {
  if (!started_) return Status::FailedPrecondition("client not started");
  if (!rid_.empty()) {
    return Status::FailedPrecondition("request already in flight: " + rid_);
  }
  rid_ = MakeRid();
  queue::RequestEnvelope envelope;
  envelope.rid = rid_;
  envelope.reply_queue = options_.clerk.reply_queue;
  envelope.body = request.ToString();
  wire_ = queue::EncodeRequestEnvelope(envelope);
  sends_ = 0;
  Status s = SendInFlight();
  if (!s.ok()) return Settle(s);
  return rid_;
}

Status ReliableClient::SendInFlight() {
  // Send with in-doubt resolution (§2).
  for (int attempt = 0; attempt < options_.max_recovery_attempts; ++attempt) {
    Status s = clerk_->Send(wire_, rid_);
    // A FailedPrecondition in Req-Sent for this rid: a resend found
    // the request already sent.
    if (s.ok() || (s.IsFailedPrecondition() &&
                   clerk_->state() == SessionState::kReqSent &&
                   clerk_->last_sent_rid() == rid_)) {
      BeginReceive("");
      return Status::OK();
    }
    if (!NeedsReconnect(s)) return s;
    // The send is in doubt. Reconnect and ask the system what it saw.
    ConnectResult cr;
    RRQ_RETURN_IF_ERROR(Reconnect(&cr));
    if (cr.s_rid == rid_) {
      BeginReceive("");  // The enqueue committed; only the ack was lost.
      return Status::OK();
    }
    // Otherwise the request never arrived: loop and resend. Because
    // the rid is compared, a resend can never double-submit.
  }
  return Status::Unavailable("could not submit request: " + rid_);
}

void ReliableClient::BeginReceive(const std::string& ckpt) {
  resume_ckpt_ = ckpt;
  resumed_with_reply_ = clerk_->state() == SessionState::kReplyRecvd;
  polls_ = recoveries_ = 0;
}

Result<ReliableClient::PolledReply> ReliableClient::Poll() {
  if (rid_.empty()) return Status::FailedPrecondition("no request in flight");
  Result<PolledReply> reply = Step();
  if (!reply.ok() && in_flight()) return Settle(reply.status());
  return reply;
}

Status ReliableClient::Settle(const Status& s) {
  const bool absent = clerk_->state() != SessionState::kDisconnected &&
                      clerk_->last_sent_rid() != rid_;
  if ((s.IsUnavailable() || s.IsTimedOut()) && !absent) {
    polls_ = recoveries_ = sends_ = 0;
  } else {
    rid_.clear();
  }
  return s;
}

Result<ReliableClient::PolledReply> ReliableClient::Step() {
  if (polls_ >= options_.max_poll_attempts ||
      recoveries_ >= options_.max_recovery_attempts) {
    return Status::Unavailable("no reply for " + rid_);
  }
  if (resumed_with_reply_) {
    // The dequeue committed (a reconnect told us so) but we never saw
    // the contents — read the retained copy (this is what Rereceive
    // exists for, §3).
    auto replay = clerk_->Rereceive();
    if (replay.ok()) return Finish(*replay, /*reread=*/true);
    const Status& s = replay.status();
    // NOT Corruption: a corrupt retained element stays corrupt across
    // reconnects.
    if (!s.IsUnavailable() && !s.IsNotConnected()) return s;
    RRQ_RETURN_IF_ERROR(Recover());
    return PolledReply();
  }

  auto r = clerk_->Receive(DeviceState());
  if (r.ok()) return Finish(*r, /*reread=*/false);
  const Status& s = r.status();
  if (s.IsTimedOut() || s.IsBusy() || s.IsNotFound()) {
    ++polls_;
    // One-way sends are unacknowledged: after a stretch of fruitless
    // polls, reconnect and ask whether the request ever arrived (§5:
    // "can determine what happened when it reconnects").
    if (options_.clerk.send_mode == SendMode::kOneWay && polls_ % 8 == 0) {
      RRQ_RETURN_IF_ERROR(Recover());
    }
    return PolledReply();  // Reply not there yet; poll again.
  }
  if (!NeedsReconnect(s)) return s;
  // Uncertainty: the dequeue may or may not have committed.
  RRQ_RETURN_IF_ERROR(Recover());
  return PolledReply();
}

Result<ReliableClient::PolledReply> ReliableClient::Finish(
    const std::string& raw, bool reread) {
  // The reply is in hand: the request ends here, processed or not.
  const std::string rid = std::move(rid_);
  rid_.clear();
  queue::ReplyEnvelope reply;
  RRQ_RETURN_IF_ERROR(queue::DecodeReplyEnvelope(raw, &reply));
  if (reply.rid != rid) {
    // The protocol guarantees Request-Reply Matching; a mismatch means
    // the reply queue is shared or corrupted.
    return Status::Internal("reply rid mismatch: expected " + rid + ", got " +
                            reply.rid);
  }
  // A reread reply may have been processed before the failure; only
  // the device can prove it was, by no longer holding the ckpt the
  // reconnect reported. Without one it is redelivered.
  const bool maybe_duplicate = reread && options_.device == nullptr;
  const bool already_processed =
      reread && options_.device != nullptr && DeviceState() != resume_ckpt_;
  if (maybe_duplicate) ++redeliveries_;
  // The processor first (display etc., at-least-once), the
  // non-idempotent device last: a crash in between makes the resync
  // logic reprocess, re-running the processor but emitting exactly
  // once overall.
  if (!already_processed && processor_ != nullptr) {
    RRQ_RETURN_IF_ERROR(processor_(reply, maybe_duplicate));
  }
  if (!already_processed && options_.device != nullptr) {
    RRQ_RETURN_IF_ERROR(options_.device->Emit(reply.body));
  }
  ++completed_;
  return PolledReply(std::move(reply));
}

Status ReliableClient::Recover() {
  ++recoveries_;
  ConnectResult cr;
  RRQ_RETURN_IF_ERROR(Reconnect(&cr));
  if (cr.s_rid == rid_) {
    resume_ckpt_ = cr.ckpt;
    resumed_with_reply_ = cr.r_rid == rid_;
    return Status::OK();  // Otherwise back in Req-Sent: Receive again.
  }
  // The request is not in the system at all, possible only for a lost
  // one-way send: resend this rid.
  if (wire_.empty()) {
    return Status::NotFound("request not in the system: " + rid_);
  }
  if (++sends_ >= options_.max_recovery_attempts) {
    return Status::Unavailable("could not complete request: " + rid_);
  }
  return SendInFlight();
}

Result<ConnectResult> ReliableClient::Resynchronize() {
  ConnectResult cr;
  RRQ_RETURN_IF_ERROR(Reconnect(&cr));
  return cr;
}

Result<bool> ReliableClient::CancelInFlight() {
  if (clerk_ == nullptr) return Status::FailedPrecondition("not connected");
  return clerk_->CancelLastRequest();
}

Status ReliableClient::Stop() {
  if (!started_) return Status::OK();
  started_ = false;
  if (clerk_ != nullptr && clerk_->state() != SessionState::kDisconnected) {
    return clerk_->Disconnect();
  }
  return Status::OK();
}

}  // namespace rrq::client
