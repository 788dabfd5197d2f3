#include "net/queue_wire.h"

#include "net/frame.h"
#include "util/coding.h"

namespace rrq::net {

void EncodeElement(const queue::Element& e, std::string* out) {
  util::PutFixed64(out, e.eid);
  util::PutVarint32(out, e.priority);
  util::PutVarint32(out, e.abort_count);
  util::PutLengthPrefixed(out, e.abort_code);
  util::PutLengthPrefixed(out, e.contents);
}

Status DecodeElement(Slice* input, queue::Element* e) {
  RRQ_RETURN_IF_ERROR(util::GetFixed64(input, &e->eid));
  RRQ_RETURN_IF_ERROR(util::GetVarint32(input, &e->priority));
  RRQ_RETURN_IF_ERROR(util::GetVarint32(input, &e->abort_count));
  RRQ_RETURN_IF_ERROR(util::GetLengthPrefixedString(input, &e->abort_code));
  RRQ_RETURN_IF_ERROR(util::GetLengthPrefixedString(input, &e->contents));
  return Status::OK();
}

void EncodeQueueOptions(const queue::QueueOptions& options, std::string* out) {
  util::PutVarint32(out, options.max_aborts);
  util::PutLengthPrefixed(out, options.error_queue);
  out->push_back(options.durable ? 1 : 0);
  out->push_back(static_cast<char>(options.policy));
  util::PutVarint64(out, options.alert_threshold);
  util::PutLengthPrefixed(out, options.redirect_to);
}

Status DecodeQueueOptions(Slice* input, queue::QueueOptions* options) {
  RRQ_RETURN_IF_ERROR(util::GetVarint32(input, &options->max_aborts));
  RRQ_RETURN_IF_ERROR(
      util::GetLengthPrefixedString(input, &options->error_queue));
  if (input->size() < 2) return Status::Corruption("truncated queue options");
  options->durable = (*input)[0] != 0;
  const unsigned char policy = static_cast<unsigned char>((*input)[1]);
  if (policy > static_cast<unsigned char>(queue::DequeuePolicy::kStrictFifo)) {
    return Status::Corruption("invalid dequeue policy byte");
  }
  options->policy = static_cast<queue::DequeuePolicy>(policy);
  input->remove_prefix(2);
  uint64_t alert = 0;
  RRQ_RETURN_IF_ERROR(util::GetVarint64(input, &alert));
  options->alert_threshold = static_cast<size_t>(alert);
  RRQ_RETURN_IF_ERROR(
      util::GetLengthPrefixedString(input, &options->redirect_to));
  return Status::OK();
}

void EncodeReplStatusInfo(const ReplStatusInfo& info, std::string* out) {
  util::PutLengthPrefixed(out, info.role);
  util::PutLengthPrefixed(out, info.state);
  util::PutFixed64(out, info.stream_id);
  util::PutFixed64(out, info.acked_seq);
  util::PutFixed64(out, info.head_seq);
  util::PutFixed64(out, info.reconnects);
  out->push_back(info.promoted ? 1 : 0);
  util::PutLengthPrefixed(out, info.last_error);
}

Status DecodeReplStatusInfo(Slice* input, ReplStatusInfo* info) {
  RRQ_RETURN_IF_ERROR(util::GetLengthPrefixedString(input, &info->role));
  RRQ_RETURN_IF_ERROR(util::GetLengthPrefixedString(input, &info->state));
  RRQ_RETURN_IF_ERROR(util::GetFixed64(input, &info->stream_id));
  RRQ_RETURN_IF_ERROR(util::GetFixed64(input, &info->acked_seq));
  RRQ_RETURN_IF_ERROR(util::GetFixed64(input, &info->head_seq));
  RRQ_RETURN_IF_ERROR(util::GetFixed64(input, &info->reconnects));
  if (input->empty()) return Status::Corruption("truncated repl status");
  info->promoted = (*input)[0] != 0;
  input->remove_prefix(1);
  return util::GetLengthPrefixedString(input, &info->last_error);
}

bool QueueRequestMayBlock(const Slice& request) {
  Slice input = request;
  if (input.empty() ||
      static_cast<unsigned char>(input[0]) != kOpDequeue) {
    return false;
  }
  input.remove_prefix(1);
  std::string queue, registrant, tag;
  uint64_t timeout = 0;
  if (!util::GetLengthPrefixedString(&input, &queue).ok() ||
      !util::GetLengthPrefixedString(&input, &registrant).ok() ||
      !util::GetLengthPrefixedString(&input, &tag).ok() ||
      !util::GetFixed64(&input, &timeout).ok()) {
    return false;
  }
  return timeout > 0;
}

// ---------------------------------------------------------------------------
// QueueServiceDispatcher

namespace {

// The ops an unpromoted backup refuses and whose replies wait for the
// backup's ack on a replicating primary.
bool MutatesState(unsigned char op) {
  switch (op) {
    case kOpRegister:
    case kOpDeregister:
    case kOpEnqueue:
    case kOpDequeue:
    case kOpKill:
    case kOpCreateQueue:
      return true;
    default:
      return false;
  }
}

}  // namespace

Status QueueServiceDispatcher::Handle(const Slice& request,
                                      std::string* reply) {
  return Serve(request, reply, /*gate_reply=*/true);
}

void QueueServiceDispatcher::HandleOneWay(const Slice& request) {
  std::string ignored;
  Status s = Serve(request, &ignored, /*gate_reply=*/false);
  (void)s;  // Nobody to tell: a one-way sender gets no failure signal.
}

Status QueueServiceDispatcher::Serve(const Slice& request, std::string* reply,
                                     bool gate_reply) {
  Slice input = request;
  if (input.empty()) return Status::InvalidArgument("empty request");
  const unsigned char op = static_cast<unsigned char>(input[0]);
  input.remove_prefix(1);

  std::string queue;
  RRQ_RETURN_IF_ERROR(util::GetLengthPrefixedString(&input, &queue));

  const bool mutates = MutatesState(op);
  // An unpromoted backup refuses mutations but keeps serving reads
  // and admin ops, so clerks probing a not-yet-promoted daemon get a
  // clean verdict instead of divergent state.
  if (mutates && write_gate_) {
    Status gate = write_gate_();
    if (!gate.ok()) {
      EncodeStatus(gate, reply);
      return Status::OK();
    }
  }
  const size_t start = reply->size();
  RRQ_RETURN_IF_ERROR(Dispatch(op, queue, input, reply));
  if (mutates && gate_reply && reply_gate_) {
    Status gate = reply_gate_();
    if (!gate.ok()) {
      // The commit stands; the client resolves the outcome (§2).
      reply->resize(start);
      EncodeStatus(gate, reply);
    }
  }
  return Status::OK();
}

Status QueueServiceDispatcher::Dispatch(unsigned char op,
                                        const std::string& queue, Slice input,
                                        std::string* reply) {
  switch (op) {
    case kOpRegister: {
      std::string registrant;
      RRQ_RETURN_IF_ERROR(util::GetLengthPrefixedString(&input, &registrant));
      if (input.empty()) return Status::Corruption("truncated register");
      const bool stable = input[0] != 0;
      auto r = repo_->Register(queue, registrant, stable);
      EncodeStatus(r.status(), reply);
      if (r.ok()) {
        reply->push_back(r->was_registered ? 1 : 0);
        reply->push_back(static_cast<char>(r->last_op));
        util::PutFixed64(reply, r->last_eid);
        util::PutLengthPrefixed(reply, r->last_tag);
        util::PutLengthPrefixed(reply, r->last_element);
      }
      return Status::OK();
    }
    case kOpDeregister: {
      std::string registrant;
      RRQ_RETURN_IF_ERROR(util::GetLengthPrefixedString(&input, &registrant));
      EncodeStatus(repo_->Deregister(queue, registrant), reply);
      return Status::OK();
    }
    case kOpEnqueue: {
      std::string contents, registrant, tag;
      uint32_t priority = 0;
      RRQ_RETURN_IF_ERROR(util::GetLengthPrefixedString(&input, &contents));
      RRQ_RETURN_IF_ERROR(util::GetVarint32(&input, &priority));
      RRQ_RETURN_IF_ERROR(util::GetLengthPrefixedString(&input, &registrant));
      RRQ_RETURN_IF_ERROR(util::GetLengthPrefixedString(&input, &tag));
      auto r = repo_->Enqueue(nullptr, queue, contents, priority, registrant,
                              tag);
      EncodeStatus(r.status(), reply);
      if (r.ok()) util::PutFixed64(reply, *r);
      return Status::OK();
    }
    case kOpDequeue: {
      std::string registrant, tag;
      uint64_t timeout = 0;
      RRQ_RETURN_IF_ERROR(util::GetLengthPrefixedString(&input, &registrant));
      RRQ_RETURN_IF_ERROR(util::GetLengthPrefixedString(&input, &tag));
      RRQ_RETURN_IF_ERROR(util::GetFixed64(&input, &timeout));
      auto r = repo_->Dequeue(nullptr, queue, registrant, tag, timeout);
      EncodeStatus(r.status(), reply);
      if (r.ok()) EncodeElement(*r, reply);
      return Status::OK();
    }
    case kOpRead: {
      uint64_t eid = 0;
      RRQ_RETURN_IF_ERROR(util::GetFixed64(&input, &eid));
      auto r = repo_->Read(queue, eid);
      EncodeStatus(r.status(), reply);
      if (r.ok()) EncodeElement(*r, reply);
      return Status::OK();
    }
    case kOpKill: {
      uint64_t eid = 0;
      RRQ_RETURN_IF_ERROR(util::GetFixed64(&input, &eid));
      auto r = repo_->KillElement(nullptr, queue, eid);
      EncodeStatus(r.status(), reply);
      if (r.ok()) reply->push_back(*r ? 1 : 0);
      return Status::OK();
    }
    case kOpCreateQueue: {
      queue::QueueOptions options;
      RRQ_RETURN_IF_ERROR(DecodeQueueOptions(&input, &options));
      EncodeStatus(repo_->CreateQueue(queue, options), reply);
      return Status::OK();
    }
    case kOpDepth: {
      auto r = repo_->Depth(queue);
      EncodeStatus(r.status(), reply);
      if (r.ok()) util::PutFixed64(reply, *r);
      return Status::OK();
    }
    case kOpReplStatus: {
      ReplStatusInfo info;
      if (repl_status_fn_) {
        info = repl_status_fn_();
      } else {
        info.role = "standalone";
        info.state = "none";
      }
      EncodeStatus(Status::OK(), reply);
      EncodeReplStatusInfo(info, reply);
      return Status::OK();
    }
    case kOpPromote: {
      Status s = promote_fn_
                     ? promote_fn_()
                     : Status::FailedPrecondition("daemon is not a backup");
      EncodeStatus(s, reply);
      return Status::OK();
    }
    default:
      return Status::InvalidArgument("unknown queue-service op");
  }
}

// ---------------------------------------------------------------------------
// ChannelQueueApi

namespace {

// CallOptions for a Dequeue carrying `timeout_micros` of server-side
// wait: the transport must outlast the server's park plus transit
// (saturating; a 0 timeout keeps the channel default).
CallOptions DequeueCallOptions(uint64_t timeout_micros) {
  CallOptions options;
  if (timeout_micros > 0) {
    options.min_deadline_micros =
        timeout_micros > UINT64_MAX - kBlockingCallMarginMicros
            ? UINT64_MAX
            : timeout_micros + kBlockingCallMarginMicros;
  }
  return options;
}

}  // namespace

Status ChannelQueueApi::CallService(const std::string& request,
                                    std::string* payload,
                                    const CallOptions& options) {
  std::string reply;
  RRQ_RETURN_IF_ERROR(channel_->Call(request, &reply, options));
  Slice input(reply);
  Status s = DecodeStatus(&input);
  if (!s.ok()) return s;
  payload->assign(input.data(), input.size());
  return Status::OK();
}

Result<queue::RegistrationInfo> ChannelQueueApi::Register(
    const std::string& queue, const std::string& registrant, bool stable) {
  std::string request;
  request.push_back(static_cast<char>(kOpRegister));
  util::PutLengthPrefixed(&request, queue);
  util::PutLengthPrefixed(&request, registrant);
  request.push_back(stable ? 1 : 0);
  std::string payload;
  RRQ_RETURN_IF_ERROR(CallService(request, &payload));
  Slice input(payload);
  if (input.size() < 2) return Status::Corruption("truncated register reply");
  queue::RegistrationInfo info;
  info.was_registered = input[0] != 0;
  const unsigned char op = static_cast<unsigned char>(input[1]);
  if (op > static_cast<unsigned char>(queue::OpType::kDequeue)) {
    return Status::Corruption("invalid op-type byte in register reply");
  }
  info.last_op = static_cast<queue::OpType>(op);
  input.remove_prefix(2);
  RRQ_RETURN_IF_ERROR(util::GetFixed64(&input, &info.last_eid));
  RRQ_RETURN_IF_ERROR(util::GetLengthPrefixedString(&input, &info.last_tag));
  RRQ_RETURN_IF_ERROR(
      util::GetLengthPrefixedString(&input, &info.last_element));
  return info;
}

Status ChannelQueueApi::Deregister(const std::string& queue,
                                   const std::string& registrant) {
  std::string request;
  request.push_back(static_cast<char>(kOpDeregister));
  util::PutLengthPrefixed(&request, queue);
  util::PutLengthPrefixed(&request, registrant);
  std::string payload;
  return CallService(request, &payload);
}

Result<queue::ElementId> ChannelQueueApi::Enqueue(
    const std::string& queue, const Slice& contents, uint32_t priority,
    const std::string& registrant, const Slice& tag, bool one_way) {
  std::string request;
  request.push_back(static_cast<char>(kOpEnqueue));
  util::PutLengthPrefixed(&request, queue);
  util::PutLengthPrefixed(&request, contents);
  util::PutVarint32(&request, priority);
  util::PutLengthPrefixed(&request, registrant);
  util::PutLengthPrefixed(&request, tag);
  if (one_way) {
    // Fire-and-forget (§5): one message, no eid back, no failure signal.
    RRQ_RETURN_IF_ERROR(channel_->SendOneWay(request));
    return queue::kInvalidElementId;
  }
  std::string payload;
  RRQ_RETURN_IF_ERROR(CallService(request, &payload));
  Slice input(payload);
  uint64_t eid = 0;
  RRQ_RETURN_IF_ERROR(util::GetFixed64(&input, &eid));
  return eid;
}

Result<queue::Element> ChannelQueueApi::Dequeue(const std::string& queue,
                                                const std::string& registrant,
                                                const Slice& tag,
                                                uint64_t timeout_micros) {
  std::string request;
  request.push_back(static_cast<char>(kOpDequeue));
  util::PutLengthPrefixed(&request, queue);
  util::PutLengthPrefixed(&request, registrant);
  util::PutLengthPrefixed(&request, tag);
  util::PutFixed64(&request, timeout_micros);
  std::string payload;
  // A blocking dequeue's deadline must cover the server's full wait
  // bound, not the channel default (see kBlockingCallMarginMicros).
  RRQ_RETURN_IF_ERROR(
      CallService(request, &payload, DequeueCallOptions(timeout_micros)));
  Slice input(payload);
  queue::Element element;
  RRQ_RETURN_IF_ERROR(DecodeElement(&input, &element));
  return element;
}

void ChannelQueueApi::EnqueueAsync(
    const std::string& queue, const Slice& contents, uint32_t priority,
    const std::string& registrant, const Slice& tag, bool one_way,
    std::function<void(Result<queue::ElementId>)> done) {
  std::string request;
  request.push_back(static_cast<char>(kOpEnqueue));
  util::PutLengthPrefixed(&request, queue);
  util::PutLengthPrefixed(&request, contents);
  util::PutVarint32(&request, priority);
  util::PutLengthPrefixed(&request, registrant);
  util::PutLengthPrefixed(&request, tag);
  if (one_way) {
    // Fire-and-forget (§5): nothing to wait for, complete inline.
    Status s = channel_->SendOneWay(request);
    if (!s.ok()) {
      done(std::move(s));
      return;
    }
    done(queue::ElementId{queue::kInvalidElementId});
    return;
  }
  channel_->CallAsync(
      request, [done = std::move(done)](Status s, std::string reply) {
        if (!s.ok()) {
          done(std::move(s));
          return;
        }
        Slice input(reply);
        Status service = DecodeStatus(&input);
        if (!service.ok()) {
          done(std::move(service));
          return;
        }
        uint64_t eid = 0;
        Status parsed = util::GetFixed64(&input, &eid);
        if (!parsed.ok()) {
          done(std::move(parsed));
          return;
        }
        done(queue::ElementId{eid});
      });
}

void ChannelQueueApi::DequeueAsync(
    const std::string& queue, const std::string& registrant, const Slice& tag,
    uint64_t timeout_micros, std::function<void(Result<queue::Element>)> done) {
  std::string request;
  request.push_back(static_cast<char>(kOpDequeue));
  util::PutLengthPrefixed(&request, queue);
  util::PutLengthPrefixed(&request, registrant);
  util::PutLengthPrefixed(&request, tag);
  util::PutFixed64(&request, timeout_micros);
  channel_->CallAsync(
      request, DequeueCallOptions(timeout_micros),
      [done = std::move(done)](Status s, std::string reply) {
        if (!s.ok()) {
          done(std::move(s));
          return;
        }
        Slice input(reply);
        Status service = DecodeStatus(&input);
        if (!service.ok()) {
          done(std::move(service));
          return;
        }
        queue::Element element;
        Status parsed = DecodeElement(&input, &element);
        if (!parsed.ok()) {
          done(std::move(parsed));
          return;
        }
        done(std::move(element));
      });
}

Result<queue::Element> ChannelQueueApi::Read(const std::string& queue,
                                             queue::ElementId eid) {
  std::string request;
  request.push_back(static_cast<char>(kOpRead));
  util::PutLengthPrefixed(&request, queue);
  util::PutFixed64(&request, eid);
  std::string payload;
  RRQ_RETURN_IF_ERROR(CallService(request, &payload));
  Slice input(payload);
  queue::Element element;
  RRQ_RETURN_IF_ERROR(DecodeElement(&input, &element));
  return element;
}

Result<bool> ChannelQueueApi::KillElement(const std::string& queue,
                                          queue::ElementId eid) {
  std::string request;
  request.push_back(static_cast<char>(kOpKill));
  util::PutLengthPrefixed(&request, queue);
  util::PutFixed64(&request, eid);
  std::string payload;
  RRQ_RETURN_IF_ERROR(CallService(request, &payload));
  if (payload.empty()) return Status::Corruption("truncated kill reply");
  return payload[0] != 0;
}

Status ChannelQueueApi::CreateQueue(const std::string& queue,
                                    const queue::QueueOptions& options) {
  std::string request;
  request.push_back(static_cast<char>(kOpCreateQueue));
  util::PutLengthPrefixed(&request, queue);
  EncodeQueueOptions(options, &request);
  std::string payload;
  return CallService(request, &payload);
}

Result<size_t> ChannelQueueApi::Depth(const std::string& queue) {
  std::string request;
  request.push_back(static_cast<char>(kOpDepth));
  util::PutLengthPrefixed(&request, queue);
  std::string payload;
  RRQ_RETURN_IF_ERROR(CallService(request, &payload));
  Slice input(payload);
  uint64_t depth = 0;
  RRQ_RETURN_IF_ERROR(util::GetFixed64(&input, &depth));
  return static_cast<size_t>(depth);
}

Result<ReplStatusInfo> ChannelQueueApi::ReplicationStatus() {
  std::string request;
  request.push_back(static_cast<char>(kOpReplStatus));
  util::PutLengthPrefixed(&request, "");
  std::string payload;
  RRQ_RETURN_IF_ERROR(CallService(request, &payload));
  Slice input(payload);
  ReplStatusInfo info;
  RRQ_RETURN_IF_ERROR(DecodeReplStatusInfo(&input, &info));
  return info;
}

Status ChannelQueueApi::Promote() {
  std::string request;
  request.push_back(static_cast<char>(kOpPromote));
  util::PutLengthPrefixed(&request, "");
  std::string payload;
  return CallService(request, &payload);
}

}  // namespace rrq::net
