#include "client/streaming_client.h"

namespace rrq::client {

StreamingClient::StreamingClient(Options options, StreamProcessor processor)
    : processor_(std::move(processor)) {
  const int window = options.window < 1 ? 1 : options.window;
  for (int s = 0; s < window; ++s) {
    ReliableClientOptions rc;
    rc.clerk.client_id = options.client_id + "/s" + std::to_string(s);
    rc.clerk.request_queue = options.request_queue;
    rc.clerk.reply_queue = options.reply_queue_prefix + std::to_string(s);
    rc.clerk.api = options.api;
    rc.clerk.receive_timeout_micros = options.receive_timeout_micros;
    rc.max_recovery_attempts = options.max_recovery_attempts;
    slots_.push_back(std::make_unique<ReliableClient>(
        std::move(rc), [this](const queue::ReplyEnvelope& reply, bool) {
          if (processor_ == nullptr) return Status::OK();
          return processor_(reply.rid, reply.body, reply.success);
        }));
  }
}

Status StreamingClient::Start() {
  for (auto& slot : slots_) RRQ_RETURN_IF_ERROR(slot->Start());
  return Status::OK();
}

Result<int> StreamingClient::Poll() {
  int finished = 0;
  for (auto& slot : slots_) {
    if (!slot->in_flight()) continue;
    RRQ_ASSIGN_OR_RETURN(ReliableClient::PolledReply reply, slot->Poll());
    if (reply.has_value()) ++finished;
  }
  return finished;
}

Result<std::string> StreamingClient::Submit(const Slice& body) {
  // Poll the window until a slot opens; each slot's receive budgets
  // bound the wait.
  for (;;) {
    for (auto& slot : slots_) {
      if (!slot->in_flight()) return slot->Submit(body);
    }
    RRQ_RETURN_IF_ERROR(Poll().status());
  }
}

Status StreamingClient::Drain() {
  while (in_flight() > 0) RRQ_RETURN_IF_ERROR(Poll().status());
  return Status::OK();
}

Status StreamingClient::Stop() {
  Status result = Status::OK();
  for (auto& slot : slots_) {
    Status s = slot->Stop();
    if (!s.ok() && result.ok()) result = s;
  }
  return result;
}

uint64_t StreamingClient::completed() const {
  uint64_t total = 0;
  for (const auto& slot : slots_) total += slot->completed();
  return total;
}

int StreamingClient::in_flight() const {
  int total = 0;
  for (const auto& slot : slots_) total += slot->in_flight() ? 1 : 0;
  return total;
}

}  // namespace rrq::client
