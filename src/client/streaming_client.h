#ifndef RRQ_CLIENT_STREAMING_CLIENT_H_
#define RRQ_CLIENT_STREAMING_CLIENT_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "client/reliable_client.h"
#include "queue/queue_api.h"
#include "util/result.h"

namespace rrq::client {

/// §11's future-work extension, built: "One could extend the Client
/// Model to support streaming of requests and replies, as in the
/// Mercury system."
///
/// A StreamingClient keeps a window of K requests outstanding at once.
/// Each window slot is a ReliableClient with its own registrant
/// ("<client>/s<slot>") and reply queue, so the §3 one-request-at-a-time
/// discipline and every guarantee hold *per slot* while the client
/// pipelines K requests deep: §5's "concurrency within a client" driven
/// from one thread. Submit hands a request to a free slot and Poll
/// steps the busy ones, so every recovery runs in ReliableClient.
///
/// Single-threaded.
class StreamingClient {
 public:
  /// Called once per finished request (at least once per rid).
  using StreamProcessor = std::function<Status(
      const std::string& rid, const std::string& reply, bool success)>;

  struct Options {
    std::string client_id;
    std::string request_queue;
    /// Slot s uses reply queue "<reply_queue_prefix><s>"; the queues
    /// must exist (RequestSystem::MakeStreamingClient creates them).
    std::string reply_queue_prefix;
    queue::QueueApi* api = nullptr;
    int window = 4;
    /// Per-Receive poll bound while collecting replies.
    uint64_t receive_timeout_micros = 20'000;
    int max_recovery_attempts = 32;
  };

  StreamingClient(Options options, StreamProcessor processor);

  StreamingClient(const StreamingClient&) = delete;
  StreamingClient& operator=(const StreamingClient&) = delete;

  /// Starts every slot (ReliableClient::Start), so each processes the
  /// reply its previous incarnation may have left unprocessed.
  Status Start();

  /// Submits one request, blocking (by polling for replies) only when
  /// the window is full. Returns the rid assigned to the request.
  Result<std::string> Submit(const Slice& body);

  /// Collects any replies that have arrived; returns how many finished.
  Result<int> Poll();

  /// Blocks until every outstanding request has finished. After an
  /// error, requests that a transient failure stopped stay in flight
  /// and a later Poll or Drain resumes them (ReliableClient::Poll).
  Status Drain();

  Status Stop();

  uint64_t completed() const;
  int in_flight() const;
  int window() const { return static_cast<int>(slots_.size()); }

 private:
  StreamProcessor processor_;
  std::vector<std::unique_ptr<ReliableClient>> slots_;
};

}  // namespace rrq::client

#endif  // RRQ_CLIENT_STREAMING_CLIENT_H_
