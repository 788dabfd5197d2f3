#ifndef RRQ_CLIENT_RELIABLE_CLIENT_H_
#define RRQ_CLIENT_RELIABLE_CLIENT_H_

#include <functional>
#include <memory>
#include <optional>
#include <string>

#include "client/clerk.h"
#include "client/testable_device.h"
#include "queue/envelope.h"
#include "util/result.h"

namespace rrq::client {

/// Called for each reply, at least once per request, with the decoded
/// reply envelope (its rid, success flag and body). With a
/// TestableDevice configured, exactly once (the device's state
/// deduplicates). The second argument is true when this delivery may
/// be a repeat (post-recovery redelivery).
using ReplyProcessor = std::function<Status(const queue::ReplyEnvelope& reply,
                                            bool maybe_duplicate)>;

struct ReliableClientOptions {
  ClerkOptions clerk;
  /// Optional: the non-idempotent output device replies are fed to.
  /// Not owned; outlives the client (it is "hardware").
  TestableDevice* device = nullptr;
  /// How many reconnect attempts before an operation reports
  /// Unavailable to the caller.
  int max_recovery_attempts = 32;
  /// How many Receive timeouts (each bounded by the clerk's
  /// receive_timeout_micros) to tolerate while waiting for a slow
  /// server, independent of the recovery budget.
  int max_poll_attempts = 200;
};

/// The complete client program of Fig 2: a fault-tolerant sequential
/// program wrapping a Clerk, and the one session recovery loop in the
/// client library. Execute() rides out lost messages, queue-manager
/// restarts and partitions by reconnecting and comparing rids, and
/// delivers the paper's guarantees: exactly-once request processing,
/// at-least-once reply processing (exactly-once with a device).
///
/// Execute() is Submit() followed by Poll() until the reply arrives.
/// The phases are public so one thread can keep several clients'
/// requests in flight (StreamingClient); ClerkPool runs Execute.
class ReliableClient {
 public:
  /// What Poll() returns: empty while the reply is outstanding.
  using PolledReply = std::optional<queue::ReplyEnvelope>;

  ReliableClient(ReliableClientOptions options, ReplyProcessor processor);

  ReliableClient(const ReliableClient&) = delete;
  ReliableClient& operator=(const ReliableClient&) = delete;

  /// Connects and resynchronizes. If the previous incarnation died
  /// with a request in flight, its reply is received and processed
  /// here; if it died holding an unprocessed reply, the reply is
  /// reprocessed (unless the device proves it was processed).
  Status Start();

  /// Sends `request` under a fresh rid and returns the processed
  /// reply. Retries across failures until the reply is obtained or
  /// recovery attempts are exhausted. A request an earlier call left
  /// in flight (see Poll) is finished first.
  Result<std::string> Execute(const Slice& request);

  /// Execute's first phase: sends `request` under a fresh rid,
  /// resolving an in-doubt send by reconnecting and comparing rids
  /// (§2), and returns the rid. One request may be in flight at a time.
  /// An error ends the request, except as in Poll.
  Result<std::string> Submit(const Slice& request);

  /// Execute's second phase, one step: at most one Receive (bounded by
  /// the clerk's receive timeout) or the recovery its failure calls
  /// for. Returns the reply once it arrived and was processed, which
  /// ends the request, as does a permanent error. A transient one
  /// (Unavailable, TimedOut: a budget ran out, a reconnect failed)
  /// ends it only if a reconnect proved the system never got it;
  /// otherwise the next Poll resumes it with fresh budgets.
  Result<PolledReply> Poll();

  /// True from Submit until the request ends.
  bool in_flight() const { return !rid_.empty(); }

  /// Cancels the in-flight request, if any (§7).
  Result<bool> CancelInFlight();

  Status Stop();

  /// Reconnects the clerk now (bounded attempts) and returns the
  /// connect-time resynchronization result, without receiving or
  /// processing a pending reply: for callers driving the clerk
  /// directly (a pipelined pool) that resolve the recovered rids.
  Result<ConnectResult> Resynchronize();

  /// Number of requests successfully completed by this incarnation.
  uint64_t completed() const { return completed_; }
  /// Replies that were (possibly) delivered more than once to the
  /// processor.
  uint64_t redeliveries() const { return redeliveries_; }
  /// Successful clerk reconnects (1 = just the initial Start connect;
  /// more = recoveries after connectivity loss).
  uint64_t reconnects() const { return reconnects_; }

  Clerk* clerk() { return clerk_.get(); }

 private:
  // Makes "<client_id>#<seq>" rids; seq continues from the recovered
  // rid so rids stay unique across incarnations.
  std::string MakeRid();
  static uint64_t ParseSeq(const std::string& rid);
  std::string DeviceState() const;
  // Reconnects (bounded attempts with backoff) and reports what the
  // system remembers for this client.
  Status Reconnect(ConnectResult* result);
  // Applies Poll's rule after the request in flight failed with `s`:
  // ends it or resets its budgets. Returns `s`.
  Status Settle(const Status& s);
  // Sends the request in flight until the system holds it, then arms
  // a fresh receive loop.
  Status SendInFlight();
  // Arms a fresh receive loop; `ckpt` as in resume_ckpt_.
  void BeginReceive(const std::string& ckpt);
  // One iteration of the receive loop, for Poll.
  Result<PolledReply> Step();
  // Ends the request in flight with its reply: verifies Request-Reply
  // Matching and processes it, unless a `reread` one provably was.
  Result<PolledReply> Finish(const std::string& raw, bool reread);
  // Reconnects and asks the system what it saw for the request in
  // flight; resends it if it never arrived (a lost one-way send).
  Status Recover();

  ReliableClientOptions options_;
  ReplyProcessor processor_;
  std::unique_ptr<Clerk> clerk_;
  uint64_t next_seq_ = 1;
  uint64_t completed_ = 0;
  uint64_t redeliveries_ = 0;
  uint64_t reconnects_ = 0;
  bool started_ = false;

  // The request in flight ("" rid: none) and its receive loop's state.
  std::string rid_;
  std::string wire_;  // Its encoded envelope, kept for a resend.
  // The ckpt the most recent Connect reported, for the device's "was
  // it already processed?" comparison.
  std::string resume_ckpt_;
  // True only when a Connect proved the dequeue for *this* rid
  // committed (r_rid == rid); a raw Reply-Recvd clerk state can refer
  // to the previous request after a mid-await reconnect.
  bool resumed_with_reply_ = false;
  // Timeouts (server still working), recoveries (connectivity lost)
  // and sends (one-way messages lost) spend separate budgets.
  int polls_ = 0;
  int recoveries_ = 0;
  int sends_ = 0;
};

}  // namespace rrq::client

#endif  // RRQ_CLIENT_RELIABLE_CLIENT_H_
