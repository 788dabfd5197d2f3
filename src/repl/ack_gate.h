#ifndef RRQ_REPL_ACK_GATE_H_
#define RRQ_REPL_ACK_GATE_H_

#include <atomic>
#include <cstdint>
#include <functional>

#include "repl/replication_log.h"
#include "util/status.h"

namespace rrq::repl {

/// The ack-mode reply gate of a replicating primary — its
/// output-commit point. Commits only append to the ReplicationLog;
/// a client op's reply leaves once the backup acknowledged every record
/// the log held when the op finished. That covers the op's own records
/// and everything it observed: the repository's per-shard delivery
/// tickets append a commit's record before any later commit on the
/// same shard, so an element's insert precedes the dequeue that
/// consumed it.
///
/// After two consecutive ack timeouts the gate degrades to async (the
/// semi-sync escape: an unreachable backup must not throttle the
/// primary to one op per timeout); it re-engages on the first call
/// that finds `shipping()` true again.
/// Between ReplicationLog::BeginSnapshot and EndSnapshot the wait
/// returns OK at once (no consistent backup exists mid-seed).
///
/// Thread-safe.
class AckGate {
 public:
  /// `log` is not owned and must outlive the gate. `shipping` reports
  /// whether the sender currently has a live shipping session.
  /// `timeout_micros` bounds one wait for the backup's ack; a timeout
  /// is surfaced as Unavailable and the local commit stands.
  AckGate(ReplicationLog* log, std::function<bool()> shipping,
          uint64_t timeout_micros);

  AckGate(const AckGate&) = delete;
  AckGate& operator=(const AckGate&) = delete;

  /// Blocks until the backup acked the log's head as it stands now.
  /// Unavailable on ack timeout, Cancelled after log shutdown.
  Status WaitForHead();

  /// True while degraded to async.
  bool degraded() const;

  /// Gate calls, calls that parked on an unacked head, and timeouts.
  uint64_t calls() const { return calls_.load(std::memory_order_relaxed); }
  uint64_t waits() const { return waits_.load(std::memory_order_relaxed); }
  uint64_t timeouts() const {
    return timeouts_.load(std::memory_order_relaxed);
  }

 private:
  ReplicationLog* const log_;
  const std::function<bool()> shipping_;
  const uint64_t timeout_micros_;

  std::atomic<uint32_t> misses_{0};  // Consecutive timeouts.
  std::atomic<uint64_t> calls_{0};
  std::atomic<uint64_t> waits_{0};
  std::atomic<uint64_t> timeouts_{0};
};

}  // namespace rrq::repl

#endif  // RRQ_REPL_ACK_GATE_H_
