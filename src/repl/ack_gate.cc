#include "repl/ack_gate.h"

#include <utility>

#include "util/logging.h"

namespace rrq::repl {

namespace {

// Consecutive ack timeouts after which the gate degrades to async.
constexpr uint32_t kDegradeAfter = 2;

}  // namespace

AckGate::AckGate(ReplicationLog* log, std::function<bool()> shipping,
                 uint64_t timeout_micros)
    : log_(log),
      shipping_(std::move(shipping)),
      timeout_micros_(timeout_micros) {}

bool AckGate::degraded() const {
  return misses_.load(std::memory_order_acquire) >= kDegradeAfter;
}

Status AckGate::WaitForHead() {
  calls_.fetch_add(1, std::memory_order_relaxed);
  const uint64_t head = log_->head_seq();
  if (head <= log_->acked()) return Status::OK();
  if (degraded()) {
    if (!shipping_()) return Status::OK();  // Backup still unreachable.
    if (misses_.exchange(0, std::memory_order_acq_rel) >=
        kDegradeAfter) {
      RRQ_LOG(kWarn) << "ack_gate: re-engaged (sender shipping)";
    }
  }
  waits_.fetch_add(1, std::memory_order_relaxed);
  Status s = log_->WaitAcked(head, timeout_micros_);
  if (s.IsUnavailable()) {
    timeouts_.fetch_add(1, std::memory_order_relaxed);
    if (misses_.fetch_add(1, std::memory_order_acq_rel) + 1 ==
        kDegradeAfter) {
      RRQ_LOG(kWarn) << "ack_gate: degraded to async after "
                     << kDegradeAfter << " ack timeouts";
    }
  } else if (s.ok()) {
    misses_.store(0, std::memory_order_release);
  }
  return s;
}

}  // namespace rrq::repl
