#ifndef RRQ_TESTING_CRASH_SWEEP_H_
#define RRQ_TESTING_CRASH_SWEEP_H_

#include <cstdint>
#include <string>
#include <vector>

namespace rrq::testing {

/// Configuration for one crash-point sweep of the canonical workload.
struct SweepConfig {
  /// Group commit on the repository / store / coordinator WALs, vs the
  /// per-operation-sync baseline. The sweep must pass in both modes.
  bool group_commit = true;
  /// Crash with torn writes: instead of dropping every unsynced byte,
  /// each file keeps a uniformly random prefix of its unsynced tail
  /// (so the WAL's CRC framing, not sync ordering alone, carries the
  /// recovery guarantee).
  bool torn_writes = false;
  /// Seed for the torn-write truncation; k is mixed in per crash point.
  uint64_t torn_seed = 0xc4a54;
  /// Requests in the canonical workload. A checkpoint of both stores
  /// is taken mid-stream (after requests/2) and again at the end. A
  /// hosted-store cycle makes only 6 mutating I/O operations (three
  /// appends, three syncs), so 10 requests keep N above 100.
  int requests = 10;
  /// Run every stride-th crash index (1 = exhaustive). CI smoke runs
  /// use a stride > 1 on the torn configurations to bound time.
  uint64_t stride = 1;
  /// Shard count for the queue repository (per-shard WAL streams and
  /// checkpoint slices; 1 = the single-stream layout). The sweep's
  /// file-set invariant adapts to the per-shard naming. With more than
  /// one shard the request and reply queues sit on different shards,
  /// so every server transaction is a cross-shard commit.
  unsigned shards = 1;
  /// Run the KvStore standalone, with its own WAL under db/, instead of
  /// hosted on the queue repository (rrqd's wiring). Every server cycle
  /// is then a two-participant 2PC through the decision log.
  bool standalone_store = false;
};

/// Outcome of a sweep.
struct SweepResult {
  /// N: mutating I/O operations in the uncrashed canonical workload —
  /// the size of the crash-index space.
  uint64_t total_ops = 0;
  /// Crash points actually exercised (N / stride, plus the baseline).
  uint64_t points_run = 0;
  /// Human-readable invariant violations, tagged with the crash index
  /// and mode. Empty means the paper's §3 guarantees (exactly-once
  /// execution, at-least-once reply, request-reply matching), the
  /// registration-consistency checks, and the on-disk file-set
  /// invariant held at every exercised crash point.
  std::vector<std::string> violations;
};

/// Runs the canonical workload — Send / server-cycle / Receive over a
/// QueueRepository + KvStore (hosted on the repository, or standalone
/// with 2PC through the TransactionManager's decision log) with
/// mid-stream checkpoints —
/// under a CrashPointEnv, once per crash index k: the k-th mutating
/// I/O operation becomes a power failure, a fresh incarnation recovers
/// from the surviving bytes, resumes via the paper's Connect protocol,
/// finishes the workload, and every invariant is checked.
SweepResult RunCrashSweep(const SweepConfig& config);

}  // namespace rrq::testing

#endif  // RRQ_TESTING_CRASH_SWEEP_H_
