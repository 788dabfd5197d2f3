#ifndef RRQ_TXN_RESOURCE_MANAGER_H_
#define RRQ_TXN_RESOURCE_MANAGER_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "txn/types.h"
#include "util/slice.h"
#include "util/status.h"

namespace rrq::txn {

/// A participant in transaction commit. Queue repositories, the
/// recoverable KV store, the application-lock table, and even the
/// paper's "reply processor" (a testable display device) implement
/// this interface; the TransactionManager drives them through
/// one-phase or two-phase commit.
///
/// Contract:
///  - Prepare(t): make t's effects durable-but-undoable and vote. After
///    an OK vote the participant must be able to either commit or
///    abort t, surviving its own crash (in-doubt resolution goes back
///    to the coordinator, presumed abort).
///  - CommitTxn(t): make t's effects visible and permanent. Must
///    succeed once Prepare voted yes (failures here are fatal
///    invariant violations, not vetoes).
///  - AbortTxn(t): undo all of t's effects. Must be idempotent and
///    must work both before and after Prepare.
class ResourceManager {
 public:
  virtual ~ResourceManager() = default;

  /// Stable diagnostic name ("queue-repo:/bank", "kv:/accounts", ...).
  virtual std::string_view rm_name() const = 0;

  virtual Status Prepare(TxnId txn) = 0;
  virtual Status CommitTxn(TxnId txn) = 0;
  virtual void AbortTxn(TxnId txn) = 0;

  /// One-phase-commit fast path used when this is the only participant:
  /// the participant may fuse the prepare and commit records into one
  /// durable write. A failure means the transaction aborted (the
  /// coordinator will call AbortTxn). Default: Prepare then CommitTxn.
  virtual Status PrepareAndCommit(TxnId txn) {
    Status s = Prepare(txn);
    if (!s.ok()) return s;
    return CommitTxn(txn);
  }
};

/// A store that keeps no log of its own: its writes commit inside the
/// commit record of a StoreHost (a KvStore hosted on a
/// QueueRepository). The host carries each transaction's write set as
/// an opaque redo payload with a stamp that grows with commit order,
/// and hands committed redo back on commit, log replay, checkpoint
/// load and replication, in no particular order across its log
/// streams.
class HostedStore {
 public:
  virtual ~HostedStore() = default;

  /// Removes `txn`'s write set and returns it as redo ("" when the
  /// transaction wrote nothing here).
  virtual std::string TakeRedo(TxnId txn) = 0;
  /// Forgets `txn`'s write set: the transaction aborted.
  virtual void DropRedo(TxnId txn) = 0;
  /// Applies committed redo, last writer wins by `stamp`, so replay
  /// order does not matter. Stamp 0 is older than every commit.
  virtual Status ApplyRedo(uint64_t stamp, const Slice& redo) = 0;
  /// The committed state as redo payloads, to be applied with stamp 0
  /// (checkpoints and replica seeds).
  virtual std::vector<std::string> SnapshotRedo() const = 0;
};

/// A ResourceManager whose commit records can carry a HostedStore's
/// writes. A transaction that writes the store enlists the host.
class StoreHost : public ResourceManager {
 public:
  /// Attaches `store`. Call before the host recovers its log; the
  /// store must outlive every later commit, replay and replicated
  /// apply.
  virtual void HostStore(HostedStore* store) = 0;
};

}  // namespace rrq::txn

#endif  // RRQ_TXN_RESOURCE_MANAGER_H_
