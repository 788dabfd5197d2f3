#ifndef RRQ_SERVER_EXEC_BACKEND_H_
#define RRQ_SERVER_EXEC_BACKEND_H_

#include <memory>
#include <string>

#include "env/env.h"
#include "queue/queue_repository.h"
#include "server/server.h"
#include "storage/kv_store.h"
#include "txn/txn_manager.h"
#include "util/status.h"

namespace rrq::server {

/// rrqd's durable back end under one state directory: the transaction
/// coordinator in <dir>/txn, the queue repository in <dir>/qm, and the
/// demo database, a KvStore hosted on that repository. The database
/// keeps no files: its writes ride the queue log and its replication
/// stream, so a server transaction commits with one force however many
/// queue shards it touches, and a backup's database follows its
/// primary's.
class ExecBackend {
 public:
  ExecBackend() = default;
  ExecBackend(const ExecBackend&) = delete;
  ExecBackend& operator=(const ExecBackend&) = delete;

  /// Opens (recovering) every component under `dir`. `repo_options`
  /// supplies the shard count, sync options and replication sink; its
  /// env, dir and in-doubt resolver are set here. Fails with
  /// FailedPrecondition when <dir>/db holds files: a standalone
  /// database with its own WAL, whose state the hosted one lacks.
  Status Open(env::Env* env, const std::string& dir,
              queue::RepositoryOptions repo_options);

  /// The demo request handler. It counts the executions of each rid
  /// under "exec/<rid>" in the database, inside the request's
  /// transaction, and replies "done:<rid>:<count>", so the database
  /// shows how many committed server transactions processed each
  /// request. With a non-empty `audit_queue` it also enqueues
  /// "exec:<rid>:<count>" there in the same transaction.
  RequestHandler Handler(const std::string& audit_queue);

  txn::TransactionManager* txn_mgr() { return txn_mgr_.get(); }
  queue::QueueRepository* repo() { return repo_.get(); }
  storage::KvStore* db() { return db_.get(); }

 private:
  // Destroyed in reverse: the store before the repository hosting it,
  // both before the coordinator their in-doubt resolver asks.
  std::unique_ptr<txn::TransactionManager> txn_mgr_;
  std::unique_ptr<queue::QueueRepository> repo_;
  std::unique_ptr<storage::KvStore> db_;
};

}  // namespace rrq::server

#endif  // RRQ_SERVER_EXEC_BACKEND_H_
