#include "server/exec_backend.h"

#include <cstdlib>
#include <string>
#include <vector>

namespace rrq::server {

Status ExecBackend::Open(env::Env* env, const std::string& dir,
                         queue::RepositoryOptions repo_options) {
  RRQ_RETURN_IF_ERROR(env->CreateDirIfMissing(dir));
  // A database in <dir>/db kept its own WAL; its state is not in the
  // queue log, so opening past it would restart every count at zero.
  std::vector<std::string> standalone;
  if (env->GetChildren(dir + "/db", &standalone).ok() &&
      !standalone.empty()) {
    return Status::FailedPrecondition(
        dir + "/db holds a standalone database; the hosted one cannot "
              "take over its state");
  }
  txn::TxnManagerOptions txn_options;
  txn_options.env = env;
  txn_options.dir = dir + "/txn";
  txn_mgr_ = std::make_unique<txn::TransactionManager>(txn_options);
  RRQ_RETURN_IF_ERROR(txn_mgr_->Open());

  repo_options.env = env;
  repo_options.dir = dir + "/qm";
  txn::TransactionManager* tm = txn_mgr_.get();
  repo_options.in_doubt_resolver = [tm](txn::TxnId id) {
    return tm->WasCommitted(id);
  };
  repo_ = std::make_unique<queue::QueueRepository>("qm", repo_options);
  storage::KvStoreOptions db_options;
  db_options.host = repo_.get();  // Hosted before the repository recovers.
  db_ = std::make_unique<storage::KvStore>("db", db_options);
  RRQ_RETURN_IF_ERROR(repo_->Open());
  return db_->Open();
}

RequestHandler ExecBackend::Handler(const std::string& audit_queue) {
  return [db = db_.get(), repo = repo_.get(), audit_queue](
             txn::Transaction* t,
             const queue::RequestEnvelope& request) -> Result<std::string> {
    const std::string key = "exec/" + request.rid;
    uint64_t count = 0;
    auto prior = db->GetForUpdate(t, key);
    if (prior.ok()) {
      count = std::strtoull(prior->c_str(), nullptr, 10);
    } else if (!prior.status().IsNotFound()) {
      return prior.status();
    }
    ++count;
    RRQ_RETURN_IF_ERROR(db->Put(t, key, std::to_string(count)));
    if (!audit_queue.empty()) {
      auto eid = repo->Enqueue(
          t, audit_queue,
          Slice("exec:" + request.rid + ":" + std::to_string(count)));
      if (!eid.ok()) return eid.status();
    }
    return "done:" + request.rid + ":" + std::to_string(count);
  };
}

}  // namespace rrq::server
