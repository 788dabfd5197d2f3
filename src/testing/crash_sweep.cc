#include "testing/crash_sweep.h"

#include <memory>
#include <set>
#include <string>

#include "client/clerk.h"
#include "core/property_checker.h"
#include "env/crash_point_env.h"
#include "env/mem_env.h"
#include "queue/envelope.h"
#include "queue/queue_api.h"
#include "queue/queue_repository.h"
#include "server/server.h"
#include "storage/kv_store.h"
#include "txn/txn_manager.h"
#include "util/coding.h"
#include "util/random.h"

namespace rrq::testing {

namespace {

constexpr char kRequestQueue[] = "requests";
constexpr char kReplyQueue[] = "reply.c";
constexpr char kClientId[] = "c";

std::string Rid(int i) { return std::string(kClientId) + "#" + std::to_string(i); }

// Index encoded in a "c#<i>" rid; -1 for anything malformed.
int RidIndex(const std::string& rid) {
  const size_t pos = rid.find('#');
  if (pos == std::string::npos || pos + 1 >= rid.size()) return -1;
  int value = 0;
  for (size_t i = pos + 1; i < rid.size(); ++i) {
    if (rid[i] < '0' || rid[i] > '9') return -1;
    value = value * 10 + (rid[i] - '0');
  }
  return value;
}

// Decimal parse of the counters the handler stores; -1 on garbage.
int64_t ParseCount(const std::string& s) {
  if (s.empty()) return -1;
  int64_t value = 0;
  for (char c : s) {
    if (c < '0' || c > '9') return -1;
    value = value * 10 + (c - '0');
  }
  return value;
}

// One incarnation of the node: coordinator, repository, store, server,
// and the client-side clerk. Declaration order matters — the
// reverse-order destruction tears the server and clerk down before the
// stores, a hosted store before its host, and the stores before the
// coordinator their in-doubt resolver points at.
struct Harness {
  std::unique_ptr<txn::TransactionManager> txn_mgr;
  std::unique_ptr<queue::QueueRepository> repo;
  std::unique_ptr<storage::KvStore> kv;
  std::unique_ptr<queue::LocalQueueApi> api;
  std::unique_ptr<server::Server> server;
  std::unique_ptr<client::Clerk> clerk;
};

// The handler gives "executed" durable weight: it bumps both a per-rid
// execution count and a global counter in the KvStore, inside the
// request's transaction. A hosted store's writes ride the queue log,
// stamped, and recovery replays the shards in parallel, so the counts
// also check stamp-ordered replay; a standalone store makes every
// server cycle a two-participant 2PC through the decision log. The
// per-rid counts are read back after recovery to judge exactly-once.
server::RequestHandler MakeHandler(storage::KvStore* kv) {
  return [kv](txn::Transaction* t, const queue::RequestEnvelope& request)
             -> Result<std::string> {
    int64_t executions = 0;
    auto prev = kv->GetForUpdate(t, "exec/" + request.rid);
    if (prev.ok()) {
      executions = ParseCount(*prev);
      if (executions < 0) return Status::Corruption("bad execution count");
    } else if (!prev.status().IsNotFound()) {
      return prev.status();
    }
    RRQ_RETURN_IF_ERROR(kv->Put(t, "exec/" + request.rid,
                                std::to_string(executions + 1)));

    int64_t total = 0;
    auto counter = kv->GetForUpdate(t, "counter");
    if (counter.ok()) {
      total = ParseCount(*counter);
      if (total < 0) return Status::Corruption("bad counter");
    } else if (!counter.status().IsNotFound()) {
      return counter.status();
    }
    RRQ_RETURN_IF_ERROR(kv->Put(t, "counter", std::to_string(total + 1)));
    return "ack:" + request.rid;
  };
}

Status BuildHarness(env::Env* env, const SweepConfig& cfg, Harness* h) {
  const bool group_commit = cfg.group_commit;
  txn::TxnManagerOptions topt;
  topt.env = env;
  topt.dir = "txn";
  topt.group_commit = group_commit;
  h->txn_mgr = std::make_unique<txn::TransactionManager>(topt);
  RRQ_RETURN_IF_ERROR(h->txn_mgr->Open());
  txn::TransactionManager* tm = h->txn_mgr.get();
  auto resolver = [tm](txn::TxnId id) { return tm->WasCommitted(id); };

  queue::RepositoryOptions ropt;
  ropt.env = env;
  ropt.dir = "qm";
  ropt.group_commit = group_commit;
  ropt.shards = cfg.shards;
  ropt.in_doubt_resolver = resolver;
  h->repo = std::make_unique<queue::QueueRepository>("qm", ropt);
  if (cfg.shards > 1 &&
      h->repo->shard_of(kRequestQueue) == h->repo->shard_of(kReplyQueue)) {
    return Status::InvalidArgument(
        "request and reply queues share a shard: no cross-shard commits");
  }

  storage::KvStoreOptions kopt;
  if (cfg.standalone_store) {
    kopt.env = env;
    kopt.dir = "db";
    kopt.group_commit = group_commit;
    kopt.in_doubt_resolver = resolver;
  } else {
    kopt.host = h->repo.get();  // Hosted before the repository recovers.
  }
  h->kv = std::make_unique<storage::KvStore>("db", kopt);
  RRQ_RETURN_IF_ERROR(h->kv->Open());
  RRQ_RETURN_IF_ERROR(h->repo->Open());

  h->api = std::make_unique<queue::LocalQueueApi>(h->repo.get());

  server::ServerOptions sopt;
  sopt.request_queue = kRequestQueue;
  sopt.default_reply_queue = kReplyQueue;
  sopt.poll_timeout_micros = 0;  // ProcessOne must never block.
  h->server = std::make_unique<server::Server>(sopt, h->repo.get(),
                                               h->txn_mgr.get(),
                                               MakeHandler(h->kv.get()));

  Status s = h->repo->CreateQueue(kRequestQueue);
  if (!s.ok() && !s.IsAlreadyExists()) return s;
  s = h->repo->CreateQueue(kReplyQueue);
  if (!s.ok() && !s.IsAlreadyExists()) return s;

  client::ClerkOptions copt;
  copt.client_id = kClientId;
  copt.request_queue = kRequestQueue;
  copt.reply_queue = kReplyQueue;
  copt.api = h->api.get();
  copt.receive_timeout_micros = 0;  // Lock-step: the reply is there or not.
  h->clerk = std::make_unique<client::Clerk>(copt);
  return Status::OK();
}

// Collects invariant violations for one crash point.
struct Judge {
  core::PropertyChecker checker;
  std::vector<std::string> violations;

  void Violation(std::string msg) { violations.push_back(std::move(msg)); }

  // Validates a received reply body against the expected rid.
  void Reply(const std::string& body, int expected_index) {
    queue::ReplyEnvelope reply;
    Status s = queue::DecodeReplyEnvelope(body, &reply);
    if (!s.ok()) {
      Violation("reply for " + Rid(expected_index) +
                " undecodable: " + s.ToString());
      return;
    }
    if (reply.rid != Rid(expected_index)) {
      checker.RecordMismatchedReply(reply.rid);
      Violation("reply mismatch: expected " + Rid(expected_index) + ", got " +
                reply.rid);
      return;
    }
    if (!reply.success) {
      Violation("failure reply for " + Rid(expected_index));
      return;
    }
    checker.RecordReplyProcessed(reply.rid);
  }
};

// Drives the canonical workload as far as it will go. Uses the Connect
// protocol (paper Fig 1) to resume: the stable registration's s_rid /
// r_rid decide whether to wait for an outstanding reply or to continue
// with fresh requests. Returns early, silently, as soon as the
// simulated process dies; any error WITHOUT a crash is a violation.
void RunWorkload(Harness* h, env::CrashPointEnv* env, const SweepConfig& cfg,
                 Judge* judge) {
  auto conn = h->clerk->Connect();
  if (env->down()) return;
  if (!conn.ok()) {
    judge->Violation("Connect failed without a crash: " +
                     conn.status().ToString());
    return;
  }

  int next = 1;
  if (conn->s_rid.empty()) {
    if (!conn->r_rid.empty()) {
      judge->Violation("registration inconsistency: r_rid=" + conn->r_rid +
                       " with empty s_rid");
      return;
    }
  } else {
    const int s = RidIndex(conn->s_rid);
    if (s < 1 || s > cfg.requests) {
      judge->Violation("registration returned foreign s_rid " + conn->s_rid);
      return;
    }
    const int r = conn->r_rid.empty() ? 0 : RidIndex(conn->r_rid);
    if (conn->resumed_state == client::SessionState::kReqSent) {
      // Request s is outstanding. The previous reply (if any) fixes
      // what the stable ckpt must say.
      if (r != s - 1) {
        judge->Violation("registration inconsistency: s_rid=" + conn->s_rid +
                         " but r_rid=" + conn->r_rid);
      }
      if (r > 0 && conn->ckpt != std::to_string(r)) {
        judge->Violation("ckpt " + conn->ckpt + " does not match r_rid " +
                         conn->r_rid);
      }
      // Pump the server until the outstanding reply surfaces. The
      // request is either still queued (server executes it now) or was
      // executed pre-crash with its reply parked in the reply queue.
      bool received = false;
      for (int attempt = 0; attempt < 64 && !received; ++attempt) {
        h->server->ProcessOne();  // NotFound when already executed.
        if (env->down()) return;
        auto reply = h->clerk->Receive(std::to_string(s));
        if (env->down()) return;
        if (reply.ok()) {
          judge->Reply(*reply, s);
          received = true;
        }
      }
      if (!received) {
        judge->Violation("request " + Rid(s) +
                         " lost: no reply obtainable after recovery");
        return;
      }
    } else {
      // kReplyRecvd: s completed; its Receive stored ckpt = index.
      if (r != s) {
        judge->Violation("resumed kReplyRecvd with r_rid=" + conn->r_rid +
                         " != s_rid=" + conn->s_rid);
      }
      if (conn->ckpt != std::to_string(s)) {
        judge->Violation("ckpt " + conn->ckpt + " does not match r_rid " +
                         conn->r_rid);
      }
    }
    next = s + 1;
  }

  for (int i = next; i <= cfg.requests; ++i) {
    if (i == cfg.requests / 2 + 1) {
      h->repo->Checkpoint();
      if (env->down()) return;
      h->kv->Checkpoint();
      if (env->down()) return;
    }

    queue::RequestEnvelope envelope;
    envelope.rid = Rid(i);
    envelope.reply_queue = kReplyQueue;
    envelope.body = "op-" + std::to_string(i);
    Status sent =
        h->clerk->Send(queue::EncodeRequestEnvelope(envelope), Rid(i));
    if (env->down()) return;
    if (!sent.ok()) {
      judge->Violation("Send " + Rid(i) +
                       " failed without a crash: " + sent.ToString());
      return;
    }

    Status cycle = h->server->ProcessOne();
    if (env->down()) return;
    if (!cycle.ok()) {
      judge->Violation("server cycle for " + Rid(i) +
                       " failed without a crash: " + cycle.ToString());
      return;
    }

    auto reply = h->clerk->Receive(std::to_string(i));
    if (env->down()) return;
    if (!reply.ok()) {
      judge->Violation("Receive " + Rid(i) +
                       " failed without a crash: " + reply.status().ToString());
      return;
    }
    judge->Reply(*reply, i);
  }

  h->repo->Checkpoint();
  if (env->down()) return;
  h->kv->Checkpoint();
}

// The on-disk invariant for a CURRENT/WAL-<gen>/CHECKPOINT-<gen>
// directory: after recovery + checkpoint, CURRENT names a generation
// whose WAL exists, and nothing else — no stale generations, no .tmp
// stragglers — is left behind.
void CheckGenerationFileSet(env::Env* env, const std::string& dir,
                            Judge* judge) {
  std::string current;
  Status s = env::ReadFileToString(env, dir + "/CURRENT", &current);
  if (!s.ok()) {
    judge->Violation(dir + ": unreadable CURRENT: " + s.ToString());
    return;
  }
  Slice input(current);
  uint64_t generation = 0;
  if (!util::GetVarint64(&input, &generation).ok()) {
    judge->Violation(dir + ": corrupt CURRENT");
    return;
  }
  // Sharded repositories append the shard count to CURRENT and write
  // one WAL/CHECKPOINT pair per shard; single-stream directories carry
  // neither the count nor the per-shard suffix.
  uint64_t shard_count = 1;
  if (!input.empty() &&
      (!util::GetVarint64(&input, &shard_count).ok() || shard_count == 0)) {
    judge->Violation(dir + ": corrupt shard count in CURRENT");
    return;
  }
  std::set<std::string> allowed = {"CURRENT"};
  std::vector<std::string> wals;
  for (uint64_t i = 0; i < shard_count; ++i) {
    const std::string suffix = shard_count > 1
                                   ? std::to_string(generation) + "-" +
                                         std::to_string(i)
                                   : std::to_string(generation);
    wals.push_back("WAL-" + suffix);
    allowed.insert("WAL-" + suffix);
    allowed.insert("CHECKPOINT-" + suffix);
  }
  std::vector<std::string> children;
  s = env->GetChildren(dir, &children);
  if (!s.ok()) {
    judge->Violation(dir + ": GetChildren: " + s.ToString());
    return;
  }
  for (const std::string& name : children) {
    if (allowed.count(name) == 0) {
      judge->Violation(dir + ": orphan file survived recovery: " + name);
    }
  }
  for (const std::string& wal : wals) {
    if (!env->FileExists(dir + "/" + wal)) {
      judge->Violation(dir + ": CURRENT names generation " +
                       std::to_string(generation) + " but " + wal +
                       " is missing");
    }
  }
}

// Judges the completed run: §3 properties from durable state, empty
// queues, clean retirement counters, and recoverable file sets.
void VerifyFinalState(Harness* h, env::Env* env, const SweepConfig& cfg,
                      Judge* judge) {
  for (const std::string& key : h->kv->ScanKeys("exec/")) {
    auto value = h->kv->GetCommitted(key);
    const int64_t count = value.ok() ? ParseCount(*value) : -1;
    if (count < 0) {
      judge->Violation("unreadable execution count for " + key);
      continue;
    }
    const std::string rid = key.substr(5);
    for (int64_t i = 0; i < count; ++i) {
      judge->checker.RecordCommittedExecution(rid);
    }
  }
  auto counter = h->kv->GetCommitted("counter");
  if (!counter.ok() || ParseCount(*counter) != cfg.requests) {
    judge->Violation("global counter is " +
                     (counter.ok() ? *counter : counter.status().ToString()) +
                     ", want " + std::to_string(cfg.requests));
  }

  const auto verdict = judge->checker.Check();
  if (!verdict.AllHold()) {
    std::string msg = "properties violated:";
    if (verdict.duplicate_executions > 0) {
      msg += " dup_exec=" + std::to_string(verdict.duplicate_executions);
    }
    if (verdict.lost_requests > 0) {
      msg += " lost=" + std::to_string(verdict.lost_requests);
    }
    if (verdict.phantom_executions > 0) {
      msg += " phantom=" + std::to_string(verdict.phantom_executions);
    }
    if (verdict.unprocessed_replies > 0) {
      msg += " unprocessed_replies=" +
             std::to_string(verdict.unprocessed_replies);
    }
    if (verdict.mismatched_replies > 0) {
      msg += " mismatched=" + std::to_string(verdict.mismatched_replies);
    }
    for (const std::string& rid : judge->checker.Offenders()) {
      msg += " [" + rid + "]";
    }
    judge->Violation(msg);
  }

  for (const char* queue : {kRequestQueue, kReplyQueue}) {
    auto depth = h->repo->Depth(queue);
    if (!depth.ok() || *depth != 0) {
      judge->Violation(std::string(queue) + " not drained: depth=" +
                       (depth.ok() ? std::to_string(*depth)
                                   : depth.status().ToString()));
    }
  }

  if (h->repo->remove_failure_count() != 0) {
    judge->Violation("repository retirement RemoveFile failures: " +
                     std::to_string(h->repo->remove_failure_count()));
  }
  if (h->kv->remove_failure_count() != 0) {
    judge->Violation("kv retirement RemoveFile failures: " +
                     std::to_string(h->kv->remove_failure_count()));
  }

  CheckGenerationFileSet(env, "qm", judge);
  if (cfg.standalone_store) {
    CheckGenerationFileSet(env, "db", judge);
  } else {
    std::vector<std::string> db_files;
    if (env->GetChildren("db", &db_files).ok() && !db_files.empty()) {
      judge->Violation("hosted store wrote files under db/");
    }
  }
  // The coordinator directory holds exactly the decision log and the
  // epoch file; EPOCH.tmp stragglers are consumed by the next Open.
  std::vector<std::string> children;
  if (env->GetChildren("txn", &children).ok()) {
    for (const std::string& name : children) {
      if (name != "DECISIONS" && name != "EPOCH") {
        judge->Violation("txn: orphan file survived recovery: " + name);
      }
    }
  }
}

// Runs the workload against a fresh disk image with a crash armed at
// index k (or unarmed for the baseline when k == kNoCrash), recovers,
// and judges. Returns the violations and, via *ops, the mutating-op
// count of the run.
constexpr uint64_t kNoCrash = ~uint64_t{0};

std::vector<std::string> RunOnePoint(const SweepConfig& cfg, uint64_t k,
                                     uint64_t* ops) {
  env::MemEnv mem;
  env::CrashPointEnv env(&mem);
  util::Rng torn_rng(cfg.torn_seed + k);
  if (k != kNoCrash) {
    env.ArmCrash(k, cfg.torn_writes ? &torn_rng : nullptr);
  }

  Judge judge;
  for (int i = 1; i <= cfg.requests; ++i) {
    judge.checker.RecordSubmission(Rid(i));
  }

  {
    Harness first;
    Status s = BuildHarness(&env, cfg, &first);
    if (s.ok()) {
      RunWorkload(&first, &env, cfg, &judge);
    } else if (!env.down()) {
      judge.Violation("build failed without a crash: " + s.ToString());
    }
    if (k != kNoCrash && !env.crashed()) {
      judge.Violation("crash point never fired — workload shrank?");
    }
    if (k == kNoCrash && !judge.violations.empty()) {
      return judge.violations;  // Baseline must be violation-free.
    }
    if (!env.crashed()) {
      // Uncrashed (baseline) run: judge it as-is.
      VerifyFinalState(&first, &env, cfg, &judge);
      *ops = env.mutating_op_count();
      return judge.violations;
    }
  }

  // The dead incarnation is gone; restart and recover.
  env.Disarm();
  Harness second;
  Status s = BuildHarness(&env, cfg, &second);
  if (!s.ok()) {
    judge.Violation("recovery failed: " + s.ToString());
    return judge.violations;
  }
  RunWorkload(&second, &env, cfg, &judge);
  if (env.down()) {
    judge.Violation("disarmed env reported a crash during recovery");
    return judge.violations;
  }
  VerifyFinalState(&second, &env, cfg, &judge);
  *ops = env.mutating_op_count();
  return judge.violations;
}

}  // namespace

SweepResult RunCrashSweep(const SweepConfig& config) {
  SweepResult result;
  const uint64_t stride = config.stride == 0 ? 1 : config.stride;

  // Baseline uncrashed run: validates the workload itself and measures
  // N, the size of the crash-index space.
  uint64_t ops = 0;
  std::vector<std::string> baseline = RunOnePoint(config, kNoCrash, &ops);
  ++result.points_run;
  if (!baseline.empty()) {
    for (std::string& msg : baseline) {
      result.violations.push_back("baseline: " + std::move(msg));
    }
    return result;
  }
  result.total_ops = ops;

  std::string mode = std::string("gc=") + (config.group_commit ? "1" : "0") +
                     (config.torn_writes ? ",torn" : "");
  if (config.shards > 1) {
    mode += ",shards=" + std::to_string(config.shards);
  }
  if (config.standalone_store) mode += ",standalone";
  for (uint64_t k = 0; k < result.total_ops; k += stride) {
    uint64_t ignored = 0;
    std::vector<std::string> violations = RunOnePoint(config, k, &ignored);
    ++result.points_run;
    for (std::string& msg : violations) {
      result.violations.push_back("k=" + std::to_string(k) + " [" + mode +
                                  "]: " + std::move(msg));
    }
  }
  return result;
}

}  // namespace rrq::testing
