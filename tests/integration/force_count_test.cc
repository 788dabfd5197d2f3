// Forces per request through rrqd's wiring (server::ExecBackend: the
// coordinator, a 4-shard queue repository, and the demo database
// hosted on it). The Fig 5 lifecycle has three commit points — the
// clerk's Send, the server transaction {dequeue; count the execution
// in the database; enqueue the reply}, and the clerk's Receive — and
// each must cost one force however many queue shards it touches: 3
// syncs per request whether or not the request and reply queues share
// a shard. The database and the decision log never force: the
// database's writes ride the queue log, and a transaction over one
// repository commits one-phase. A backup applying a shipped batch
// forces once too, however many of its shards the batch touches.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "client/clerk.h"
#include "env/faulty_env.h"
#include "env/mem_env.h"
#include "queue/envelope.h"
#include "queue/queue_api.h"
#include "queue/queue_repository.h"
#include "server/exec_backend.h"
#include "server/server.h"

namespace rrq {
namespace {

constexpr char kDir[] = "/rrqd";
constexpr char kRequestQueue[] = "requests";

class ForceCountTest : public ::testing::Test {
 protected:
  void SetUp() override {
    queue::RepositoryOptions repo_options;
    repo_options.shards = 4;
    ASSERT_TRUE(backend_.Open(&env_, kDir, repo_options).ok());
    ASSERT_EQ(backend_.repo()->shard_count(), 4u);
    ASSERT_TRUE(backend_.repo()->CreateQueue(kRequestQueue).ok());
    api_ = std::make_unique<queue::LocalQueueApi>(backend_.repo());
  }

  // First "reply.<n>" on (or off) the request queue's shard.
  std::string ReplyQueue(bool same_shard) {
    const size_t request_shard = backend_.repo()->shard_of(kRequestQueue);
    for (int n = 0;; ++n) {
      const std::string name = "reply." + std::to_string(n);
      if ((backend_.repo()->shard_of(name) == request_shard) == same_shard) {
        return name;
      }
    }
  }

  int TotalSyncs() {
    std::lock_guard<std::mutex> lock(mu_);
    int total = 0;
    for (const auto& [path, n] : syncs_) total += n;
    return total;
  }

  // Physical syncs of one Send → ProcessOne → Receive lifecycle.
  int LifecycleSyncs(const std::string& reply_queue) {
    EXPECT_TRUE(backend_.repo()->CreateQueue(reply_queue).ok());
    client::ClerkOptions clerk_options;
    clerk_options.client_id = "c-" + reply_queue;
    clerk_options.request_queue = kRequestQueue;
    clerk_options.reply_queue = reply_queue;
    clerk_options.api = api_.get();
    clerk_options.receive_timeout_micros = 0;
    client::Clerk clerk(clerk_options);
    EXPECT_TRUE(clerk.Connect().ok());
    server::ServerOptions server_options;
    server_options.request_queue = kRequestQueue;
    server_options.poll_timeout_micros = 0;
    server::Server server(server_options, backend_.repo(),
                          backend_.txn_mgr(), backend_.Handler(""));

    const int before = TotalSyncs();
    queue::RequestEnvelope request;
    request.rid = clerk_options.client_id + "#1";
    request.reply_queue = reply_queue;
    request.body = "work";
    EXPECT_TRUE(
        clerk.Send(queue::EncodeRequestEnvelope(request), request.rid).ok());
    EXPECT_TRUE(server.ProcessOne().ok());
    auto reply = clerk.Receive("1");
    EXPECT_TRUE(reply.ok()) << reply.status().ToString();
    const int forces = TotalSyncs() - before;
    EXPECT_EQ(*backend_.db()->GetCommitted("exec/" + request.rid), "1");
    return forces;
  }

  void ExpectOnlyQueueLogSynced() {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& [path, n] : syncs_) {
      EXPECT_NE(path.rfind(std::string(kDir) + "/db/", 0), 0u) << path;
      EXPECT_EQ(path.find("DECISIONS"), std::string::npos) << path;
    }
  }

  env::FaultConfig CountSyncsPerFile() {
    env::FaultConfig config;
    config.on_sync = [this](const std::string& path) {
      std::lock_guard<std::mutex> lock(mu_);
      ++syncs_[path];
    };
    return config;
  }

  env::MemEnv mem_;
  std::mutex mu_;
  std::map<std::string, int> syncs_;
  env::FaultyEnv env_{&mem_, CountSyncsPerFile()};
  server::ExecBackend backend_;
  std::unique_ptr<queue::LocalQueueApi> api_;
};

TEST_F(ForceCountTest, OneShardRequestCostsThreeForces) {
  EXPECT_EQ(LifecycleSyncs(ReplyQueue(/*same_shard=*/true)), 3);
  ExpectOnlyQueueLogSynced();
}

TEST_F(ForceCountTest, TwoShardRequestCostsThreeForces) {
  EXPECT_EQ(LifecycleSyncs(ReplyQueue(/*same_shard=*/false)), 3);
  ExpectOnlyQueueLogSynced();
}

TEST(BackupForceCountTest, BatchOverEveryShardCostsOneForce) {
  // The primary ships one record per enqueue, one enqueue per shard.
  std::vector<std::string> shipped;
  queue::RepositoryOptions primary_options;
  primary_options.shards = 4;
  primary_options.replication_sink = [&shipped](const Slice& record) {
    shipped.push_back(record.ToString());
    return Status::OK();
  };
  queue::QueueRepository primary("primary", primary_options);
  ASSERT_TRUE(primary.Open().ok());
  // queues[i] is the first "q<n>" on shard i.
  std::vector<std::string> queues(4);
  for (int n = 0; std::count(queues.begin(), queues.end(), "") > 0; ++n) {
    const std::string name = "q" + std::to_string(n);
    std::string& slot = queues[primary.shard_of(name)];
    if (slot.empty()) slot = name;
  }
  for (const std::string& q : queues) ASSERT_TRUE(primary.CreateQueue(q).ok());
  const size_t created = shipped.size();
  for (const std::string& q : queues) {
    ASSERT_TRUE(primary.Enqueue(nullptr, q, "x").ok());
  }
  ASSERT_EQ(shipped.size(), created + 4);

  env::MemEnv mem;
  env::FaultyEnv env(&mem);
  queue::RepositoryOptions backup_options;
  backup_options.env = &env;
  backup_options.dir = "/backup";
  backup_options.shards = 4;
  queue::QueueRepository backup("backup", backup_options);
  ASSERT_TRUE(backup.Open().ok());
  ASSERT_TRUE(
      backup
          .ApplyReplicatedBatch(
              std::vector<std::string>(shipped.begin(),
                                       shipped.begin() + created),
              1)
          .ok());
  const uint64_t before = env.sync_count();
  ASSERT_TRUE(backup
                  .ApplyReplicatedBatch(
                      std::vector<std::string>(
                          shipped.begin() + created, shipped.end()),
                      created + 1)
                  .ok());
  EXPECT_EQ(env.sync_count() - before, 1u);
  for (const std::string& q : queues) EXPECT_EQ(*backup.Depth(q), 1u) << q;
  EXPECT_EQ(backup.applied_repl_seq(), shipped.size());
}

}  // namespace
}  // namespace rrq
