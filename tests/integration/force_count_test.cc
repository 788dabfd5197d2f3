// Forces per request through rrqd's wiring (server::ExecBackend: the
// coordinator, a 4-shard queue repository, and the demo database
// hosted on it). The Fig 5 lifecycle has three commit points — the
// clerk's Send, the server transaction {dequeue; count the execution
// in the database; enqueue the reply}, and the clerk's Receive — and
// each must cost one force per queue shard it touches: 3 syncs per
// request when the request and reply queues share a shard, 4 when
// they do not. The database and the decision log never force: the
// database's writes ride the queue log, and a transaction over one
// repository commits one-phase.

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "client/clerk.h"
#include "env/faulty_env.h"
#include "env/mem_env.h"
#include "queue/envelope.h"
#include "queue/queue_api.h"
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

TEST_F(ForceCountTest, TwoShardRequestCostsFourForces) {
  EXPECT_EQ(LifecycleSyncs(ReplyQueue(/*same_shard=*/false)), 4);
  ExpectOnlyQueueLogSynced();
}

}  // namespace
}  // namespace rrq
