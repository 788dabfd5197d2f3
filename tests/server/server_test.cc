#include "server/server.h"

#include <gtest/gtest.h>

#include "env/mem_env.h"
#include "server/exec_backend.h"
#include "storage/kv_store.h"

namespace rrq::server {
namespace {

class ServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    txn_mgr_ = std::make_unique<txn::TransactionManager>();
    ASSERT_TRUE(txn_mgr_->Open().ok());
    repo_ = std::make_unique<queue::QueueRepository>("qm");
    ASSERT_TRUE(repo_->Open().ok());
    queue::QueueOptions qopts;
    qopts.max_aborts = 2;
    qopts.error_queue = "req.err";
    ASSERT_TRUE(repo_->CreateQueue("req", qopts).ok());
    ASSERT_TRUE(repo_->CreateQueue("rep").ok());
  }

  ServerOptions Options() {
    ServerOptions options;
    options.request_queue = "req";
    options.default_reply_queue = "rep";
    options.poll_timeout_micros = 0;
    return options;
  }

  void SubmitRequest(const std::string& rid, const std::string& body,
                     const std::string& reply_queue = "") {
    queue::RequestEnvelope envelope;
    envelope.rid = rid;
    envelope.reply_queue = reply_queue;
    envelope.body = body;
    ASSERT_TRUE(
        repo_->Enqueue(nullptr, "req", queue::EncodeRequestEnvelope(envelope))
            .ok());
  }

  queue::ReplyEnvelope TakeReply(const std::string& queue = "rep") {
    auto got = repo_->Dequeue(nullptr, queue);
    EXPECT_TRUE(got.ok()) << got.status().ToString();
    queue::ReplyEnvelope reply;
    if (got.ok()) {
      EXPECT_TRUE(queue::DecodeReplyEnvelope(got->contents, &reply).ok());
    }
    return reply;
  }

  std::unique_ptr<txn::TransactionManager> txn_mgr_;
  std::unique_ptr<queue::QueueRepository> repo_;
};

TEST_F(ServerTest, ProcessesOneRequestAndReplies) {
  Server server(Options(), repo_.get(), txn_mgr_.get(),
                [](txn::Transaction*, const queue::RequestEnvelope& request)
                    -> Result<std::string> {
                  return "echo:" + request.body;
                });
  SubmitRequest("rid-1", "hello");
  ASSERT_TRUE(server.ProcessOne().ok());
  auto reply = TakeReply();
  EXPECT_EQ(reply.rid, "rid-1");
  EXPECT_TRUE(reply.success);
  EXPECT_EQ(reply.body, "echo:hello");
  EXPECT_EQ(server.processed_count(), 1u);
}

TEST_F(ServerTest, EmptyQueueReturnsNotFound) {
  Server server(Options(), repo_.get(), txn_mgr_.get(),
                [](txn::Transaction*, const queue::RequestEnvelope&)
                    -> Result<std::string> { return std::string("x"); });
  EXPECT_TRUE(server.ProcessOne().IsNotFound());
}

TEST_F(ServerTest, EnvelopeReplyQueueOverridesDefault) {
  ASSERT_TRUE(repo_->CreateQueue("special").ok());
  Server server(Options(), repo_.get(), txn_mgr_.get(),
                [](txn::Transaction*, const queue::RequestEnvelope&)
                    -> Result<std::string> { return std::string("ok"); });
  SubmitRequest("rid-2", "x", "special");
  ASSERT_TRUE(server.ProcessOne().ok());
  EXPECT_EQ(*repo_->Depth("rep"), 0u);
  auto reply = TakeReply("special");
  EXPECT_EQ(reply.rid, "rid-2");
}

TEST_F(ServerTest, HandlerErrorAbortsAndRequeues) {
  int calls = 0;
  Server server(Options(), repo_.get(), txn_mgr_.get(),
                [&calls](txn::Transaction*, const queue::RequestEnvelope&)
                    -> Result<std::string> {
                  ++calls;
                  return Status::IOError("backend hiccup");
                });
  SubmitRequest("rid-3", "x");
  EXPECT_FALSE(server.ProcessOne().ok());
  EXPECT_EQ(server.aborted_count(), 1u);
  // The request is back in the queue with a bumped abort count.
  EXPECT_EQ(*repo_->Depth("req"), 1u);
  EXPECT_FALSE(server.ProcessOne().ok());
  EXPECT_EQ(calls, 2);
  // max_aborts=2: now it is in the error queue.
  EXPECT_EQ(*repo_->Depth("req"), 0u);
  EXPECT_EQ(*repo_->Depth("req.err"), 1u);
}

TEST_F(ServerTest, ErrorScavengerSendsFailureReply) {
  Server server(Options(), repo_.get(), txn_mgr_.get(),
                [](txn::Transaction*, const queue::RequestEnvelope&)
                    -> Result<std::string> {
                  return Status::IOError("always fails");
                });
  SubmitRequest("rid-4", "poison");
  server.ProcessOne();
  server.ProcessOne();  // Drains to error queue.
  ASSERT_TRUE(server.ScavengeOneError().ok());
  auto reply = TakeReply();
  EXPECT_EQ(reply.rid, "rid-4");
  EXPECT_FALSE(reply.success);  // §3: the failure reply is the promise.
  EXPECT_EQ(server.failure_replies(), 1u);
}

TEST_F(ServerTest, InjectedCrashPreservesRequest) {
  Server server(Options(), repo_.get(), txn_mgr_.get(),
                [](txn::Transaction*, const queue::RequestEnvelope& request)
                    -> Result<std::string> { return request.body; });
  SubmitRequest("rid-5", "survives");
  server.InjectCrashBeforeCommit(0);
  EXPECT_TRUE(server.ProcessOne().IsAborted());
  EXPECT_EQ(*repo_->Depth("req"), 1u);  // Request survived the crash.
  ASSERT_TRUE(server.ProcessOne().ok());
  auto reply = TakeReply();
  EXPECT_EQ(reply.rid, "rid-5");
}

TEST_F(ServerTest, HandlerDatabaseUpdatesAtomicWithDequeue) {
  storage::KvStore store("db", {});
  ASSERT_TRUE(store.Open().ok());
  {
    auto txn = txn_mgr_->Begin();
    ASSERT_TRUE(store.Put(txn.get(), "balance", "100").ok());
    ASSERT_TRUE(txn->Commit().ok());
  }
  Server server(
      Options(), repo_.get(), txn_mgr_.get(),
      [&store](txn::Transaction* t, const queue::RequestEnvelope& request)
          -> Result<std::string> {
        RRQ_ASSIGN_OR_RETURN(std::string balance,
                             store.GetForUpdate(t, "balance"));
        const int updated = std::stoi(balance) - std::stoi(request.body);
        RRQ_RETURN_IF_ERROR(store.Put(t, "balance", std::to_string(updated)));
        if (updated < 0) return Status::InvalidArgument("overdraft");
        return std::to_string(updated);
      });
  SubmitRequest("rid-6", "30");
  ASSERT_TRUE(server.ProcessOne().ok());
  EXPECT_EQ(*store.GetCommitted("balance"), "70");

  // A failing request leaves the database untouched.
  SubmitRequest("rid-7", "500");
  EXPECT_FALSE(server.ProcessOne().ok());
  EXPECT_EQ(*store.GetCommitted("balance"), "70");
}

TEST_F(ServerTest, ThreadedServersDrainQueue) {
  std::atomic<int> handled{0};
  ServerOptions options = Options();
  options.threads = 3;
  options.poll_timeout_micros = 5'000;
  Server server(options, repo_.get(), txn_mgr_.get(),
                [&handled](txn::Transaction*, const queue::RequestEnvelope&)
                    -> Result<std::string> {
                  ++handled;
                  return std::string("ok");
                });
  constexpr int kRequests = 100;
  for (int i = 0; i < kRequests; ++i) {
    SubmitRequest("rid-" + std::to_string(i), "x");
  }
  ASSERT_TRUE(server.Start().ok());
  for (int i = 0; i < 500 && handled.load() < kRequests; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  server.Stop();
  EXPECT_EQ(handled.load(), kRequests);
  EXPECT_EQ(*repo_->Depth("rep"), static_cast<size_t>(kRequests));
}

TEST_F(ServerTest, SchedulerSelectsByContent) {
  // §10 request scheduling: "highest dollar amount first".
  ServerOptions options = Options();
  options.scheduler =
      [](const std::vector<queue::Element*>& candidates) -> size_t {
    size_t best = 0;
    long best_amount = -1;
    for (size_t i = 0; i < candidates.size(); ++i) {
      queue::RequestEnvelope envelope;
      if (!queue::DecodeRequestEnvelope(candidates[i]->contents, &envelope)
               .ok()) {
        continue;
      }
      long amount = std::stol(envelope.body);
      if (amount > best_amount) {
        best_amount = amount;
        best = i;
      }
    }
    return best;
  };
  std::vector<std::string> service_order;
  Server server(options, repo_.get(), txn_mgr_.get(),
                [&service_order](txn::Transaction*,
                                 const queue::RequestEnvelope& request)
                    -> Result<std::string> {
                  service_order.push_back(request.body);
                  return request.body;
                });
  SubmitRequest("w1", "120");
  SubmitRequest("w2", "9500");
  SubmitRequest("w3", "700");
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(server.ProcessOne().ok());
  ASSERT_EQ(service_order.size(), 3u);
  EXPECT_EQ(service_order[0], "9500");
  EXPECT_EQ(service_order[1], "700");
  EXPECT_EQ(service_order[2], "120");
}

// A state directory from before the database was hosted on the queue
// repository keeps the database's own WAL in <dir>/db. Its counts are
// not in the queue log, so the back end refuses to open past them.
TEST(ExecBackendTest, RefusesAStandaloneDatabaseDirectory) {
  env::MemEnv env;
  {
    ExecBackend fresh;
    ASSERT_TRUE(fresh.Open(&env, "/d", queue::RepositoryOptions{}).ok());
  }
  ASSERT_TRUE(env::WriteStringToFileSync(&env, "x", "/d/db/WAL-0").ok());
  ExecBackend upgraded;
  EXPECT_TRUE(upgraded.Open(&env, "/d", queue::RepositoryOptions{})
                  .IsFailedPrecondition());
}

}  // namespace
}  // namespace rrq::server
