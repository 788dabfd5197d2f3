// End-to-end tests of the System Model (Fig 4/5): clerk + request
// queue + server + reply queue, via the RequestSystem facade.
#include <gtest/gtest.h>

#include "core/property_checker.h"
#include "core/request_system.h"

namespace rrq::core {
namespace {

server::RequestHandler EchoHandler(PropertyChecker* checker = nullptr) {
  return [checker](txn::Transaction* t,
                   const queue::RequestEnvelope& request)
             -> Result<std::string> {
    if (checker != nullptr) {
      const std::string rid = request.rid;
      t->OnCommit([checker, rid]() { checker->RecordCommittedExecution(rid); });
    }
    return "echo:" + request.body;
  };
}

TEST(SystemModelTest, SingleRequestRoundTrip) {
  RequestSystem system;
  ASSERT_TRUE(system.Open().ok());
  auto server = system.MakeServer(EchoHandler());

  int processed = 0;
  auto client = system.MakeClient(
      "alice",
      [&processed](const queue::ReplyEnvelope&, bool) {
        ++processed;
        return Status::OK();
      });
  ASSERT_TRUE(client.ok()) << client.status().ToString();

  std::thread server_thread([&server]() {
    while (server->processed_count() < 1) {
      server->ProcessOne();
    }
  });
  auto reply = (*client)->Execute("hello");
  server_thread.join();
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(*reply, "echo:hello");
  EXPECT_EQ(processed, 1);
  ASSERT_TRUE((*client)->Stop().ok());
}

TEST(SystemModelTest, SequenceOfRequestsStaysOrdered) {
  RequestSystem system;
  ASSERT_TRUE(system.Open().ok());
  auto server = system.MakeServer(EchoHandler());
  ASSERT_TRUE(server->Start().ok());

  auto client = system.MakeClient("bob", nullptr);
  ASSERT_TRUE(client.ok());
  for (int i = 0; i < 20; ++i) {
    auto reply = (*client)->Execute("req-" + std::to_string(i));
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
    EXPECT_EQ(*reply, "echo:req-" + std::to_string(i));
  }
  EXPECT_EQ((*client)->completed(), 20u);
  server->Stop();
}

TEST(SystemModelTest, ManyClientsOneServerPool) {
  RequestSystem system;
  ASSERT_TRUE(system.Open().ok());
  PropertyChecker checker;
  auto server = system.MakeServer(EchoHandler(&checker), /*threads=*/2);
  ASSERT_TRUE(server->Start().ok());

  constexpr int kClients = 4;
  constexpr int kRequestsEach = 10;
  std::vector<std::thread> client_threads;
  std::atomic<int> failures{0};
  for (int c = 0; c < kClients; ++c) {
    client_threads.emplace_back([&system, &checker, &failures, c]() {
      auto client = system.MakeClient("client-" + std::to_string(c), nullptr);
      if (!client.ok()) {
        ++failures;
        return;
      }
      for (int i = 0; i < kRequestsEach; ++i) {
        const std::string body = std::to_string(c) + ":" + std::to_string(i);
        checker.RecordSubmission("client-" + std::to_string(c) + "#" +
                                 std::to_string(i + 1));
        auto reply = (*client)->Execute(body);
        if (!reply.ok() || *reply != "echo:" + body) {
          ++failures;
        } else {
          checker.RecordReplyProcessed("client-" + std::to_string(c) + "#" +
                                       std::to_string(i + 1));
        }
      }
      (*client)->Stop();
    });
  }
  for (auto& thread : client_threads) thread.join();
  server->Stop();
  EXPECT_EQ(failures.load(), 0);
  auto verdict = checker.Check();
  EXPECT_TRUE(verdict.AllHold()) << "dups=" << verdict.duplicate_executions
                                 << " lost=" << verdict.lost_requests;
  EXPECT_EQ(verdict.submitted,
            static_cast<uint64_t>(kClients * kRequestsEach));
}

TEST(SystemModelTest, RemoteClientsOverCleanNetwork) {
  SystemOptions options;
  options.remote_clients = true;
  RequestSystem system(options);
  ASSERT_TRUE(system.Open().ok());
  auto server = system.MakeServer(EchoHandler());
  ASSERT_TRUE(server->Start().ok());
  auto client = system.MakeClient("remote-1", nullptr);
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  auto reply = (*client)->Execute("over-the-wire");
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(*reply, "echo:over-the-wire");
  server->Stop();
  EXPECT_GT(system.network()->messages_sent(), 0u);
}

TEST(SystemModelTest, RemoteClientsSurviveLossyNetwork) {
  SystemOptions options;
  options.remote_clients = true;
  options.client_link_faults.drop_probability = 0.15;
  options.seed = 1234;
  RequestSystem system(options);
  ASSERT_TRUE(system.Open().ok());
  PropertyChecker checker;
  auto server = system.MakeServer(EchoHandler(&checker));
  ASSERT_TRUE(server->Start().ok());

  auto client = system.MakeClient("lossy-1", nullptr);
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  constexpr int kRequests = 25;
  for (int i = 0; i < kRequests; ++i) {
    checker.RecordSubmission("lossy-1#" + std::to_string(i + 1));
    auto reply = (*client)->Execute("r" + std::to_string(i));
    ASSERT_TRUE(reply.ok()) << i << ": " << reply.status().ToString();
    EXPECT_EQ(*reply, "echo:r" + std::to_string(i));
    checker.RecordReplyProcessed("lossy-1#" + std::to_string(i + 1));
  }
  server->Stop();
  // Despite dropped messages, exactly-once holds.
  auto verdict = checker.Check();
  EXPECT_TRUE(verdict.AllHold()) << "dups=" << verdict.duplicate_executions
                                 << " lost=" << verdict.lost_requests;
  EXPECT_GT(system.network()->messages_dropped(), 0u);
}

TEST(SystemModelTest, FailureRepliesForPoisonRequests) {
  SystemOptions options;
  options.request_queue_options.max_aborts = 2;
  options.request_queue_options.error_queue = "requests.err";
  RequestSystem system(options);
  ASSERT_TRUE(system.Open().ok());
  auto server = system.MakeServer(
      [](txn::Transaction*, const queue::RequestEnvelope& request)
          -> Result<std::string> {
        if (request.body == "poison") return Status::IOError("cannot");
        return "ok:" + request.body;
      });
  ASSERT_TRUE(server->Start().ok());

  auto client = system.MakeClient("carol", nullptr);
  ASSERT_TRUE(client.ok());
  // §3: the system replies even for requests it could not execute —
  // the reply is the promise it will never retry.
  auto failed = (*client)->Execute("poison");
  EXPECT_TRUE(failed.status().IsAborted()) << failed.status().ToString();
  // The session remains usable for the next request.
  auto good = (*client)->Execute("fine");
  ASSERT_TRUE(good.ok()) << good.status().ToString();
  EXPECT_EQ(*good, "ok:fine");
  server->Stop();
}

}  // namespace
}  // namespace rrq::core
