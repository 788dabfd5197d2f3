// §5's "concurrency within a client" extension: a client is identified
// by client-id plus thread-id, and the system maintains a
// [req-tag, reply-tag] pair per thread. In this library that falls out
// of persistent registration naturally: each thread registers as
// "<client>/<thread>" with its own reply queue, and recovers its own
// tags independently.
#include <gtest/gtest.h>

#include "core/property_checker.h"
#include "core/request_system.h"

namespace rrq::core {
namespace {

TEST(ThreadedClientTest, ThreadsOfOneClientKeepIndependentSessions) {
  RequestSystem system;
  ASSERT_TRUE(system.Open().ok());
  PropertyChecker checker;
  auto server = system.MakeServer(
      [&checker](txn::Transaction* t, const queue::RequestEnvelope& request)
          -> Result<std::string> {
        const std::string rid = request.rid;
        t->OnCommit(
            [&checker, rid]() { checker.RecordCommittedExecution(rid); });
        return "for:" + request.rid;
      },
      /*threads=*/2);
  ASSERT_TRUE(server->Start().ok());

  constexpr int kThreads = 3;
  constexpr int kRequestsEach = 8;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&system, &checker, &failures, t]() {
      const std::string id = "big-client/thread-" + std::to_string(t);
      auto client = system.MakeClient(id, nullptr);
      if (!client.ok()) {
        ++failures;
        return;
      }
      for (int i = 0; i < kRequestsEach; ++i) {
        checker.RecordSubmission(id + "#" + std::to_string(i + 1));
        auto reply = (*client)->Execute("w");
        if (!reply.ok()) {
          ++failures;
        } else {
          checker.RecordReplyProcessed(id + "#" + std::to_string(i + 1));
        }
      }
      (*client)->Stop();
    });
  }
  for (auto& thread : threads) thread.join();
  server->Stop();
  EXPECT_EQ(failures.load(), 0);
  auto verdict = checker.Check();
  EXPECT_TRUE(verdict.AllHold());
  EXPECT_EQ(verdict.submitted,
            static_cast<uint64_t>(kThreads * kRequestsEach));
}

TEST(ThreadedClientTest, OneThreadCrashDoesNotDisturbSiblings) {
  RequestSystem system;
  ASSERT_TRUE(system.Open().ok());
  auto server = system.MakeServer(
      [](txn::Transaction*, const queue::RequestEnvelope& request)
          -> Result<std::string> { return "r:" + request.body; });
  ASSERT_TRUE(server->Start().ok());

  // Thread 0 crashes mid-request; thread 1 keeps working throughout.
  auto t1 = system.MakeClient("c/thread-1", nullptr);
  ASSERT_TRUE(t1.ok());
  {
    auto t0 = system.MakeClient("c/thread-0", nullptr);
    ASSERT_TRUE(t0.ok());
    // t0 sends and crashes before receiving.
    client::Clerk* clerk = (*t0)->clerk();
    queue::RequestEnvelope envelope;
    envelope.rid = "c/thread-0#77";
    envelope.reply_queue = RequestSystem::ReplyQueueName("c/thread-0");
    envelope.body = "orphaned";
    ASSERT_TRUE(
        clerk->Send(queue::EncodeRequestEnvelope(envelope), "c/thread-0#77")
            .ok());
  }
  // Sibling unaffected.
  ASSERT_TRUE((*t1)->Execute("sibling-work").ok());

  // Thread 0's new incarnation recovers ITS OWN pending reply only.
  int processed = 0;
  client::ReliableClientOptions options;
  options.clerk = system.MakeClerkOptions("c/thread-0");
  client::ReliableClient reborn(
      options, [&processed](const queue::ReplyEnvelope& reply, bool) {
        ++processed;
        EXPECT_EQ(reply.body, "r:orphaned");
        return Status::OK();
      });
  ASSERT_TRUE(reborn.Start().ok());
  EXPECT_EQ(processed, 1);
  server->Stop();
}

}  // namespace
}  // namespace rrq::core
