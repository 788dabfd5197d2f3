// Adversarial validation of the §3 guarantees (Exactly-Once Request
// Processing, At-Least-Once Reply Processing, Request-Reply Matching)
// under server crashes, queue-manager crashes, and client crashes.
#include <gtest/gtest.h>

#include "core/property_checker.h"
#include "core/request_system.h"
#include "storage/kv_store.h"

namespace rrq::core {
namespace {

// A handler over a real transactional store, so "executed" has
// observable weight: each request appends its rid to an account log
// and increments a counter.
class CountingBackend {
 public:
  explicit CountingBackend(txn::TransactionManager* txn_mgr)
      : txn_mgr_(txn_mgr), store_("db", {}) {
    EXPECT_TRUE(store_.Open().ok());
    auto txn = txn_mgr_->Begin();
    EXPECT_TRUE(store_.Put(txn.get(), "counter", "0").ok());
    EXPECT_TRUE(txn->Commit().ok());
  }

  server::RequestHandler Handler(PropertyChecker* checker) {
    return [this, checker](txn::Transaction* t,
                           const queue::RequestEnvelope& request)
               -> Result<std::string> {
      RRQ_ASSIGN_OR_RETURN(std::string counter,
                           store_.GetForUpdate(t, "counter"));
      const int next = std::stoi(counter) + 1;
      RRQ_RETURN_IF_ERROR(store_.Put(t, "counter", std::to_string(next)));
      RRQ_RETURN_IF_ERROR(store_.Put(t, "done/" + request.rid, "1"));
      const std::string rid = request.rid;
      t->OnCommit([checker, rid]() { checker->RecordCommittedExecution(rid); });
      return std::to_string(next);
    };
  }

  int counter() { return std::stoi(*store_.GetCommitted("counter")); }

 private:
  txn::TransactionManager* txn_mgr_;
  storage::KvStore store_;
};

TEST(ExactlyOnceTest, ServerCrashesNeverLoseOrDuplicate) {
  RequestSystem system;
  ASSERT_TRUE(system.Open().ok());
  PropertyChecker checker;
  CountingBackend backend(system.txn_manager());
  auto server = system.MakeServer(backend.Handler(&checker));
  // Crash the server mid-transaction every few requests.
  ASSERT_TRUE(server->Start().ok());

  auto client = system.MakeClient("c", nullptr);
  ASSERT_TRUE(client.ok());
  constexpr int kRequests = 30;
  for (int i = 0; i < kRequests; ++i) {
    if (i % 5 == 0) server->InjectCrashBeforeCommit(0);
    checker.RecordSubmission("c#" + std::to_string(i + 1));
    auto reply = (*client)->Execute("w" + std::to_string(i));
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
    checker.RecordReplyProcessed("c#" + std::to_string(i + 1));
  }
  server->Stop();

  auto verdict = checker.Check();
  EXPECT_TRUE(verdict.ExactlyOnceHolds())
      << "dups=" << verdict.duplicate_executions
      << " lost=" << verdict.lost_requests;
  EXPECT_EQ(backend.counter(), kRequests);  // Database agrees.
  EXPECT_GT(server->aborted_count(), 0u);   // Crashes really happened.
}

TEST(ExactlyOnceTest, QueueManagerCrashPreservesRequests) {
  RequestSystem system;
  ASSERT_TRUE(system.Open().ok());
  PropertyChecker checker;

  auto client = system.MakeClient("c", nullptr);
  ASSERT_TRUE(client.ok());

  // Submit while no server is running, so requests pile up durably.
  std::thread submitter([&client, &checker]() {
    for (int i = 0; i < 5; ++i) {
      checker.RecordSubmission("c#" + std::to_string(i + 1));
      auto reply = (*client)->Execute("r" + std::to_string(i));
      ASSERT_TRUE(reply.ok()) << reply.status().ToString();
      checker.RecordReplyProcessed("c#" + std::to_string(i + 1));
    }
  });

  // Let the first request land, then crash the queue manager.
  while (true) {
    auto depth = system.repo()->Depth(RequestSystem::kRequestQueue);
    if (depth.ok() && *depth >= 1) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_TRUE(system.CrashAndRecover().ok());

  // Requests survived; a freshly built server drains them.
  PropertyChecker* checker_ptr = &checker;
  auto server = system.MakeServer(
      [checker_ptr](txn::Transaction* t, const queue::RequestEnvelope& request)
          -> Result<std::string> {
        const std::string rid = request.rid;
        t->OnCommit(
            [checker_ptr, rid]() { checker_ptr->RecordCommittedExecution(rid); });
        return std::string("ok");
      });
  ASSERT_TRUE(server->Start().ok());
  submitter.join();
  server->Stop();

  auto verdict = checker.Check();
  EXPECT_TRUE(verdict.AllHold()) << "dups=" << verdict.duplicate_executions
                                 << " lost=" << verdict.lost_requests;
}

TEST(ExactlyOnceTest, ClientCrashAfterSendStillGetsReplyOnce) {
  RequestSystem system;
  ASSERT_TRUE(system.Open().ok());
  PropertyChecker checker;
  CountingBackend backend(system.txn_manager());
  auto server = system.MakeServer(backend.Handler(&checker));
  ASSERT_TRUE(server->Start().ok());

  // First incarnation: Send directly through a raw clerk, then "crash"
  // before receiving.
  {
    client::Clerk clerk(system.MakeClerkOptions("phoenix"));
    Status s = system.repo()->CreateQueue(
        RequestSystem::ReplyQueueName("phoenix"));
    ASSERT_TRUE(s.ok() || s.IsAlreadyExists());
    ASSERT_TRUE(clerk.Connect().ok());
    queue::RequestEnvelope envelope;
    envelope.rid = "phoenix#1";
    envelope.reply_queue = RequestSystem::ReplyQueueName("phoenix");
    envelope.body = "survive-me";
    checker.RecordSubmission("phoenix#1");
    ASSERT_TRUE(
        clerk.Send(queue::EncodeRequestEnvelope(envelope), "phoenix#1").ok());
    // Crash: no Receive, no Disconnect.
  }

  // Second incarnation: ReliableClient::Start resynchronizes, finds
  // the outstanding request, and processes its reply.
  int processed = 0;
  client::ReliableClientOptions options;
  options.clerk = system.MakeClerkOptions("phoenix");
  client::ReliableClient reborn(options,
                                [&](const queue::ReplyEnvelope&, bool) {
                                  ++processed;
                                  checker.RecordReplyProcessed("phoenix#1");
                                  return Status::OK();
                                });
  ASSERT_TRUE(reborn.Start().ok());
  server->Stop();

  EXPECT_EQ(processed, 1);
  auto verdict = checker.Check();
  EXPECT_TRUE(verdict.AllHold()) << "dups=" << verdict.duplicate_executions
                                 << " lost=" << verdict.lost_requests;
  EXPECT_EQ(backend.counter(), 1);

  // And the reborn client continues normally with fresh rids.
  auto server2 = system.MakeServer(backend.Handler(&checker));
  ASSERT_TRUE(server2->Start().ok());
  auto reply = reborn.Execute("next");
  server2->Stop();
  EXPECT_TRUE(reply.ok()) << reply.status().ToString();
}

TEST(ExactlyOnceTest, ClientCrashAfterReceiveReprocessesReply) {
  // At-least-once reply processing: crash between Receive-commit and
  // processing means the reply is processed again after recovery.
  RequestSystem system;
  ASSERT_TRUE(system.Open().ok());
  auto server = system.MakeServer(
      [](txn::Transaction*, const queue::RequestEnvelope& request)
          -> Result<std::string> { return "R:" + request.body; });
  ASSERT_TRUE(server->Start().ok());

  // Run a full Execute (reply processed once)...
  int processed = 0;
  {
    client::ReliableClientOptions options;
    options.clerk = system.MakeClerkOptions("lazarus");
    Status s = system.repo()->CreateQueue(
        RequestSystem::ReplyQueueName("lazarus"));
    ASSERT_TRUE(s.ok() || s.IsAlreadyExists());
    client::ReliableClient first(
        options, [&processed](const queue::ReplyEnvelope&, bool) {
          ++processed;
          return Status::OK();
        });
    ASSERT_TRUE(first.Start().ok());
    ASSERT_TRUE(first.Execute("job").ok());
    EXPECT_EQ(processed, 1);
    // ...then crash WITHOUT disconnecting: to the system this is
    // indistinguishable from a crash right before processing.
  }

  client::ReliableClientOptions options;
  options.clerk = system.MakeClerkOptions("lazarus");
  client::ReliableClient reborn(
      options,
      [&processed](const queue::ReplyEnvelope&, bool maybe_duplicate) {
        ++processed;
        EXPECT_TRUE(maybe_duplicate);  // The client knows it may be a repeat.
        return Status::OK();
      });
  ASSERT_TRUE(reborn.Start().ok());
  server->Stop();
  // Reply processed at least once — here, twice (no testable device).
  EXPECT_EQ(processed, 2);
  EXPECT_EQ(reborn.redeliveries(), 1u);
}

TEST(ExactlyOnceTest, TestableDeviceMakesReplyProcessingExactlyOnce) {
  // Same crash point as above, but with a ticket printer: the device
  // state proves the reply was processed, so it is NOT reprinted (§3).
  RequestSystem system;
  ASSERT_TRUE(system.Open().ok());
  auto server = system.MakeServer(
      [](txn::Transaction*, const queue::RequestEnvelope& request)
          -> Result<std::string> { return "TICKET:" + request.body; });
  ASSERT_TRUE(server->Start().ok());

  client::TicketPrinter printer;  // Survives client crashes.
  {
    auto client = system.MakeClient("teller", nullptr, &printer);
    ASSERT_TRUE(client.ok());
    ASSERT_TRUE((*client)->Execute("seat-4A").ok());
    ASSERT_EQ(printer.printed().size(), 1u);
    // Crash without disconnecting.
  }
  {
    client::ReliableClientOptions options;
    options.clerk = system.MakeClerkOptions("teller");
    options.device = &printer;
    client::ReliableClient reborn(options, nullptr);
    ASSERT_TRUE(reborn.Start().ok());
  }
  server->Stop();
  // Exactly one ticket, despite the crash-and-resync.
  auto printed = printer.printed();
  ASSERT_EQ(printed.size(), 1u);
  EXPECT_EQ(printed[0], "TICKET:seat-4A");
}

TEST(ExactlyOnceTest, DeviceCrashBeforeEmitStillPrintsExactlyOnce) {
  // Crash between Receive-commit and Emit: the device state equals the
  // checkpoint, so the recovered client MUST print.
  RequestSystem system;
  ASSERT_TRUE(system.Open().ok());
  auto server = system.MakeServer(
      [](txn::Transaction*, const queue::RequestEnvelope& request)
          -> Result<std::string> { return "TICKET:" + request.body; });
  ASSERT_TRUE(server->Start().ok());

  client::TicketPrinter printer;
  {
    // Drive the clerk manually so we can stop before Emit.
    Status s = system.repo()->CreateQueue(
        RequestSystem::ReplyQueueName("teller2"));
    ASSERT_TRUE(s.ok() || s.IsAlreadyExists());
    client::Clerk clerk(system.MakeClerkOptions("teller2"));
    ASSERT_TRUE(clerk.Connect().ok());
    queue::RequestEnvelope envelope;
    envelope.rid = "teller2#1";
    envelope.reply_queue = RequestSystem::ReplyQueueName("teller2");
    envelope.body = "seat-9C";
    ASSERT_TRUE(
        clerk.Send(queue::EncodeRequestEnvelope(envelope), "teller2#1").ok());
    // Receive with the device state as ckpt, then crash before Emit.
    Result<std::string> reply = Status::NotFound("pending");
    for (int i = 0; i < 100 && !reply.ok(); ++i) {
      reply = clerk.Receive(printer.ReadState());
    }
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
    // CRASH: not printed.
  }
  EXPECT_EQ(printer.printed().size(), 0u);
  {
    client::ReliableClientOptions options;
    options.clerk = system.MakeClerkOptions("teller2");
    options.device = &printer;
    client::ReliableClient reborn(options, nullptr);
    ASSERT_TRUE(reborn.Start().ok());
  }
  server->Stop();
  auto printed = printer.printed();
  ASSERT_EQ(printed.size(), 1u);
  EXPECT_EQ(printed[0], "TICKET:seat-9C");
}

}  // namespace
}  // namespace rrq::core
