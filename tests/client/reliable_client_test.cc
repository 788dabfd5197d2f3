// Unit-level tests of ReliableClient protocol behaviors against a
// local repository, with an inline server driven deterministically.
#include "client/reliable_client.h"

#include <gtest/gtest.h>

#include "queue/queue_api.h"
#include "queue/envelope.h"
#include "txn/txn_manager.h"

namespace rrq::client {
namespace {

class ReliableClientTest : public ::testing::Test {
 protected:
  void SetUp() override {
    repo_ = std::make_unique<queue::QueueRepository>("qm");
    ASSERT_TRUE(repo_->Open().ok());
    ASSERT_TRUE(repo_->CreateQueue("req").ok());
    ASSERT_TRUE(repo_->CreateQueue("rep").ok());
    api_ = std::make_unique<queue::LocalQueueApi>(repo_.get());
  }

  ReliableClientOptions Options(const std::string& id = "c") {
    ReliableClientOptions options;
    options.clerk.client_id = id;
    options.clerk.request_queue = "req";
    options.clerk.reply_queue = "rep";
    options.clerk.api = api_.get();
    options.clerk.receive_timeout_micros = 10'000;
    return options;
  }

  // Serves exactly one request (waiting for it to arrive): echoes the
  // body in a success reply (or a failure reply when `success` is
  // false).
  void ServeOne(bool success = true) {
    auto got = repo_->Dequeue(nullptr, "req", "", Slice(), 2'000'000);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    queue::RequestEnvelope request;
    ASSERT_TRUE(queue::DecodeRequestEnvelope(got->contents, &request).ok());
    queue::ReplyEnvelope reply;
    reply.rid = request.rid;
    reply.success = success;
    reply.body = (success ? "ok:" : "failed:") + request.body;
    ASSERT_TRUE(repo_->Enqueue(nullptr, request.reply_queue.empty()
                                            ? "rep"
                                            : request.reply_queue,
                               queue::EncodeReplyEnvelope(reply))
                    .ok());
  }

  std::unique_ptr<queue::QueueRepository> repo_;
  std::unique_ptr<queue::LocalQueueApi> api_;
};

TEST_F(ReliableClientTest, ExecuteWrapsEnvelopeAndUnwrapsReply) {
  ReliableClient client(Options(), nullptr);
  ASSERT_TRUE(client.Start().ok());
  std::thread server([this]() { ServeOne(); });
  auto reply = client.Execute("payload");
  server.join();
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(*reply, "ok:payload");
  EXPECT_EQ(client.completed(), 1u);
}

TEST_F(ReliableClientTest, FailureReplySurfacesAsAborted) {
  int processed = 0;
  ReliableClient client(Options(),
                        [&processed](const queue::ReplyEnvelope&, bool) {
                          ++processed;
                          return Status::OK();
                        });
  ASSERT_TRUE(client.Start().ok());
  std::thread server([this]() { ServeOne(/*success=*/false); });
  auto reply = client.Execute("doomed");
  server.join();
  EXPECT_TRUE(reply.status().IsAborted()) << reply.status().ToString();
  // The failure reply still counts as processed (§3: replies to failed
  // requests are real replies).
  EXPECT_EQ(processed, 1);
  EXPECT_EQ(client.completed(), 1u);
}

TEST_F(ReliableClientTest, RidsIncrementPerRequest) {
  ReliableClient client(Options("rid-client"), nullptr);
  ASSERT_TRUE(client.Start().ok());
  for (int i = 1; i <= 3; ++i) {
    std::thread server([this]() { ServeOne(); });
    ASSERT_TRUE(client.Execute("x").ok());
    server.join();
    EXPECT_EQ(client.clerk()->last_sent_rid(),
              "rid-client#" + std::to_string(i));
  }
}

TEST_F(ReliableClientTest, SeqContinuesAcrossIncarnations) {
  {
    ReliableClient first(Options("phoenix"), nullptr);
    ASSERT_TRUE(first.Start().ok());
    std::thread server([this]() { ServeOne(); });
    ASSERT_TRUE(first.Execute("one").ok());
    server.join();
    // Crash without Stop.
  }
  ReliableClient reborn(Options("phoenix"), nullptr);
  ASSERT_TRUE(reborn.Start().ok());
  std::thread server([this]() { ServeOne(); });
  ASSERT_TRUE(reborn.Execute("two").ok());
  server.join();
  // The second incarnation did NOT reuse rid #1.
  EXPECT_EQ(reborn.clerk()->last_sent_rid(), "phoenix#2");
}

TEST_F(ReliableClientTest, ExecuteBeforeStartRejected) {
  ReliableClient client(Options(), nullptr);
  EXPECT_TRUE(client.Execute("x").status().IsFailedPrecondition());
}

TEST_F(ReliableClientTest, ProcessorErrorPropagates) {
  ReliableClient client(Options(), [](const queue::ReplyEnvelope&, bool) {
    return Status::Internal("display exploded");
  });
  ASSERT_TRUE(client.Start().ok());
  std::thread server([this]() { ServeOne(); });
  auto reply = client.Execute("x");
  server.join();
  EXPECT_TRUE(reply.status().IsInternal());
}

TEST_F(ReliableClientTest, ExecuteResumesRequestLeftInFlightBySlowServer) {
  ReliableClientOptions options = Options("slow");
  options.clerk.receive_timeout_micros = 1'000;
  options.max_poll_attempts = 3;
  std::vector<std::string> processed;
  ReliableClient client(options, [&](const queue::ReplyEnvelope& reply, bool) {
    processed.push_back(reply.rid + "=" + reply.body);
    return Status::OK();
  });
  ASSERT_TRUE(client.Start().ok());
  // No server: the poll budget runs out, but the request stays in
  // flight rather than wedging the session in Req-Sent.
  EXPECT_TRUE(client.Execute("first").status().IsUnavailable());
  EXPECT_TRUE(client.in_flight());
  // The next Execute finishes the first request, then runs its own.
  std::thread server([this]() {
    ServeOne();
    ServeOne();
  });
  auto reply = client.Execute("second");
  server.join();
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(*reply, "ok:second");
  EXPECT_EQ(processed,
            (std::vector<std::string>{"slow#1=ok:first", "slow#2=ok:second"}));
  EXPECT_EQ(client.completed(), 2u);
  EXPECT_FALSE(client.in_flight());
}

TEST_F(ReliableClientTest, CancelInFlightThroughClient) {
  ReliableClient client(Options(), nullptr);
  ASSERT_TRUE(client.Start().ok());
  // No server: send directly via the clerk so Execute doesn't block.
  queue::RequestEnvelope envelope;
  envelope.rid = "c#1";
  envelope.reply_queue = "rep";
  envelope.body = "x";
  ASSERT_TRUE(client.clerk()
                  ->Send(queue::EncodeRequestEnvelope(envelope), "c#1")
                  .ok());
  auto killed = client.CancelInFlight();
  ASSERT_TRUE(killed.ok());
  EXPECT_TRUE(*killed);
  EXPECT_EQ(*repo_->Depth("req"), 0u);
}

TEST_F(ReliableClientTest, StopDisconnectsCleanly) {
  ReliableClient client(Options("tidy"), nullptr);
  ASSERT_TRUE(client.Start().ok());
  ASSERT_TRUE(client.Stop().ok());
  // The registration is gone: a new incarnation starts fresh.
  ReliableClient next(Options("tidy"), nullptr);
  ASSERT_TRUE(next.Start().ok());
  EXPECT_EQ(next.clerk()->last_sent_rid(), "");
}

}  // namespace
}  // namespace rrq::client
