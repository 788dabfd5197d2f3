// Property test: randomized crash schedules, parameterized by seed.
// Each run interleaves client requests with server crash injection,
// queue-manager crash/recovery, and (remote mode) message loss, then
// asserts the §3 guarantees via PropertyChecker.
#include <gtest/gtest.h>

#include "core/property_checker.h"
#include "core/request_system.h"
#include "util/random.h"

namespace rrq::core {
namespace {

class FailureScheduleTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(FailureScheduleTest, GuaranteesHoldUnderRandomCrashes) {
  const uint64_t seed = GetParam();
  util::Rng rng(seed);

  SystemOptions options;
  options.seed = seed;
  options.receive_timeout_micros = 20'000;
  RequestSystem system(options);
  ASSERT_TRUE(system.Open().ok());
  PropertyChecker checker;

  auto make_server = [&system, &checker]() {
    return system.MakeServer(
        [&checker](txn::Transaction* t, const queue::RequestEnvelope& request)
            -> Result<std::string> {
          const std::string rid = request.rid;
          t->OnCommit(
              [&checker, rid]() { checker.RecordCommittedExecution(rid); });
          return "done:" + request.body;
        });
  };
  auto server = make_server();
  ASSERT_TRUE(server->Start().ok());

  auto client = system.MakeClient("prop-client", nullptr);
  ASSERT_TRUE(client.ok()) << client.status().ToString();

  constexpr int kRequests = 20;
  for (int i = 0; i < kRequests; ++i) {
    // Randomly schedule a fault before this request.
    const uint64_t fault = rng.Uniform(10);
    if (fault < 3) {
      // Server crash mid-transaction on the next request.
      server->InjectCrashBeforeCommit(0);
    } else if (fault == 3) {
      // Whole back-end crash: stop the server, crash, recover, restart.
      server->Stop();
      server.reset();
      ASSERT_TRUE(system.CrashAndRecover().ok());
      server = make_server();
      ASSERT_TRUE(server->Start().ok());
    }

    const std::string rid = "prop-client#" + std::to_string(i + 1);
    checker.RecordSubmission(rid);
    auto reply = (*client)->Execute("payload-" + std::to_string(i));
    ASSERT_TRUE(reply.ok()) << "seed " << seed << " request " << i << ": "
                            << reply.status().ToString();
    EXPECT_EQ(*reply, "done:payload-" + std::to_string(i));
    checker.RecordReplyProcessed(rid);
  }
  server->Stop();

  auto verdict = checker.Check();
  EXPECT_TRUE(verdict.AllHold())
      << "seed " << seed << ": dups=" << verdict.duplicate_executions
      << " lost=" << verdict.lost_requests
      << " unprocessed=" << verdict.unprocessed_replies;
  EXPECT_EQ(verdict.submitted, static_cast<uint64_t>(kRequests));
}

TEST_P(FailureScheduleTest, GuaranteesHoldUnderMessageLossAndClientCrashes) {
  const uint64_t seed = GetParam();
  util::Rng rng(seed * 7919 + 13);

  SystemOptions options;
  options.seed = seed;
  options.remote_clients = true;
  options.client_link_faults.drop_probability = 0.10;
  options.receive_timeout_micros = 20'000;
  RequestSystem system(options);
  ASSERT_TRUE(system.Open().ok());
  PropertyChecker checker;

  auto server = system.MakeServer(
      [&checker](txn::Transaction* t, const queue::RequestEnvelope& request)
          -> Result<std::string> {
        const std::string rid = request.rid;
        t->OnCommit(
            [&checker, rid]() { checker.RecordCommittedExecution(rid); });
        return std::string("ok");
      });
  ASSERT_TRUE(server->Start().ok());

  // The client is crashed (destroyed) and reborn at random points;
  // rids continue across incarnations thanks to tag recovery.
  auto reply_processor = [&checker](const queue::ReplyEnvelope&, bool) {
    return Status::OK();
  };
  auto client = system.MakeClient("mortal", reply_processor);
  ASSERT_TRUE(client.ok()) << client.status().ToString();

  constexpr int kRequests = 15;
  int submitted = 0;
  while (submitted < kRequests) {
    if (rng.Uniform(5) == 0) {
      // Client crash + rebirth: Start() resynchronizes.
      client->reset();
      client::ReliableClientOptions copts;
      copts.clerk = system.MakeClerkOptions("mortal");
      auto reborn = std::make_unique<client::ReliableClient>(
          copts, reply_processor);
      ASSERT_TRUE(reborn->Start().ok());
      *client = std::move(reborn);
    }
    const std::string body = "w" + std::to_string(submitted);
    auto reply = (*client)->Execute(body);
    ASSERT_TRUE(reply.ok()) << "seed " << seed << ": "
                            << reply.status().ToString();
    // Record the rid the clerk actually used (seq continues across
    // incarnations).
    const std::string rid = (*client)->clerk()->last_sent_rid();
    checker.RecordSubmission(rid);
    checker.RecordReplyProcessed(rid);
    ++submitted;
  }
  server->Stop();

  // Every submitted rid executed exactly once — no rid may execute
  // twice despite resends after lost acknowledgements, and none may
  // vanish.
  auto verdict = checker.Check();
  EXPECT_TRUE(verdict.AllHold())
      << "seed " << seed << ": dups=" << verdict.duplicate_executions
      << " lost=" << verdict.lost_requests
      << " phantom=" << verdict.phantom_executions;
  EXPECT_EQ(verdict.submitted, static_cast<uint64_t>(kRequests));
}

TEST_P(FailureScheduleTest, ExactlyOnceHoldsUnderMessageDuplication) {
  // One-way sends over a duplicating (and mildly lossy) network: the
  // network may deliver the same enqueue message twice, but persistent
  // registration dedups it — no rid may ever execute twice.
  const uint64_t seed = GetParam();
  SystemOptions options;
  options.seed = seed * 13 + 5;
  options.remote_clients = true;
  options.send_mode = client::SendMode::kOneWay;
  options.client_link_faults.duplicate_probability = 0.30;
  options.client_link_faults.drop_probability = 0.05;
  options.receive_timeout_micros = 20'000;
  RequestSystem system(options);
  ASSERT_TRUE(system.Open().ok());
  PropertyChecker checker;
  auto server = system.MakeServer(
      [&checker](txn::Transaction* t, const queue::RequestEnvelope& request)
          -> Result<std::string> {
        const std::string rid = request.rid;
        t->OnCommit(
            [&checker, rid]() { checker.RecordCommittedExecution(rid); });
        return std::string("ok");
      });
  ASSERT_TRUE(server->Start().ok());
  auto client = system.MakeClient("dup-prone", nullptr);
  ASSERT_TRUE(client.ok()) << client.status().ToString();

  constexpr int kRequests = 15;
  for (int i = 0; i < kRequests; ++i) {
    auto reply = (*client)->Execute("w" + std::to_string(i));
    ASSERT_TRUE(reply.ok()) << "seed " << seed << ": "
                            << reply.status().ToString();
    const std::string rid = (*client)->clerk()->last_sent_rid();
    checker.RecordSubmission(rid);
    checker.RecordReplyProcessed(rid);
  }
  server->Stop();
  auto verdict = checker.Check();
  EXPECT_TRUE(verdict.AllHold())
      << "seed " << seed << ": dups=" << verdict.duplicate_executions
      << " lost=" << verdict.lost_requests
      << " phantom=" << verdict.phantom_executions;
  EXPECT_GT(system.network()->messages_duplicated(), 0u) << "seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, FailureScheduleTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55, 89));

}  // namespace
}  // namespace rrq::core
