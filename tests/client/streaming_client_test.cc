// §11 streaming extension: a window of outstanding requests, each slot
// an independent fault-tolerant session.
#include "client/streaming_client.h"

#include <gtest/gtest.h>

#include "core/property_checker.h"
#include "core/request_system.h"

namespace rrq::client {
namespace {

class StreamingClientTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(system_.Open().ok());
    server_ = system_.MakeServer(
        [this](txn::Transaction* t, const queue::RequestEnvelope& request)
            -> Result<std::string> {
          const std::string rid = request.rid;
          t->OnCommit([this, rid]() { checker_.RecordCommittedExecution(rid); });
          return "done:" + request.body;
        },
        /*threads=*/2);
    ASSERT_TRUE(server_->Start().ok());
  }

  void TearDown() override { server_->Stop(); }

  StreamingClient::StreamProcessor Processor() {
    return [this](const std::string& rid, const std::string& reply,
                  bool success) {
      checker_.RecordReplyProcessed(rid);
      std::lock_guard<std::mutex> guard(mu_);
      replies_[rid] = reply;
      EXPECT_TRUE(success);
      return Status::OK();
    };
  }

  core::RequestSystem system_;
  core::PropertyChecker checker_;
  std::unique_ptr<server::Server> server_;
  std::mutex mu_;
  std::map<std::string, std::string> replies_;
};

TEST_F(StreamingClientTest, PipelinesUpToWindowDepth) {
  auto stream = system_.MakeStreamingClient("streamer", 4, Processor());
  ASSERT_TRUE(stream.ok()) << stream.status().ToString();
  std::vector<std::string> rids;
  for (int i = 0; i < 20; ++i) {
    auto rid = (*stream)->Submit("job-" + std::to_string(i));
    ASSERT_TRUE(rid.ok()) << rid.status().ToString();
    rids.push_back(*rid);
    EXPECT_LE((*stream)->in_flight(), 4);
  }
  ASSERT_TRUE((*stream)->Drain().ok());
  EXPECT_EQ((*stream)->completed(), 20u);
  // Every rid got its own matching reply.
  for (int i = 0; i < 20; ++i) {
    std::lock_guard<std::mutex> guard(mu_);
    ASSERT_TRUE(replies_.count(rids[static_cast<size_t>(i)]) == 1) << i;
    EXPECT_EQ(replies_[rids[static_cast<size_t>(i)]],
              "done:job-" + std::to_string(i));
  }
  ASSERT_TRUE((*stream)->Stop().ok());
}

TEST_F(StreamingClientTest, RidsAreUniqueAcrossSlots) {
  auto stream = system_.MakeStreamingClient("uniq", 3, Processor());
  ASSERT_TRUE(stream.ok());
  std::set<std::string> rids;
  for (int i = 0; i < 12; ++i) {
    auto rid = (*stream)->Submit("x");
    ASSERT_TRUE(rid.ok());
    EXPECT_TRUE(rids.insert(*rid).second) << "duplicate rid " << *rid;
  }
  ASSERT_TRUE((*stream)->Drain().ok());
}

TEST_F(StreamingClientTest, WindowOfOneBehavesSequentially) {
  auto stream = system_.MakeStreamingClient("solo", 1, Processor());
  ASSERT_TRUE(stream.ok());
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE((*stream)->Submit("s").ok());
    EXPECT_LE((*stream)->in_flight(), 1);
  }
  ASSERT_TRUE((*stream)->Drain().ok());
  EXPECT_EQ((*stream)->completed(), 5u);
}

TEST_F(StreamingClientTest, RecoversInFlightWindowAfterClientCrash) {
  std::vector<std::string> rids;
  {
    auto stream = system_.MakeStreamingClient("mortal", 3, Processor());
    ASSERT_TRUE(stream.ok());
    for (int i = 0; i < 3; ++i) {
      auto rid = (*stream)->Submit("pending-" + std::to_string(i));
      ASSERT_TRUE(rid.ok());
      rids.push_back(*rid);
    }
    // Crash with a full window outstanding (no Drain, no Stop).
  }
  // The reborn stream resynchronizes every slot and collects the three
  // pending replies during Start().
  auto reborn = system_.MakeStreamingClient("mortal", 3, Processor());
  ASSERT_TRUE(reborn.ok()) << reborn.status().ToString();
  EXPECT_EQ((*reborn)->in_flight(), 0);
  {
    std::lock_guard<std::mutex> guard(mu_);
    for (const std::string& rid : rids) {
      EXPECT_TRUE(replies_.count(rid) == 1) << "lost reply for " << rid;
    }
  }
  // Exactly-once on the server side, across the crash. A reply becomes
  // visible when the server's transaction commits, but the handler's
  // OnCommit callback (which records the execution) runs in the worker
  // thread just after — so quiesce the server before consulting the
  // checker. Stop() joins the workers; TearDown's second Stop() is a
  // no-op.
  server_->Stop();
  for (const std::string& rid : rids) checker_.RecordSubmission(rid);
  auto verdict = checker_.Check();
  EXPECT_EQ(verdict.duplicate_executions, 0u);
  EXPECT_EQ(verdict.lost_requests, 0u);
}

TEST_F(StreamingClientTest, SurvivesLossyNetwork) {
  // Rebuild the fixture in remote mode with drops.
  server_->Stop();
  core::SystemOptions options;
  options.remote_clients = true;
  options.client_link_faults.drop_probability = 0.10;
  options.seed = 303;
  options.receive_timeout_micros = 10'000;
  core::RequestSystem lossy(options);
  core::RequestSystem* system = &lossy;
  ASSERT_TRUE(system->Open().ok());
  auto server = system->MakeServer(
      [](txn::Transaction*, const queue::RequestEnvelope& request)
          -> Result<std::string> { return "ok:" + request.body; },
      2);
  ASSERT_TRUE(server->Start().ok());

  // Counted, not collected in a set: a set would hide a reply
  // processed twice within one incarnation.
  std::map<std::string, int> processed;
  auto stream = system->MakeStreamingClient(
      "lossy-stream", 4,
      [&processed](const std::string& rid, const std::string&, bool) {
        ++processed[rid];
        return Status::OK();
      });
  ASSERT_TRUE(stream.ok()) << stream.status().ToString();
  std::set<std::string> submitted;
  for (int i = 0; i < 20; ++i) {
    auto rid = (*stream)->Submit("w");
    ASSERT_TRUE(rid.ok()) << rid.status().ToString();
    submitted.insert(*rid);
  }
  ASSERT_TRUE((*stream)->Drain().ok());
  for (const std::string& rid : submitted) {
    EXPECT_EQ(processed[rid], 1) << "reply processed wrongly often: " << rid;
  }
  EXPECT_EQ(processed.size(), submitted.size());
  EXPECT_EQ((*stream)->completed(), 20u);
  server->Stop();
}

// Runs `window` requests against a system that cannot answer them
// for longer than every slot's budgets, then lets it answer: Drain
// fails while it cannot, then processes every reply exactly once, and
// the window is usable again.
void ExpectWindowOutlastsOutage(core::RequestSystem* system,
                                const std::function<void()>& outage,
                                const std::function<void()>& restore) {
  std::map<std::string, int> processed;
  auto stream = system->MakeStreamingClient(
      "outlast", 2,
      [&](const std::string& rid, const std::string&, bool success) {
        ++processed[rid];
        EXPECT_TRUE(success);
        return Status::OK();
      });
  ASSERT_TRUE(stream.ok()) << stream.status().ToString();
  outage();
  // A send lost to the outage fails Submit but leaves the request in
  // flight, in doubt, so each of these may or may not report an error.
  for (int i = 0; i < 2; ++i) (*stream)->Submit("during");
  EXPECT_FALSE((*stream)->Drain().ok());
  EXPECT_FALSE((*stream)->Drain().ok());
  EXPECT_EQ((*stream)->in_flight(), 2);
  restore();
  ASSERT_TRUE((*stream)->Drain().ok());
  EXPECT_EQ((*stream)->completed(), 2u);
  auto late = (*stream)->Submit("after");
  ASSERT_TRUE(late.ok()) << late.status().ToString();
  ASSERT_TRUE((*stream)->Drain().ok());
  EXPECT_EQ((*stream)->completed(), 3u);
  EXPECT_EQ(processed.size(), 3u);
  EXPECT_EQ(processed.count(*late), 1u);
  for (const auto& [rid, times] : processed) {
    EXPECT_EQ(times, 1) << "reply processed wrongly often: " << rid;
  }
  ASSERT_TRUE((*stream)->Stop().ok());
}

TEST(StreamingClientOutageTest, ResumesRequestsAfterSlowServer) {
  core::SystemOptions options;
  options.receive_timeout_micros = 1'000;  // 200 polls: a 0.2 s budget.
  core::RequestSystem system(options);
  ASSERT_TRUE(system.Open().ok());
  auto server = system.MakeServer(
      [](txn::Transaction*, const queue::RequestEnvelope& request)
          -> Result<std::string> { return "ok:" + request.body; },
      1);
  ExpectWindowOutlastsOutage(
      &system, [] {}, [&] { ASSERT_TRUE(server->Start().ok()); });
  server->Stop();
}

TEST(StreamingClientOutageTest, ResumesRequestsAfterPartition) {
  core::SystemOptions options;
  options.remote_clients = true;
  options.receive_timeout_micros = 1'000;
  core::RequestSystem system(options);
  ASSERT_TRUE(system.Open().ok());
  auto server = system.MakeServer(
      [](txn::Transaction*, const queue::RequestEnvelope& request)
          -> Result<std::string> { return "ok:" + request.body; },
      1);
  ASSERT_TRUE(server->Start().ok());
  const char* qm = core::RequestSystem::kQueueServiceName;
  ExpectWindowOutlastsOutage(
      &system, [&] { system.network()->Partition("clients", qm); },
      [&] { system.network()->Heal("clients", qm); });
  server->Stop();
}

}  // namespace
}  // namespace rrq::client
