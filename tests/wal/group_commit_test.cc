// Group commit: concurrent committers share physical WAL syncs via the
// leader/follower protocol in LogWriter::SyncTo. These tests pin down
// the three properties the optimization must preserve or deliver:
// durability of every acknowledged record (including across a crash),
// batching (fewer physical syncs than durability requests under
// contention), and clean surfacing of leader sync failures.
#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "env/faulty_env.h"
#include "env/mem_env.h"
#include "queue/queue_repository.h"
#include "wal/log_reader.h"
#include "wal/log_writer.h"

namespace rrq::wal {
namespace {

// Delegating file whose Sync dawdles, giving followers time to pile up
// behind the leader so batching is observable deterministically.
class SlowSyncFile final : public env::WritableFile {
 public:
  explicit SlowSyncFile(std::unique_ptr<env::WritableFile> base)
      : base_(std::move(base)) {}

  Status Append(const Slice& data) override { return base_->Append(data); }
  Status Flush() override { return base_->Flush(); }
  Status Sync() override {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    return base_->Sync();
  }
  Status Close() override { return base_->Close(); }

 private:
  std::unique_ptr<env::WritableFile> base_;
};

class GroupCommitTest : public ::testing::Test {
 protected:
  std::unique_ptr<LogWriter> NewWriter(bool group_commit = true,
                                       bool slow_sync = false) {
    std::unique_ptr<env::WritableFile> file;
    EXPECT_TRUE(env_.NewWritableFile("/log", &file).ok());
    if (slow_sync) file = std::make_unique<SlowSyncFile>(std::move(file));
    return std::make_unique<LogWriter>(std::move(file), 0, group_commit);
  }

  std::vector<std::string> ReadAll() {
    std::unique_ptr<env::SequentialFile> file;
    EXPECT_TRUE(env_.NewSequentialFile("/log", &file).ok());
    LogReader reader(std::move(file));
    std::vector<std::string> records;
    Slice record;
    std::string scratch;
    while (reader.ReadRecord(&record, &scratch)) {
      records.push_back(record.ToString());
    }
    return records;
  }

  env::MemEnv env_;
};

TEST_F(GroupCommitTest, ConcurrentCommittersAllDurable) {
  auto writer = NewWriter();
  constexpr int kThreads = 8;
  constexpr int kPerThread = 50;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t]() {
      for (int i = 0; i < kPerThread; ++i) {
        std::string record =
            "t" + std::to_string(t) + "-" + std::to_string(i);
        uint64_t end_offset = 0;
        ASSERT_TRUE(writer->AddRecord(record, &end_offset).ok());
        ASSERT_TRUE(writer->SyncTo(end_offset).ok());
        // SyncTo returning OK is the durability acknowledgment.
        EXPECT_GE(writer->durable_offset(), end_offset);
      }
    });
  }
  for (auto& t : threads) t.join();

  EXPECT_EQ(writer->record_count(), kThreads * kPerThread);
  EXPECT_EQ(writer->durable_offset(), writer->PhysicalSize());
  EXPECT_EQ(ReadAll().size(), static_cast<size_t>(kThreads * kPerThread));
}

TEST_F(GroupCommitTest, BatchesSyncsUnderContention) {
  auto writer = NewWriter(/*group_commit=*/true, /*slow_sync=*/true);
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&]() {
      for (int i = 0; i < kPerThread; ++i) {
        uint64_t end_offset = 0;
        ASSERT_TRUE(writer->AddRecord("payload", &end_offset).ok());
        ASSERT_TRUE(writer->SyncTo(end_offset).ok());
      }
    });
  }
  for (auto& t : threads) t.join();

  // With 8 committers stacked behind a 2ms sync, one leader must have
  // covered several followers: strictly fewer physical syncs than
  // durability requests, i.e. records-per-sync > 1.
  EXPECT_GT(writer->sync_request_count(), writer->sync_count());
  EXPECT_GT(static_cast<double>(writer->record_count()) /
                static_cast<double>(writer->sync_count()),
            1.0);
}

TEST_F(GroupCommitTest, AlreadyDurableRequestsSkipTheSync) {
  auto writer = NewWriter();
  uint64_t end_offset = 0;
  ASSERT_TRUE(writer->AddRecord("once", &end_offset).ok());
  ASSERT_TRUE(writer->SyncTo(end_offset).ok());
  EXPECT_EQ(writer->sync_count(), 1u);
  EXPECT_EQ(writer->sync_request_count(), 1u);
  // Re-requesting durability for covered bytes is free.
  ASSERT_TRUE(writer->SyncTo(end_offset).ok());
  ASSERT_TRUE(writer->SyncTo(end_offset / 2).ok());
  EXPECT_EQ(writer->sync_count(), 1u);
  EXPECT_EQ(writer->sync_request_count(), 1u);
}

TEST_F(GroupCommitTest, PerOpBaselineSyncsEveryRequest) {
  auto writer = NewWriter(/*group_commit=*/false);
  for (int i = 0; i < 10; ++i) {
    uint64_t end_offset = 0;
    ASSERT_TRUE(writer->AddRecord("op", &end_offset).ok());
    ASSERT_TRUE(writer->SyncTo(end_offset).ok());
  }
  EXPECT_EQ(writer->sync_count(), 10u);
  EXPECT_EQ(writer->sync_request_count(), 10u);
  EXPECT_EQ(writer->durable_offset(), writer->PhysicalSize());
}

TEST_F(GroupCommitTest, FailedLeaderSyncSurfacesAndDoesNotAdvance) {
  env::FaultConfig config;
  config.sync_failure_one_in = 1;  // Every sync fails until suppressed.
  env::FaultyEnv faulty(&env_, config);
  std::unique_ptr<env::WritableFile> file;
  ASSERT_TRUE(faulty.NewWritableFile("/flog", &file).ok());
  LogWriter writer(std::move(file));

  uint64_t end_offset = 0;
  ASSERT_TRUE(writer.AddRecord("doomed", &end_offset).ok());
  EXPECT_FALSE(writer.SyncTo(end_offset).ok());
  EXPECT_LT(writer.durable_offset(), end_offset);
  EXPECT_EQ(writer.sync_count(), 0u);

  // Fail-stop: the failed sync may have dropped the dirty pages, so the
  // error sticks even after the fault clears. No later sync or append
  // succeeds and the watermark never moves.
  faulty.SetFaultsSuppressed(true);
  for (int i = 0; i < 3; ++i) {
    EXPECT_FALSE(writer.SyncTo(end_offset).ok());
  }
  EXPECT_FALSE(writer.Sync().ok());
  EXPECT_FALSE(writer.AddRecord("after").ok());
  EXPECT_FALSE(writer.error().ok());
  EXPECT_LT(writer.durable_offset(), end_offset);
  EXPECT_EQ(writer.sync_count(), 0u);
}

TEST_F(GroupCommitTest, CrashAfterGroupCommitKeepsEveryAcknowledgedRecord) {
  auto writer = NewWriter();
  constexpr int kThreads = 4;
  constexpr int kPerThread = 25;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t]() {
      for (int i = 0; i < kPerThread; ++i) {
        std::string record =
            "ack-" + std::to_string(t) + "-" + std::to_string(i);
        uint64_t end_offset = 0;
        ASSERT_TRUE(writer->AddRecord(record, &end_offset).ok());
        ASSERT_TRUE(writer->SyncTo(end_offset).ok());
      }
    });
  }
  for (auto& t : threads) t.join();

  // Every record above was acknowledged durable; the crash must not
  // lose any of them even though most shared a physical sync.
  env_.SimulateCrash();
  EXPECT_EQ(ReadAll().size(), static_cast<size_t>(kThreads * kPerThread));
}

// Repository-level: concurrent auto-commit enqueues ride the shared
// group-commit path end to end, and survive a crash + replay.
TEST(GroupCommitRepositoryTest, ConcurrentEnqueuesDurableAcrossCrash) {
  env::MemEnv env;
  queue::RepositoryOptions options;
  options.env = &env;
  options.dir = "/gc";
  auto repo = std::make_unique<queue::QueueRepository>("gc", options);
  ASSERT_TRUE(repo->Open().ok());
  ASSERT_TRUE(repo->CreateQueue("q").ok());

  constexpr int kThreads = 8;
  constexpr int kPerThread = 25;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t]() {
      for (int i = 0; i < kPerThread; ++i) {
        auto r = repo->Enqueue(
            nullptr, "q",
            "job-" + std::to_string(t) + "-" + std::to_string(i));
        ASSERT_TRUE(r.ok()) << r.status().ToString();
      }
    });
  }
  for (auto& t : threads) t.join();

  // Physical syncs never exceed durability requests; under contention
  // they are typically far fewer.
  EXPECT_LE(repo->wal_sync_count(), repo->wal_sync_request_count());
  EXPECT_GE(repo->wal_sync_count(), 1u);

  repo.reset();
  env.SimulateCrash();

  auto reborn = std::make_unique<queue::QueueRepository>("gc", options);
  ASSERT_TRUE(reborn->Open().ok());
  // All acknowledged enqueues replay from the group-committed WAL.
  auto depth = reborn->Depth("q");
  ASSERT_TRUE(depth.ok()) << depth.status().ToString();
  EXPECT_EQ(*depth, static_cast<size_t>(kThreads * kPerThread));
}

}  // namespace
}  // namespace rrq::wal
