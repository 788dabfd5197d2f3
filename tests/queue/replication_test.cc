// §10 queue replication: record-level state-machine replication of a
// QueueRepository onto a hot standby, including full client failover
// via persistent registration.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <thread>

#include "client/clerk.h"
#include "comm/network.h"
#include "env/mem_env.h"
#include "queue/queue_api.h"
#include "queue/queue_repository.h"
#include "txn/txn_manager.h"

namespace rrq::queue {
namespace {

class ReplicationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    backup_ = std::make_unique<QueueRepository>("backup");
    ASSERT_TRUE(backup_->Open().ok());
    RepositoryOptions options;
    options.replication_sink = [this](const Slice& record) {
      return backup_->ApplyReplicatedRecord(record);
    };
    primary_ = std::make_unique<QueueRepository>("primary", options);
    ASSERT_TRUE(primary_->Open().ok());
    ASSERT_TRUE(primary_->CreateQueue("q").ok());
    txn_mgr_ = std::make_unique<txn::TransactionManager>();
    ASSERT_TRUE(txn_mgr_->Open().ok());
  }

  std::unique_ptr<QueueRepository> backup_;
  std::unique_ptr<QueueRepository> primary_;
  std::unique_ptr<txn::TransactionManager> txn_mgr_;
};

TEST_F(ReplicationTest, MetadataReplicates) {
  EXPECT_TRUE(backup_->QueueExists("q"));
  ASSERT_TRUE(primary_->CreateQueue("q2").ok());
  EXPECT_TRUE(backup_->QueueExists("q2"));
  ASSERT_TRUE(primary_->DestroyQueue("q2").ok());
  EXPECT_FALSE(backup_->QueueExists("q2"));
}

TEST_F(ReplicationTest, ElementsReplicateWithIdenticalEids) {
  auto e1 = primary_->Enqueue(nullptr, "q", "alpha", 3);
  auto e2 = primary_->Enqueue(nullptr, "q", "beta", 1);
  ASSERT_TRUE(e1.ok());
  ASSERT_TRUE(e2.ok());
  EXPECT_EQ(*backup_->Depth("q"), 2u);
  auto mirrored = backup_->Read("q", *e1);
  ASSERT_TRUE(mirrored.ok());
  EXPECT_EQ(mirrored->contents, "alpha");
  EXPECT_EQ(mirrored->priority, 3u);
  // Dequeue on the primary removes from the backup too.
  ASSERT_TRUE(primary_->Dequeue(nullptr, "q").ok());
  EXPECT_EQ(*backup_->Depth("q"), 1u);
}

TEST_F(ReplicationTest, TransactionalCommitReplicatesAtomically) {
  ASSERT_TRUE(primary_->CreateQueue("q2").ok());
  ASSERT_TRUE(primary_->Enqueue(nullptr, "q", "hop").ok());
  auto txn = txn_mgr_->Begin();
  ASSERT_TRUE(primary_->Dequeue(txn.get(), "q").ok());
  ASSERT_TRUE(primary_->Enqueue(txn.get(), "q2", "hopped").ok());
  // Uncommitted: the backup still shows the original state.
  EXPECT_EQ(*backup_->Depth("q"), 1u);
  EXPECT_EQ(*backup_->Depth("q2"), 0u);
  ASSERT_TRUE(txn->Commit().ok());
  EXPECT_EQ(*backup_->Depth("q"), 0u);
  EXPECT_EQ(*backup_->Depth("q2"), 1u);
}

TEST_F(ReplicationTest, AbortSideEffectsReplicate) {
  QueueOptions qopts;
  qopts.max_aborts = 2;
  qopts.error_queue = "q.err";
  ASSERT_TRUE(primary_->CreateQueue("poison", qopts).ok());
  ASSERT_TRUE(primary_->Enqueue(nullptr, "poison", "bad").ok());
  for (int i = 0; i < 2; ++i) {
    auto txn = txn_mgr_->Begin();
    ASSERT_TRUE(primary_->Dequeue(txn.get(), "poison").ok());
    txn->Abort();
  }
  // The error-queue move replicated.
  EXPECT_TRUE(backup_->QueueExists("q.err"));
  EXPECT_EQ(*backup_->Depth("q.err"), 1u);
}

TEST_F(ReplicationTest, PromotedBackupNeverReusesEids) {
  auto last = primary_->Enqueue(nullptr, "q", "x");
  ASSERT_TRUE(last.ok());
  // Primary dies; the backup takes over.
  auto fresh = backup_->Enqueue(nullptr, "q", "y");
  ASSERT_TRUE(fresh.ok());
  EXPECT_GT(*fresh, *last);
}

TEST_F(ReplicationTest, TriggersFireOncePrimarySide) {
  ASSERT_TRUE(primary_->CreateQueue("join").ok());
  TriggerSpec trigger;
  trigger.watched_queue = "q";
  trigger.remaining = 2;
  trigger.target_queue = "join";
  trigger.contents = "go";
  ASSERT_TRUE(primary_->SetTrigger(trigger).ok());
  ASSERT_TRUE(primary_->Enqueue(nullptr, "q", "a").ok());
  ASSERT_TRUE(primary_->Enqueue(nullptr, "q", "b").ok());
  // Fired exactly once, and the join element replicated exactly once.
  EXPECT_EQ(*primary_->Depth("join"), 1u);
  EXPECT_EQ(*backup_->Depth("join"), 1u);
}

TEST_F(ReplicationTest, ClientFailsOverWithFullResync) {
  // The paper's replication payoff: a client whose primary died
  // reconnects against the backup and finds its registration tags —
  // exactly-once continues across the failover.
  ASSERT_TRUE(primary_->CreateQueue("rep").ok());
  LocalQueueApi primary_api(primary_.get());
  client::ClerkOptions options;
  options.client_id = "c1";
  options.request_queue = "q";
  options.reply_queue = "rep";
  options.api = &primary_api;
  client::Clerk clerk(options);
  ASSERT_TRUE(clerk.Connect().ok());
  ASSERT_TRUE(clerk.Send("work", "c1#1").ok());
  // Primary node is lost. The client reconnects to the backup.
  LocalQueueApi backup_api(backup_.get());
  client::ClerkOptions failover = options;
  failover.api = &backup_api;
  client::Clerk reborn(failover);
  auto cr = reborn.Connect();
  ASSERT_TRUE(cr.ok());
  EXPECT_EQ(cr->s_rid, "c1#1");  // The tag survived on the standby.
  EXPECT_EQ(cr->resumed_state, client::SessionState::kReqSent);
  // The request itself is there for a backup-side server to process.
  EXPECT_EQ(*backup_->Depth("q"), 1u);
}

TEST_F(ReplicationTest, DurableBackupRecoversReplicatedState) {
  env::MemEnv backup_env;
  RepositoryOptions backup_options;
  backup_options.env = &backup_env;
  backup_options.dir = "/backup";
  auto durable_backup =
      std::make_unique<QueueRepository>("backup2", backup_options);
  ASSERT_TRUE(durable_backup->Open().ok());

  RepositoryOptions primary_options;
  primary_options.replication_sink = [&durable_backup](const Slice& record) {
    return durable_backup->ApplyReplicatedRecord(record);
  };
  QueueRepository primary("primary2", primary_options);
  ASSERT_TRUE(primary.Open().ok());
  ASSERT_TRUE(primary.CreateQueue("q").ok());
  ASSERT_TRUE(primary.Enqueue(nullptr, "q", "persist-me").ok());

  // Crash the backup node and recover it from its own WAL.
  durable_backup.reset();
  backup_env.SimulateCrash();
  QueueRepository recovered("backup2", backup_options);
  ASSERT_TRUE(recovered.Open().ok());
  EXPECT_EQ(*recovered.Depth("q"), 1u);
  auto element = recovered.Dequeue(nullptr, "q");
  ASSERT_TRUE(element.ok());
  EXPECT_EQ(element->contents, "persist-me");
}

TEST_F(ReplicationTest, ChainedReplication) {
  auto tail = std::make_unique<QueueRepository>("tail");
  ASSERT_TRUE(tail->Open().ok());
  RepositoryOptions mid_options;
  mid_options.replication_sink = [&tail](const Slice& record) {
    return tail->ApplyReplicatedRecord(record);
  };
  auto mid = std::make_unique<QueueRepository>("mid", mid_options);
  ASSERT_TRUE(mid->Open().ok());
  RepositoryOptions head_options;
  head_options.replication_sink = [&mid](const Slice& record) {
    return mid->ApplyReplicatedRecord(record);
  };
  QueueRepository head("head", head_options);
  ASSERT_TRUE(head.Open().ok());

  ASSERT_TRUE(head.CreateQueue("q").ok());
  ASSERT_TRUE(head.Enqueue(nullptr, "q", "all-the-way").ok());
  EXPECT_EQ(*mid->Depth("q"), 1u);
  EXPECT_EQ(*tail->Depth("q"), 1u);
}

TEST_F(ReplicationTest, SinkFailureSurfacesButLocalCommitStands) {
  RepositoryOptions options;
  options.replication_sink = [](const Slice&) {
    return Status::Unavailable("backup partitioned");
  };
  QueueRepository lonely("lonely", options);
  ASSERT_TRUE(lonely.Open().ok());
  // CreateQueue itself replicates; expect the surfaced error.
  Status s = lonely.CreateQueue("q");
  EXPECT_TRUE(s.IsUnavailable()) << s.ToString();
  // But the local effect stands (semi-synchronous).
  EXPECT_TRUE(lonely.QueueExists("q"));
  EXPECT_GE(lonely.replication_failure_count(), 1u);
}

TEST(ReplicationDeliveryTest, StateHandedBackNeverOutrunsItsRecord) {
  // Re-Register hands back the registrant's last op, and a tagged
  // re-Enqueue is acknowledged from it, without committing anything.
  // Neither may return before that op's record reached the sink: an
  // ack-mode rrqd gates each reply on the backup acknowledging the
  // replication log's head, so state not yet in the log is unguarded.
  std::mutex mu;
  std::condition_variable cv;
  bool hold = false;
  int parked = 0;
  RepositoryOptions options;
  options.replication_sink = [&](const Slice&) {
    std::unique_lock<std::mutex> lock(mu);
    if (hold) {
      ++parked;
      cv.notify_all();
      cv.wait(lock, [&] { return !hold; });
    }
    return Status::OK();
  };
  QueueRepository repo("primary", options);
  ASSERT_TRUE(repo.Open().ok());
  ASSERT_TRUE(repo.CreateQueue("q").ok());
  ASSERT_TRUE(repo.Register("q", "clerk", /*stable=*/true).ok());

  {
    std::lock_guard<std::mutex> lock(mu);
    hold = true;
  }
  Result<ElementId> original = Status::Internal("not run");
  std::thread writer([&] {
    original = repo.Enqueue(nullptr, "q", "x", 0, "clerk", "tag-1");
  });
  {
    // The enqueue applied and now waits in the sink.
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return parked == 1; });
  }
  std::atomic<bool> reregistered{false};
  std::atomic<bool> deduplicated{false};
  Result<RegistrationInfo> info = Status::Internal("not run");
  Result<ElementId> duplicate = Status::Internal("not run");
  std::thread rejoin([&] {
    info = repo.Register("q", "clerk", /*stable=*/true);
    reregistered.store(true);
  });
  std::thread resend([&] {
    duplicate = repo.Enqueue(nullptr, "q", "x", 0, "clerk", "tag-1");
    deduplicated.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(reregistered.load());
  EXPECT_FALSE(deduplicated.load());
  {
    std::lock_guard<std::mutex> lock(mu);
    hold = false;
  }
  cv.notify_all();
  writer.join();
  rejoin.join();
  resend.join();

  ASSERT_TRUE(original.ok()) << original.status().ToString();
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  EXPECT_EQ(info->last_op, OpType::kEnqueue);
  EXPECT_EQ(info->last_eid, *original);
  ASSERT_TRUE(duplicate.ok()) << duplicate.status().ToString();
  EXPECT_EQ(*duplicate, *original);
  EXPECT_EQ(*repo.Depth("q"), 1u);
}

TEST_F(ReplicationTest, ReplicationOverFaultyNetworkCountsFailures) {
  comm::Network net(55);
  auto backup = std::make_unique<QueueRepository>("net-backup");
  ASSERT_TRUE(backup->Open().ok());
  ASSERT_TRUE(net.RegisterEndpoint("backup", [&backup](const Slice& record,
                                                       std::string*) {
                   return backup->ApplyReplicatedRecord(record);
                 })
                  .ok());
  RepositoryOptions options;
  options.replication_sink = [&net](const Slice& record) {
    std::string reply;
    return net.Call("primary", "backup", record, &reply);
  };
  QueueRepository primary("net-primary", options);
  ASSERT_TRUE(primary.Open().ok());
  ASSERT_TRUE(primary.CreateQueue("q").ok());
  comm::LinkFaults faults;
  faults.drop_probability = 0.5;
  net.SetLinkFaults("primary", "backup", faults);
  int failures = 0;
  for (int i = 0; i < 100; ++i) {
    if (!primary.Enqueue(nullptr, "q", "x").ok()) ++failures;
  }
  EXPECT_GT(failures, 10);
  EXPECT_EQ(primary.replication_failure_count(),
            static_cast<uint64_t>(failures));
  // The backup applied exactly the records that got through (plus the
  // replicated CreateQueue).
  EXPECT_LT(*backup->Depth("q"), 100u);
  EXPECT_EQ(*primary.Depth("q"), 100u);
}

TEST_F(ReplicationTest, ShardedPrimaryReplicatesInApplyOrderPerQueue) {
  // With shards>1 the primary has one replication stream per shard;
  // the per-shard delivery tickets must still hand the sink each
  // queue's records in apply order, even under concurrent producers.
  auto backup = std::make_unique<QueueRepository>("sh-backup");
  ASSERT_TRUE(backup->Open().ok());
  RepositoryOptions options;
  options.shards = 4;
  options.replication_sink = [&backup](const Slice& record) {
    return backup->ApplyReplicatedRecord(record);
  };
  QueueRepository primary("sh-primary", options);
  ASSERT_TRUE(primary.Open().ok());
  ASSERT_EQ(primary.shard_count(), 4u);

  // One queue per shard, one producer thread per queue.
  std::vector<std::string> queues;
  for (size_t shard = 0; shard < 4; ++shard) {
    for (int i = 0;; ++i) {
      std::string name = "rq" + std::to_string(i);
      if (primary.shard_of(name) == shard) {
        queues.push_back(name);
        break;
      }
    }
    ASSERT_TRUE(primary.CreateQueue(queues.back()).ok());
  }
  constexpr int kPerQueue = 50;
  std::vector<std::thread> producers;
  for (const std::string& queue : queues) {
    producers.emplace_back([&primary, queue]() {
      for (int n = 0; n < kPerQueue; ++n) {
        ASSERT_TRUE(
            primary.Enqueue(nullptr, queue, std::to_string(n)).ok());
      }
    });
  }
  for (auto& thread : producers) thread.join();

  // The backup saw every record, and each queue's contents come back
  // in the exact order the primary committed them.
  for (const std::string& queue : queues) {
    ASSERT_EQ(*backup->Depth(queue), static_cast<size_t>(kPerQueue)) << queue;
    for (int n = 0; n < kPerQueue; ++n) {
      auto got = backup->Dequeue(nullptr, queue);
      ASSERT_TRUE(got.ok()) << queue << " #" << n;
      EXPECT_EQ(got->contents, std::to_string(n)) << queue;
    }
  }
}

// ---- Sequence-tracked apply (PR 9: networked shipping) --------------
// ApplyReplicatedRecord(record, seq) embeds the shipped sequence in
// the applied record, so the watermark is atomic with the effects and
// re-shipped records dedup instead of double-applying.

TEST_F(ReplicationTest, SeqTrackedApplyDedupsReshippedRecords) {
  auto standby = std::make_unique<QueueRepository>("standby");
  ASSERT_TRUE(standby->Open().ok());
  // Capture the primary's records instead of applying them directly.
  std::vector<std::string> shipped;
  RepositoryOptions options;
  options.replication_sink = [&shipped](const Slice& record) {
    shipped.push_back(record.ToString());
    return Status::OK();
  };
  QueueRepository head("head-seq", options);
  ASSERT_TRUE(head.Open().ok());
  ASSERT_TRUE(head.CreateQueue("q").ok());
  ASSERT_TRUE(head.Enqueue(nullptr, "q", "a").ok());
  ASSERT_TRUE(head.Enqueue(nullptr, "q", "b").ok());
  ASSERT_EQ(shipped.size(), 3u);

  for (size_t i = 0; i < shipped.size(); ++i) {
    ASSERT_TRUE(
        standby->ApplyReplicatedRecord(Slice(shipped[i]), i + 1).ok());
  }
  EXPECT_EQ(standby->applied_repl_seq(), 3u);
  EXPECT_EQ(*standby->Depth("q"), 2u);

  // A sender that lost its ack re-ships everything: at-or-below the
  // watermark is a silent no-op, not a duplicate apply.
  for (size_t i = 0; i < shipped.size(); ++i) {
    ASSERT_TRUE(
        standby->ApplyReplicatedRecord(Slice(shipped[i]), i + 1).ok());
  }
  EXPECT_EQ(standby->applied_repl_seq(), 3u);
  EXPECT_EQ(*standby->Depth("q"), 2u);
}

TEST_F(ReplicationTest, AppliedWatermarkSurvivesCrashRecovery) {
  env::MemEnv env;
  RepositoryOptions options;
  options.env = &env;
  options.dir = "/standby";
  {
    QueueRepository standby("standby-wm", options);
    ASSERT_TRUE(standby.Open().ok());
    ASSERT_TRUE(standby.CommitReplWatermark(42).ok());
    EXPECT_EQ(standby.applied_repl_seq(), 42u);
  }
  env.SimulateCrash();
  QueueRepository recovered("standby-wm", options);
  ASSERT_TRUE(recovered.Open().ok());
  // The watermark rode the WAL record — the rebooted backup resumes
  // from 43, not from a reseed.
  EXPECT_EQ(recovered.applied_repl_seq(), 42u);
}

TEST_F(ReplicationTest, WatermarkSurvivesCheckpointedRecovery) {
  env::MemEnv env;
  RepositoryOptions options;
  options.env = &env;
  options.dir = "/standby-ckpt";
  {
    QueueRepository standby("standby-ckpt", options);
    ASSERT_TRUE(standby.Open().ok());
    ASSERT_TRUE(standby.CreateQueue("q").ok());
    ASSERT_TRUE(standby.CommitReplWatermark(7).ok());
    ASSERT_TRUE(standby.Checkpoint().ok());
    ASSERT_TRUE(standby.CommitReplWatermark(9).ok());
  }
  env.SimulateCrash();
  QueueRepository recovered("standby-ckpt", options);
  ASSERT_TRUE(recovered.Open().ok());
  // Checkpoint slice carries 7; the tail WAL replays up to 9.
  EXPECT_EQ(recovered.applied_repl_seq(), 9u);
}

TEST_F(ReplicationTest, CaptureReplicaSnapshotSeedsAnEquivalentStandby) {
  // Build a primary with every kind of replicated state: elements with
  // priorities, a stable registrant with a remembered op, a stopped
  // queue, and an armed trigger.
  QueueRepository head("snap-head");
  ASSERT_TRUE(head.Open().ok());
  ASSERT_TRUE(head.CreateQueue("work").ok());
  ASSERT_TRUE(head.CreateQueue("stopped").ok());
  ASSERT_TRUE(head.CreateQueue("join").ok());
  auto e1 = head.Enqueue(nullptr, "work", "first", 5);
  ASSERT_TRUE(e1.ok());
  ASSERT_TRUE(head.Enqueue(nullptr, "work", "second").ok());
  ASSERT_TRUE(head.Register("work", "tagger", /*stable=*/true).ok());
  ASSERT_TRUE(
      head.Enqueue(nullptr, "work", "tagged", 0, "tagger", "rid#1").ok());
  ASSERT_TRUE(head.StopQueue("stopped").ok());
  TriggerSpec trigger;
  trigger.watched_queue = "work";
  trigger.remaining = 100;
  trigger.target_queue = "join";
  trigger.contents = "go";
  ASSERT_TRUE(head.SetTrigger(trigger).ok());

  bool barrier_ran = false;
  std::vector<std::string> records;
  ASSERT_TRUE(head.CaptureReplicaSnapshot([&] { barrier_ran = true; },
                                          &records)
                  .ok());
  EXPECT_TRUE(barrier_ran);
  ASSERT_FALSE(records.empty());

  QueueRepository standby("snap-standby");
  ASSERT_TRUE(standby.Open().ok());
  for (const std::string& record : records) {
    ASSERT_TRUE(standby.ApplyReplicatedRecord(Slice(record)).ok());
  }
  ASSERT_TRUE(standby.CommitReplWatermark(17).ok());

  EXPECT_EQ(standby.applied_repl_seq(), 17u);
  EXPECT_EQ(*standby.Depth("work"), 3u);
  EXPECT_TRUE(standby.QueueExists("stopped"));
  auto mirrored = standby.Read("work", *e1);
  ASSERT_TRUE(mirrored.ok());
  EXPECT_EQ(mirrored->contents, "first");
  EXPECT_EQ(mirrored->priority, 5u);
  // The stable registrant's remembered tag crossed over — a clerk
  // failing over to the seeded standby resynchronizes exactly as
  // ClientFailsOverWithFullResync proved for record-at-a-time
  // replication.
  auto reg = standby.Register("work", "tagger", /*stable=*/true);
  ASSERT_TRUE(reg.ok());
  EXPECT_EQ(reg->last_tag, "rid#1");
  // A stopped queue stays stopped on the standby.
  EXPECT_TRUE(standby.Enqueue(nullptr, "stopped", "x")
                  .status()
                  .IsFailedPrecondition());
  // Eids never regress: new standby allocations run past the
  // primary's watermark.
  auto fresh = standby.Enqueue(nullptr, "work", "new");
  ASSERT_TRUE(fresh.ok());
  EXPECT_GT(*fresh, *e1);
}

// ---- Hostile records (satellite: the applier's trust boundary) ------
// A backup's ApplyReplicatedRecord faces the network: truncated,
// corrupted, duplicated, or reordered records must yield a clean
// status — never a crash, never a half-applied record.

TEST_F(ReplicationTest, TruncatedRecordsRejectWithoutPartialApply) {
  auto standby = std::make_unique<QueueRepository>("trunc");
  ASSERT_TRUE(standby->Open().ok());
  std::vector<std::string> shipped;
  RepositoryOptions options;
  options.replication_sink = [&shipped](const Slice& record) {
    shipped.push_back(record.ToString());
    return Status::OK();
  };
  QueueRepository head("trunc-head", options);
  ASSERT_TRUE(head.Open().ok());
  ASSERT_TRUE(head.CreateQueue("q").ok());
  ASSERT_TRUE(head.Enqueue(nullptr, "q", "payload", 3).ok());
  ASSERT_EQ(shipped.size(), 2u);

  // Seed the queue, then try every truncation of the enqueue record.
  ASSERT_TRUE(standby->ApplyReplicatedRecord(Slice(shipped[0]), 1).ok());
  const std::string& enq = shipped[1];
  for (size_t len = 0; len < enq.size(); ++len) {
    Status s =
        standby->ApplyReplicatedRecord(Slice(enq.data(), len), 2);
    EXPECT_FALSE(s.ok()) << "truncation at " << len << " applied";
    // Nothing half-applied: depth unchanged, watermark unchanged.
    EXPECT_EQ(*standby->Depth("q"), 0u) << "truncation at " << len;
    EXPECT_EQ(standby->applied_repl_seq(), 1u) << "truncation at " << len;
  }
  // The intact record still applies afterwards.
  ASSERT_TRUE(standby->ApplyReplicatedRecord(Slice(enq), 2).ok());
  EXPECT_EQ(*standby->Depth("q"), 1u);
  EXPECT_EQ(standby->applied_repl_seq(), 2u);
}

TEST_F(ReplicationTest, BitFlippedRecordsNeverCrashTheApplier) {
  // Flip every bit of a small record. Some flips still decode (a
  // changed payload byte is indistinguishable from a different
  // payload — the wire CRC exists to catch those in transit); the
  // applier's own contract is that *no* flip crashes it and every
  // rejected flip leaves state untouched.
  std::vector<std::string> shipped;
  RepositoryOptions options;
  options.replication_sink = [&shipped](const Slice& record) {
    shipped.push_back(record.ToString());
    return Status::OK();
  };
  QueueRepository head("flip-head", options);
  ASSERT_TRUE(head.Open().ok());
  ASSERT_TRUE(head.CreateQueue("q").ok());
  ASSERT_TRUE(head.Enqueue(nullptr, "q", "x").ok());
  const std::string enq = shipped[1];

  for (size_t bit = 0; bit < enq.size() * 8; ++bit) {
    auto standby = std::make_unique<QueueRepository>("flip");
    ASSERT_TRUE(standby->Open().ok());
    ASSERT_TRUE(standby->ApplyReplicatedRecord(Slice(shipped[0]), 1).ok());
    std::string mutated = enq;
    mutated[bit / 8] = static_cast<char>(
        static_cast<unsigned char>(mutated[bit / 8]) ^ (1u << (bit % 8)));
    Status s = standby->ApplyReplicatedRecord(Slice(mutated), 2);
    if (!s.ok()) {
      EXPECT_EQ(*standby->Depth("q"), 0u) << "bit " << bit;
      EXPECT_EQ(standby->applied_repl_seq(), 1u) << "bit " << bit;
    }
  }
}

TEST_F(ReplicationTest, StaleAndReorderedSequencesDedupNotDiverge) {
  std::vector<std::string> shipped;
  RepositoryOptions options;
  options.replication_sink = [&shipped](const Slice& record) {
    shipped.push_back(record.ToString());
    return Status::OK();
  };
  QueueRepository head("reorder-head", options);
  ASSERT_TRUE(head.Open().ok());
  ASSERT_TRUE(head.CreateQueue("q").ok());
  ASSERT_TRUE(head.Enqueue(nullptr, "q", "a").ok());
  ASSERT_TRUE(head.Enqueue(nullptr, "q", "b").ok());
  ASSERT_EQ(shipped.size(), 3u);

  auto standby = std::make_unique<QueueRepository>("reorder");
  ASSERT_TRUE(standby->Open().ok());
  for (size_t i = 0; i < shipped.size(); ++i) {
    ASSERT_TRUE(
        standby->ApplyReplicatedRecord(Slice(shipped[i]), i + 1).ok());
  }
  // An old record arriving late (seq below watermark) is dropped even
  // though its bytes are perfectly valid.
  ASSERT_TRUE(standby->ApplyReplicatedRecord(Slice(shipped[1]), 2).ok());
  EXPECT_EQ(*standby->Depth("q"), 2u);
  EXPECT_EQ(standby->applied_repl_seq(), 3u);
}

}  // namespace
}  // namespace rrq::queue
