#include "queue/queue_repository.h"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <future>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "env/faulty_env.h"
#include "env/mem_env.h"
#include "storage/kv_store.h"
#include "txn/txn_manager.h"
#include "util/coding.h"

namespace rrq::queue {
namespace {

class QueueRepositoryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    txn_mgr_ = std::make_unique<txn::TransactionManager>();
    ASSERT_TRUE(txn_mgr_->Open().ok());
    repo_ = MakeRepo();
    ASSERT_TRUE(repo_->CreateQueue("q").ok());
  }

  std::unique_ptr<QueueRepository> MakeRepo() {
    RepositoryOptions options;
    options.env = &env_;
    options.dir = "/qm";
    options.shards = 1;  // Tests below hand-craft single-stream file names.
    options.in_doubt_resolver = [this](txn::TxnId id) {
      return txn_mgr_->WasCommitted(id);
    };
    auto repo = std::make_unique<QueueRepository>("qm", options);
    EXPECT_TRUE(repo->Open().ok());
    return repo;
  }

  ElementId MustEnqueue(const std::string& queue, const std::string& contents,
                        uint32_t priority = 0) {
    auto r = repo_->Enqueue(nullptr, queue, contents, priority);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return *r;
  }

  std::string MustDequeue(const std::string& queue) {
    auto r = repo_->Dequeue(nullptr, queue);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return r.ok() ? r->contents : "";
  }

  env::MemEnv env_;
  std::unique_ptr<txn::TransactionManager> txn_mgr_;
  std::unique_ptr<QueueRepository> repo_;
};

// ---------------------------------------------------------------------------
// Data definition

TEST_F(QueueRepositoryTest, CreateDestroyQueue) {
  EXPECT_TRUE(repo_->QueueExists("q"));
  EXPECT_TRUE(repo_->CreateQueue("q").IsAlreadyExists());
  ASSERT_TRUE(repo_->DestroyQueue("q").ok());
  EXPECT_FALSE(repo_->QueueExists("q"));
  EXPECT_TRUE(repo_->DestroyQueue("q").IsNotFound());
  EXPECT_TRUE(repo_->CreateQueue("").IsInvalidArgument());
}

TEST_F(QueueRepositoryTest, StopRejectsTraffic) {
  ASSERT_TRUE(repo_->StopQueue("q").ok());
  EXPECT_TRUE(repo_->Enqueue(nullptr, "q", "x").status().IsFailedPrecondition());
  EXPECT_TRUE(repo_->Dequeue(nullptr, "q").status().IsFailedPrecondition());
  ASSERT_TRUE(repo_->StartQueue("q").ok());
  EXPECT_TRUE(repo_->Enqueue(nullptr, "q", "x").ok());
}

TEST_F(QueueRepositoryTest, ListQueues) {
  ASSERT_TRUE(repo_->CreateQueue("a").ok());
  ASSERT_TRUE(repo_->CreateQueue("b").ok());
  auto names = repo_->ListQueues();
  EXPECT_EQ(names.size(), 3u);  // q, a, b
}

// ---------------------------------------------------------------------------
// Basic data manipulation

TEST_F(QueueRepositoryTest, FifoOrderWithinPriority) {
  MustEnqueue("q", "one");
  MustEnqueue("q", "two");
  MustEnqueue("q", "three");
  EXPECT_EQ(MustDequeue("q"), "one");
  EXPECT_EQ(MustDequeue("q"), "two");
  EXPECT_EQ(MustDequeue("q"), "three");
  EXPECT_TRUE(repo_->Dequeue(nullptr, "q").status().IsNotFound());
}

TEST_F(QueueRepositoryTest, HigherPriorityFirst) {
  MustEnqueue("q", "low", 1);
  MustEnqueue("q", "high", 9);
  MustEnqueue("q", "mid", 5);
  MustEnqueue("q", "high2", 9);
  EXPECT_EQ(MustDequeue("q"), "high");
  EXPECT_EQ(MustDequeue("q"), "high2");  // FIFO within priority.
  EXPECT_EQ(MustDequeue("q"), "mid");
  EXPECT_EQ(MustDequeue("q"), "low");
}

TEST_F(QueueRepositoryTest, ElementIdsAreUniqueAndStable) {
  ElementId a = MustEnqueue("q", "a");
  ElementId b = MustEnqueue("q", "b");
  EXPECT_NE(a, b);
  EXPECT_NE(a, kInvalidElementId);
  auto read = repo_->Read("q", a);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read->contents, "a");
  EXPECT_EQ(read->eid, a);
}

TEST_F(QueueRepositoryTest, DepthCountsVisible) {
  EXPECT_EQ(*repo_->Depth("q"), 0u);
  MustEnqueue("q", "a");
  MustEnqueue("q", "b");
  EXPECT_EQ(*repo_->Depth("q"), 2u);
  MustDequeue("q");
  EXPECT_EQ(*repo_->Depth("q"), 1u);
}

TEST_F(QueueRepositoryTest, BlockingDequeueWakesOnEnqueue) {
  std::string got;
  std::thread consumer([this, &got]() {
    auto r = repo_->Dequeue(nullptr, "q", "", Slice(), 2'000'000);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    got = r->contents;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  MustEnqueue("q", "wakeup");
  consumer.join();
  EXPECT_EQ(got, "wakeup");
}

TEST_F(QueueRepositoryTest, DequeueTimesOutOnEmptyQueue) {
  auto r = repo_->Dequeue(nullptr, "q", "", Slice(), 30'000);
  EXPECT_TRUE(r.status().IsTimedOut()) << r.status().ToString();
}

// ---------------------------------------------------------------------------
// Transactional semantics

TEST_F(QueueRepositoryTest, TransactionalEnqueueInvisibleUntilCommit) {
  auto txn = txn_mgr_->Begin();
  ASSERT_TRUE(repo_->Enqueue(txn.get(), "q", "pending").ok());
  EXPECT_EQ(*repo_->Depth("q"), 0u);
  EXPECT_TRUE(repo_->Dequeue(nullptr, "q").status().IsNotFound());
  ASSERT_TRUE(txn->Commit().ok());
  EXPECT_EQ(*repo_->Depth("q"), 1u);
  EXPECT_EQ(MustDequeue("q"), "pending");
}

TEST_F(QueueRepositoryTest, AbortedEnqueueVanishes) {
  auto txn = txn_mgr_->Begin();
  ASSERT_TRUE(repo_->Enqueue(txn.get(), "q", "ghost").ok());
  txn->Abort();
  EXPECT_EQ(*repo_->Depth("q"), 0u);
}

TEST_F(QueueRepositoryTest, TransactionalDequeueLocksElement) {
  MustEnqueue("q", "only");
  auto txn = txn_mgr_->Begin();
  auto got = repo_->Dequeue(txn.get(), "q");
  ASSERT_TRUE(got.ok());
  // Skip-locked: other dequeuers see an empty queue.
  EXPECT_TRUE(repo_->Dequeue(nullptr, "q").status().IsNotFound());
  EXPECT_EQ(*repo_->Depth("q"), 0u);
  ASSERT_TRUE(txn->Commit().ok());
  EXPECT_TRUE(repo_->Dequeue(nullptr, "q").status().IsNotFound());
}

TEST_F(QueueRepositoryTest, AbortedDequeueReturnsElement) {
  MustEnqueue("q", "retry-me");
  auto txn = txn_mgr_->Begin();
  auto got = repo_->Dequeue(txn.get(), "q");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->abort_count, 0u);
  txn->Abort();
  auto again = repo_->Dequeue(nullptr, "q");
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->contents, "retry-me");
  EXPECT_EQ(again->abort_count, 1u);  // The abort was counted.
  EXPECT_EQ(again->eid, got->eid);    // Identity is stable.
}

TEST_F(QueueRepositoryTest, NthAbortMovesToErrorQueue) {
  QueueOptions qopts;
  qopts.max_aborts = 3;
  qopts.error_queue = "q.err";
  ASSERT_TRUE(repo_->CreateQueue("poison-q", qopts).ok());
  ElementId eid = *repo_->Enqueue(nullptr, "poison-q", "poison");

  for (int round = 0; round < 3; ++round) {
    auto txn = txn_mgr_->Begin();
    auto got = repo_->Dequeue(txn.get(), "poison-q");
    ASSERT_TRUE(got.ok()) << "round " << round;
    txn->Abort();
  }
  // After the third abort the element is in the error queue.
  EXPECT_TRUE(repo_->Dequeue(nullptr, "poison-q").status().IsNotFound());
  ASSERT_TRUE(repo_->QueueExists("q.err"));
  auto dead = repo_->Dequeue(nullptr, "q.err");
  ASSERT_TRUE(dead.ok());
  EXPECT_EQ(dead->contents, "poison");
  EXPECT_EQ(dead->eid, eid);
  EXPECT_EQ(dead->abort_count, 3u);
  EXPECT_FALSE(dead->abort_code.empty());
  EXPECT_EQ(repo_->error_move_count(), 1u);
}

TEST_F(QueueRepositoryTest, DequeueEnqueueAcrossQueuesIsAtomic) {
  ASSERT_TRUE(repo_->CreateQueue("q2").ok());
  MustEnqueue("q", "hop");
  {
    auto txn = txn_mgr_->Begin();
    auto got = repo_->Dequeue(txn.get(), "q");
    ASSERT_TRUE(got.ok());
    ASSERT_TRUE(repo_->Enqueue(txn.get(), "q2", got->contents).ok());
    txn->Abort();  // Nothing moved.
  }
  EXPECT_EQ(*repo_->Depth("q"), 1u);
  EXPECT_EQ(*repo_->Depth("q2"), 0u);
  {
    auto txn = txn_mgr_->Begin();
    auto got = repo_->Dequeue(txn.get(), "q");
    ASSERT_TRUE(got.ok());
    ASSERT_TRUE(repo_->Enqueue(txn.get(), "q2", got->contents).ok());
    ASSERT_TRUE(txn->Commit().ok());
  }
  EXPECT_EQ(*repo_->Depth("q"), 0u);
  EXPECT_EQ(*repo_->Depth("q2"), 1u);
}

// ---------------------------------------------------------------------------
// Persistent registration (§4.3)

TEST_F(QueueRepositoryTest, FreshRegistrationIsEmpty) {
  auto info = repo_->Register("q", "client-1", true);
  ASSERT_TRUE(info.ok());
  EXPECT_FALSE(info->was_registered);
  EXPECT_EQ(info->last_op, OpType::kNone);
  EXPECT_EQ(info->last_eid, kInvalidElementId);
  EXPECT_TRUE(info->last_tag.empty());
}

TEST_F(QueueRepositoryTest, ReRegistrationReturnsLastTaggedOp) {
  ASSERT_TRUE(repo_->Register("q", "client-1", true).ok());
  ASSERT_TRUE(repo_->Enqueue(nullptr, "q", "req-body", 0, "client-1",
                             "rid-42").ok());
  auto info = repo_->Register("q", "client-1", true);
  ASSERT_TRUE(info.ok());
  EXPECT_TRUE(info->was_registered);
  EXPECT_EQ(info->last_op, OpType::kEnqueue);
  EXPECT_EQ(info->last_tag, "rid-42");
  EXPECT_EQ(info->last_element, "req-body");
}

TEST_F(QueueRepositoryTest, DequeueTagRecordedAtomically) {
  ASSERT_TRUE(repo_->Register("q", "client-1", true).ok());
  MustEnqueue("q", "reply-body");
  auto got = repo_->Dequeue(nullptr, "q", "client-1", "ckpt-7");
  ASSERT_TRUE(got.ok());
  auto info = repo_->Register("q", "client-1", true);
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->last_op, OpType::kDequeue);
  EXPECT_EQ(info->last_tag, "ckpt-7");
  EXPECT_EQ(info->last_eid, got->eid);
}

TEST_F(QueueRepositoryTest, ReadAfterDequeueViaRegistrationCopy) {
  ASSERT_TRUE(repo_->Register("q", "client-1", true).ok());
  MustEnqueue("q", "keepsake");
  auto got = repo_->Dequeue(nullptr, "q", "client-1", "t");
  ASSERT_TRUE(got.ok());
  // Element is gone from the queue, but the registrant can still read it.
  auto read = repo_->Read("q", got->eid);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(read->contents, "keepsake");
}

TEST_F(QueueRepositoryTest, DeregisterForgetsState) {
  ASSERT_TRUE(repo_->Register("q", "client-1", true).ok());
  ASSERT_TRUE(repo_->Enqueue(nullptr, "q", "x", 0, "client-1", "rid").ok());
  ASSERT_TRUE(repo_->Deregister("q", "client-1").ok());
  auto info = repo_->Register("q", "client-1", true);
  ASSERT_TRUE(info.ok());
  EXPECT_FALSE(info->was_registered);
  EXPECT_TRUE(repo_->Deregister("q", "nobody").IsNotFound());
}

TEST_F(QueueRepositoryTest, TaggedOpRequiresRegistration) {
  auto r = repo_->Enqueue(nullptr, "q", "x", 0, "stranger", "rid");
  EXPECT_TRUE(r.status().IsNotConnected());
}

TEST_F(QueueRepositoryTest, AbortedTaggedOperationLeavesTagUnchanged) {
  ASSERT_TRUE(repo_->Register("q", "client-1", true).ok());
  ASSERT_TRUE(
      repo_->Enqueue(nullptr, "q", "first", 0, "client-1", "rid-1").ok());
  auto txn = txn_mgr_->Begin();
  ASSERT_TRUE(
      repo_->Enqueue(txn.get(), "q", "second", 0, "client-1", "rid-2").ok());
  txn->Abort();
  auto info = repo_->Register("q", "client-1", true);
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->last_tag, "rid-1");  // rid-2 was never durable.
}

// ---------------------------------------------------------------------------
// KillElement (§7)

TEST_F(QueueRepositoryTest, KillRemovesQueuedElement) {
  ElementId eid = MustEnqueue("q", "doomed");
  auto killed = repo_->KillElement(nullptr, "q", eid);
  ASSERT_TRUE(killed.ok());
  EXPECT_TRUE(*killed);
  EXPECT_EQ(*repo_->Depth("q"), 0u);
}

TEST_F(QueueRepositoryTest, KillAfterCommittedDequeueFails) {
  ElementId eid = MustEnqueue("q", "gone");
  MustDequeue("q");
  auto killed = repo_->KillElement(nullptr, "q", eid);
  ASSERT_TRUE(killed.ok());
  EXPECT_FALSE(*killed);
}

TEST_F(QueueRepositoryTest, KillAbortsUncommittedDequeuer) {
  ElementId eid = MustEnqueue("q", "contested");
  auto txn = txn_mgr_->Begin();
  ASSERT_TRUE(repo_->Dequeue(txn.get(), "q").ok());
  auto killed = repo_->KillElement(nullptr, "q", eid);
  ASSERT_TRUE(killed.ok());
  EXPECT_TRUE(*killed);
  // The dequeuing transaction is doomed: commit must fail.
  Status s = txn->Commit();
  EXPECT_TRUE(s.IsAborted()) << s.ToString();
  // And the element is gone for good.
  EXPECT_EQ(*repo_->Depth("q"), 0u);
  EXPECT_TRUE(repo_->Dequeue(nullptr, "q").status().IsNotFound());
}

TEST_F(QueueRepositoryTest, KillFailsOncePrepared) {
  ElementId eid = MustEnqueue("q", "prepared");
  auto txn = txn_mgr_->Begin();
  ASSERT_TRUE(repo_->Dequeue(txn.get(), "q").ok());
  ASSERT_TRUE(repo_->Prepare(txn->id()).ok());
  auto killed = repo_->KillElement(nullptr, "q", eid);
  ASSERT_TRUE(killed.ok());
  EXPECT_FALSE(*killed);  // Too late: the dequeuer voted yes.
  ASSERT_TRUE(repo_->CommitTxn(txn->id()).ok());
  txn->Abort();  // Clean up the handle (repo already committed).
}

TEST_F(QueueRepositoryTest, TransactionalKillUndoneByAbort) {
  ElementId eid = MustEnqueue("q", "survivor");
  auto txn = txn_mgr_->Begin();
  auto killed = repo_->KillElement(txn.get(), "q", eid);
  ASSERT_TRUE(killed.ok());
  EXPECT_TRUE(*killed);
  txn->Abort();
  // The kill aborted with its transaction: the element survives.
  EXPECT_EQ(*repo_->Depth("q"), 1u);
  EXPECT_EQ(MustDequeue("q"), "survivor");
}

// ---------------------------------------------------------------------------
// Policies: strict FIFO, selector, queue sets, redirection

TEST_F(QueueRepositoryTest, StrictFifoBlocksOnLockedHead) {
  QueueOptions qopts;
  qopts.policy = DequeuePolicy::kStrictFifo;
  ASSERT_TRUE(repo_->CreateQueue("strict", qopts).ok());
  ASSERT_TRUE(repo_->Enqueue(nullptr, "strict", "head").ok());
  ASSERT_TRUE(repo_->Enqueue(nullptr, "strict", "next").ok());

  auto txn = txn_mgr_->Begin();
  ASSERT_TRUE(repo_->Dequeue(txn.get(), "strict").ok());
  // Head is locked: a second dequeuer must NOT skip to "next".
  auto blocked = repo_->Dequeue(nullptr, "strict");
  EXPECT_TRUE(blocked.status().IsBusy()) << blocked.status().ToString();
  ASSERT_TRUE(txn->Commit().ok());
  auto now = repo_->Dequeue(nullptr, "strict");
  ASSERT_TRUE(now.ok());
  EXPECT_EQ(now->contents, "next");
}

TEST_F(QueueRepositoryTest, SkipLockedDequeuesPastLockedElement) {
  MustEnqueue("q", "first");
  MustEnqueue("q", "second");
  auto txn = txn_mgr_->Begin();
  auto first = repo_->Dequeue(txn.get(), "q");
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first->contents, "first");
  // Skip-locked (§10): another dequeuer gets "second" immediately.
  EXPECT_EQ(MustDequeue("q"), "second");
  txn->Abort();
  // The anomalous ordering the paper tolerates: "first" now follows.
  EXPECT_EQ(MustDequeue("q"), "first");
}

TEST_F(QueueRepositoryTest, SelectorPicksByContent) {
  MustEnqueue("q", "amount:10");
  MustEnqueue("q", "amount:90");
  MustEnqueue("q", "amount:50");
  // "Highest dollar amount first" (§10).
  Selector highest = [](const std::vector<Element*>& candidates) -> size_t {
    size_t best = 0;
    int best_amount = -1;
    for (size_t i = 0; i < candidates.size(); ++i) {
      int amount = std::stoi(candidates[i]->contents.substr(7));
      if (amount > best_amount) {
        best_amount = amount;
        best = i;
      }
    }
    return best;
  };
  auto got = repo_->DequeueSelected(nullptr, "q", highest);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->contents, "amount:90");
}

TEST_F(QueueRepositoryTest, DequeueFromSetTakesFirstNonEmpty) {
  ASSERT_TRUE(repo_->CreateQueue("empty1").ok());
  ASSERT_TRUE(repo_->CreateQueue("loaded").ok());
  ASSERT_TRUE(repo_->Enqueue(nullptr, "loaded", "found").ok());
  auto got = repo_->DequeueFromSet(nullptr, {"empty1", "loaded", "q"});
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->contents, "found");
  EXPECT_TRUE(repo_->DequeueFromSet(nullptr, {"empty1", "q"})
                  .status()
                  .IsNotFound());
}

TEST_F(QueueRepositoryTest, RedirectionForwardsEnqueues) {
  QueueOptions redirecting;
  redirecting.redirect_to = "q";
  ASSERT_TRUE(repo_->CreateQueue("front", redirecting).ok());
  ASSERT_TRUE(repo_->Enqueue(nullptr, "front", "forwarded").ok());
  EXPECT_EQ(*repo_->Depth("front"), 0u);
  EXPECT_EQ(*repo_->Depth("q"), 1u);
  EXPECT_EQ(MustDequeue("q"), "forwarded");
}

TEST_F(QueueRepositoryTest, AlertThresholdFires) {
  RepositoryOptions options;
  options.env = nullptr;
  std::vector<std::pair<std::string, size_t>> alerts;
  options.alert_callback = [&alerts](const std::string& q, size_t depth) {
    alerts.emplace_back(q, depth);
  };
  QueueRepository repo("alerting", options);
  ASSERT_TRUE(repo.Open().ok());
  QueueOptions qopts;
  qopts.alert_threshold = 3;
  ASSERT_TRUE(repo.CreateQueue("watched", qopts).ok());
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(repo.Enqueue(nullptr, "watched", "x").ok());
  }
  ASSERT_EQ(alerts.size(), 1u);
  EXPECT_EQ(alerts[0].first, "watched");
  EXPECT_EQ(alerts[0].second, 3u);
}

// ---------------------------------------------------------------------------
// Triggers (§6 fork/join)

TEST_F(QueueRepositoryTest, TriggerFiresWhenCountReached) {
  ASSERT_TRUE(repo_->CreateQueue("replies").ok());
  ASSERT_TRUE(repo_->CreateQueue("join").ok());
  TriggerSpec trigger;
  trigger.watched_queue = "replies";
  trigger.remaining = 3;
  trigger.target_queue = "join";
  trigger.contents = "all-replies-in";
  ASSERT_TRUE(repo_->SetTrigger(trigger).ok());

  ASSERT_TRUE(repo_->Enqueue(nullptr, "replies", "r1").ok());
  ASSERT_TRUE(repo_->Enqueue(nullptr, "replies", "r2").ok());
  EXPECT_EQ(*repo_->Depth("join"), 0u);
  ASSERT_TRUE(repo_->Enqueue(nullptr, "replies", "r3").ok());
  ASSERT_EQ(*repo_->Depth("join"), 1u);
  auto join = repo_->Dequeue(nullptr, "join");
  ASSERT_TRUE(join.ok());
  EXPECT_EQ(join->contents, "all-replies-in");
  // Fires once only.
  ASSERT_TRUE(repo_->Enqueue(nullptr, "replies", "r4").ok());
  EXPECT_EQ(*repo_->Depth("join"), 0u);
}

TEST_F(QueueRepositoryTest, TriggerAlreadySatisfiedFiresOnInstall) {
  ASSERT_TRUE(repo_->CreateQueue("join").ok());
  MustEnqueue("q", "r1");
  MustEnqueue("q", "r2");
  TriggerSpec trigger;
  trigger.watched_queue = "q";
  trigger.remaining = 2;
  trigger.target_queue = "join";
  trigger.contents = "go";
  ASSERT_TRUE(repo_->SetTrigger(trigger).ok());
  EXPECT_EQ(*repo_->Depth("join"), 1u);
}

// ---------------------------------------------------------------------------
// Volatile queues

TEST_F(QueueRepositoryTest, VolatileQueueLosesContentsAtCrash) {
  QueueOptions vopts;
  vopts.durable = false;
  ASSERT_TRUE(repo_->CreateQueue("scratch", vopts).ok());
  ASSERT_TRUE(repo_->Enqueue(nullptr, "scratch", "ephemeral").ok());
  MustEnqueue("q", "durable");

  env_.SimulateCrash();
  auto recovered = MakeRepo();
  // The volatile queue itself survives (metadata is durable)...
  EXPECT_TRUE(recovered->QueueExists("scratch"));
  // ...but its contents do not.
  EXPECT_EQ(*recovered->Depth("scratch"), 0u);
  EXPECT_EQ(*recovered->Depth("q"), 1u);
}

// ---------------------------------------------------------------------------
// Recovery

TEST_F(QueueRepositoryTest, CommittedElementsSurviveCrash) {
  MustEnqueue("q", "a");
  MustEnqueue("q", "b");
  MustDequeue("q");  // Consume "a".
  env_.SimulateCrash();

  auto recovered = MakeRepo();
  EXPECT_EQ(*recovered->Depth("q"), 1u);
  auto got = recovered->Dequeue(nullptr, "q");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->contents, "b");
}

TEST_F(QueueRepositoryTest, UncommittedOpsRollBackAtCrash) {
  MustEnqueue("q", "stay");
  auto txn = txn_mgr_->Begin();
  ASSERT_TRUE(repo_->Dequeue(txn.get(), "q").ok());
  ASSERT_TRUE(repo_->Enqueue(txn.get(), "q", "phantom").ok());
  // Crash with the transaction unprepared.
  env_.SimulateCrash();
  auto recovered = MakeRepo();
  EXPECT_EQ(*recovered->Depth("q"), 1u);
  auto got = recovered->Dequeue(nullptr, "q");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->contents, "stay");
  txn->Abort();
}

TEST_F(QueueRepositoryTest, RegistrationSurvivesCrash) {
  ASSERT_TRUE(repo_->Register("q", "client-1", true).ok());
  ASSERT_TRUE(repo_->Enqueue(nullptr, "q", "body", 0, "client-1",
                             "rid-99").ok());
  env_.SimulateCrash();
  auto recovered = MakeRepo();
  auto info = recovered->Register("q", "client-1", true);
  ASSERT_TRUE(info.ok());
  EXPECT_TRUE(info->was_registered);
  EXPECT_EQ(info->last_tag, "rid-99");
  EXPECT_EQ(info->last_element, "body");
}

TEST_F(QueueRepositoryTest, EidsNeverReusedAfterCrash) {
  ElementId before = MustEnqueue("q", "x");
  env_.SimulateCrash();
  auto recovered = MakeRepo();
  auto after = recovered->Enqueue(nullptr, "q", "y");
  ASSERT_TRUE(after.ok());
  EXPECT_GT(*after, before);
}

TEST_F(QueueRepositoryTest, CheckpointCompactsAndPreservesEverything) {
  ASSERT_TRUE(repo_->Register("q", "client-1", true).ok());
  for (int i = 0; i < 20; ++i) MustEnqueue("q", "e" + std::to_string(i));
  for (int i = 0; i < 5; ++i) MustDequeue("q");
  ASSERT_TRUE(repo_->Enqueue(nullptr, "q", "tagged", 7, "client-1",
                             "rid-5").ok());
  const uint64_t wal_before = repo_->wal_bytes();
  ASSERT_TRUE(repo_->Checkpoint().ok());
  EXPECT_LT(repo_->wal_bytes(), wal_before);

  MustEnqueue("q", "post-ckpt");
  env_.SimulateCrash();
  auto recovered = MakeRepo();
  EXPECT_EQ(*recovered->Depth("q"), 17u);  // 20 - 5 + tagged + post.
  auto info = recovered->Register("q", "client-1", true);
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->last_tag, "rid-5");
  // Priority survives the checkpoint: "tagged" (priority 7) comes first.
  auto got = recovered->Dequeue(nullptr, "q");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->contents, "tagged");
}

TEST_F(QueueRepositoryTest, PreparedTransactionRecoversViaResolver) {
  MustEnqueue("q", "consumed-if-committed");
  auto txn = txn_mgr_->Begin();
  ASSERT_TRUE(repo_->Dequeue(txn.get(), "q").ok());
  ASSERT_TRUE(repo_->Prepare(txn->id()).ok());
  const txn::TxnId id = txn->id();
  env_.SimulateCrash();

  // Resolver says committed: the dequeue applies during recovery.
  {
    RepositoryOptions options;
    options.env = &env_;
    options.dir = "/qm";
    options.in_doubt_resolver = [id](txn::TxnId q) { return q == id; };
    QueueRepository recovered("qm", options);
    ASSERT_TRUE(recovered.Open().ok());
    EXPECT_EQ(*recovered.Depth("q"), 0u);
  }
  txn->Abort();
}

TEST_F(QueueRepositoryTest, PreparedTransactionPresumedAbortRestoresElement) {
  MustEnqueue("q", "restored");
  auto txn = txn_mgr_->Begin();
  ASSERT_TRUE(repo_->Dequeue(txn.get(), "q").ok());
  ASSERT_TRUE(repo_->Prepare(txn->id()).ok());
  env_.SimulateCrash();

  RepositoryOptions options;
  options.env = &env_;
  options.dir = "/qm";
  QueueRepository recovered("qm", options);  // No resolver: presumed abort.
  ASSERT_TRUE(recovered.Open().ok());
  EXPECT_EQ(*recovered.Depth("q"), 1u);
  txn->Abort();
}

// ---------------------------------------------------------------------------
// Concurrency

TEST_F(QueueRepositoryTest, ConcurrentDequeuersNeverDuplicate) {
  constexpr int kElements = 300;
  for (int i = 0; i < kElements; ++i) MustEnqueue("q", std::to_string(i));

  std::mutex mu;
  std::vector<std::string> consumed;
  constexpr int kThreads = 4;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([this, &mu, &consumed]() {
      while (true) {
        auto txn = txn_mgr_->Begin();
        auto got = repo_->Dequeue(txn.get(), "q");
        if (!got.ok()) {
          txn->Abort();
          break;
        }
        ASSERT_TRUE(txn->Commit().ok());
        std::lock_guard<std::mutex> guard(mu);
        consumed.push_back(got->contents);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  ASSERT_EQ(consumed.size(), static_cast<size_t>(kElements));
  std::sort(consumed.begin(), consumed.end());
  EXPECT_EQ(std::unique(consumed.begin(), consumed.end()), consumed.end());
}

TEST_F(QueueRepositoryTest, TaggedEnqueueIsIdempotent) {
  // A resend (or network-duplicated one-way message) carrying the
  // registrant's current tag must not double-submit: persistent
  // registration is the idempotency key.
  ASSERT_TRUE(repo_->Register("q", "client-1", true).ok());
  auto first = repo_->Enqueue(nullptr, "q", "pay-100", 0, "client-1", "rid-1");
  ASSERT_TRUE(first.ok());
  auto duplicate =
      repo_->Enqueue(nullptr, "q", "pay-100", 0, "client-1", "rid-1");
  ASSERT_TRUE(duplicate.ok());
  EXPECT_EQ(*duplicate, *first);  // Acknowledged, not re-enqueued.
  EXPECT_EQ(*repo_->Depth("q"), 1u);
  // A NEW tag is a new request.
  auto next = repo_->Enqueue(nullptr, "q", "pay-200", 0, "client-1", "rid-2");
  ASSERT_TRUE(next.ok());
  EXPECT_NE(*next, *first);
  EXPECT_EQ(*repo_->Depth("q"), 2u);
}

TEST_F(QueueRepositoryTest, UntaggedEnqueuesNeverDedup) {
  ASSERT_TRUE(repo_->Register("q", "client-1", true).ok());
  ASSERT_TRUE(repo_->Enqueue(nullptr, "q", "same-body").ok());
  ASSERT_TRUE(repo_->Enqueue(nullptr, "q", "same-body").ok());
  EXPECT_EQ(*repo_->Depth("q"), 2u);
}

// ---------------------------------------------------------------------------
// Checkpoint generation hygiene (crash-sweep regressions)

TEST_F(QueueRepositoryTest, OpenRemovesOrphanGenerations) {
  MustEnqueue("q", "survivor");
  ASSERT_TRUE(repo_->Checkpoint().ok());  // Now at generation 1.
  repo_.reset();
  // A crash inside Checkpoint() can strand the retiring generation, a
  // freshly written next generation, or a half-written tmp. Plant the
  // full zoo and reopen.
  ASSERT_TRUE(env::WriteStringToFileSync(&env_, "stale", "/qm/WAL-0").ok());
  ASSERT_TRUE(
      env::WriteStringToFileSync(&env_, "stale", "/qm/CHECKPOINT-7").ok());
  ASSERT_TRUE(
      env::WriteStringToFileSync(&env_, "half", "/qm/CHECKPOINT-2.tmp").ok());
  repo_ = MakeRepo();
  EXPECT_GE(repo_->recovery_gc_removed_count(), 3u);
  EXPECT_FALSE(env_.FileExists("/qm/WAL-0"));
  EXPECT_FALSE(env_.FileExists("/qm/CHECKPOINT-7"));
  EXPECT_FALSE(env_.FileExists("/qm/CHECKPOINT-2.tmp"));
  EXPECT_TRUE(env_.FileExists("/qm/WAL-1"));  // Live generation survives.
  EXPECT_EQ(MustDequeue("q"), "survivor");
}

TEST_F(QueueRepositoryTest, FailedRetirementIsCountedNotFatal) {
  env::FaultConfig faults;
  faults.remove_failure_one_in = 1;  // Every RemoveFile fails.
  env::FaultyEnv flaky(&env_, faults);
  RepositoryOptions options;
  options.env = &flaky;
  options.dir = "/flaky-qm";
  options.shards = 1;
  {
    QueueRepository repo("flaky-qm", options);
    ASSERT_TRUE(repo.Open().ok());
    ASSERT_TRUE(repo.CreateQueue("q").ok());
    ASSERT_TRUE(repo.Enqueue(nullptr, "q", "x").ok());
    // Retiring WAL-0 fails; the checkpoint itself must still succeed
    // and the failure must be counted, not swallowed.
    ASSERT_TRUE(repo.Checkpoint().ok());
    EXPECT_GE(repo.remove_failure_count(), 1u);
    EXPECT_TRUE(env_.FileExists("/flaky-qm/WAL-0"));  // Orphaned.
  }
  // The next clean open reclaims what retirement could not.
  RepositoryOptions clean;
  clean.env = &env_;
  clean.dir = "/flaky-qm";
  QueueRepository reopened("flaky-qm", clean);
  ASSERT_TRUE(reopened.Open().ok());
  EXPECT_GE(reopened.recovery_gc_removed_count(), 1u);
  EXPECT_FALSE(env_.FileExists("/flaky-qm/WAL-0"));
  EXPECT_EQ(reopened.remove_failure_count(), 0u);
}

// Abort side effects auto-commit through the ordinary commit tail: a
// failed append applies none of them, so the abort count in memory is
// the one a reopen recovers from the log.
TEST_F(QueueRepositoryTest, FailedAbortLogLeavesMemoryMatchingLog) {
  env::FaultConfig faults;
  faults.write_failure_one_in = 1;  // Every append fails while enabled.
  env::FaultyEnv flaky(&env_, faults);
  flaky.SetFaultsSuppressed(true);
  RepositoryOptions options;
  options.env = &flaky;
  options.dir = "/abort-qm";
  options.shards = 1;
  ElementId eid = kInvalidElementId;
  uint32_t in_memory = 0;
  {
    QueueRepository repo("abort-qm", options);
    ASSERT_TRUE(repo.Open().ok());
    ASSERT_TRUE(repo.CreateQueue("q").ok());
    eid = *repo.Enqueue(nullptr, "q", "x");
    auto txn = txn_mgr_->Begin();
    ASSERT_TRUE(repo.Dequeue(txn.get(), "q").ok());
    flaky.SetFaultsSuppressed(false);
    txn->Abort();  // The side-effect record's append fails.
    flaky.SetFaultsSuppressed(true);
    EXPECT_GE(flaky.injected_fault_count(), 1u);
    auto element = repo.Read("q", eid);
    ASSERT_TRUE(element.ok()) << element.status().ToString();
    in_memory = element->abort_count;
  }
  QueueRepository reopened("abort-qm", options);
  ASSERT_TRUE(reopened.Open().ok());
  auto element = reopened.Read("q", eid);
  ASSERT_TRUE(element.ok()) << element.status().ToString();
  EXPECT_EQ(element->abort_count, in_memory);
}

TEST_F(QueueRepositoryTest, CorruptRegistrationTypeFailsOpen) {
  ASSERT_TRUE(repo_->Register("q", "REGCORRUPT", true).ok());
  ASSERT_TRUE(repo_->Enqueue(nullptr, "q", "pay", 0, "REGCORRUPT", "t1").ok());
  ASSERT_TRUE(repo_->Checkpoint().ok());  // Snapshot carries the registration.
  repo_.reset();
  std::string data;
  ASSERT_TRUE(env::ReadFileToString(&env_, "/qm/CHECKPOINT-1", &data).ok());
  // The kSetLastOp micro-op: kind byte 9, length-prefixed queue,
  // length-prefixed registrant, then the op-type byte.
  const std::string needle = std::string("\x09\x01") + "q" +
                             std::string(1, '\x0a') + "REGCORRUPT";
  const size_t pos = data.find(needle);
  ASSERT_NE(pos, std::string::npos);
  ASSERT_EQ(data[pos + needle.size()], static_cast<char>(OpType::kEnqueue));
  data[pos + needle.size()] = '\x7f';
  ASSERT_TRUE(env::WriteStringToFileSync(&env_, data, "/qm/CHECKPOINT-1").ok());
  RepositoryOptions options;
  options.env = &env_;
  options.dir = "/qm";
  options.shards = 1;
  QueueRepository corrupt("qm", options);
  EXPECT_TRUE(corrupt.Open().IsCorruption());
}

// A checkpoint slice starts with its record count, so a slice cut
// anywhere — at a record boundary, or just before the record that
// carries the applied replication watermark — fails Open() instead of
// loading a silently shorter state.
TEST_F(QueueRepositoryTest, TruncatedCheckpointFailsOpen) {
  MustEnqueue("q", "kept");
  ASSERT_TRUE(repo_->CommitReplWatermark(7).ok());
  ASSERT_TRUE(repo_->Checkpoint().ok());
  repo_.reset();
  std::string data;
  ASSERT_TRUE(env::ReadFileToString(&env_, "/qm/CHECKPOINT-1", &data).ok());

  RepositoryOptions options;
  options.env = &env_;
  options.dir = "/qm";
  options.shards = 1;
  auto open_cut = [&](size_t cut) {
    EXPECT_TRUE(env::WriteStringToFileSync(&env_, data.substr(0, cut),
                                           "/qm/CHECKPOINT-1")
                    .ok());
    QueueRepository cut_repo("qm", options);
    return cut_repo.Open();
  };
  // The last 8 bytes: the old format's optional trailing watermark.
  EXPECT_TRUE(open_cut(data.size() - 8).IsCorruption());
  // The empty slice, and every record boundary short of the end.
  EXPECT_TRUE(open_cut(0).IsCorruption());
  Slice input(data);
  uint64_t count = 0;
  ASSERT_TRUE(util::GetVarint64(&input, &count).ok());
  ASSERT_GE(count, 2u);  // Queue "q", then the watermark.
  for (uint64_t i = 0; i < count; ++i) {
    const size_t boundary = data.size() - input.size();
    EXPECT_TRUE(open_cut(boundary).IsCorruption()) << "cut at " << boundary;
    Slice record;
    ASSERT_TRUE(util::GetLengthPrefixed(&input, &record).ok());
  }
  ASSERT_TRUE(input.empty());
  ASSERT_TRUE(
      env::WriteStringToFileSync(&env_, data, "/qm/CHECKPOINT-1").ok());
  QueueRepository whole("qm", options);
  ASSERT_TRUE(whole.Open().ok());
  EXPECT_EQ(whole.applied_repl_seq(), 7u);
  EXPECT_EQ(*whole.Depth("q"), 1u);
}

// ---------------------------------------------------------------------------
// Checkpoint round trip. A checkpoint slice is a list of ordinary
// committed records, so recovering from the WAL alone, from a
// checkpoint alone and from a checkpoint plus a WAL tail must give the
// same state and the same next eid.

enum class CheckpointAt { kNever, kMiddle, kEnd };

class CheckpointRoundTripTest : public ::testing::TestWithParam<unsigned> {
 protected:
  // Builds every kind of state recovery must carry, checkpointing at
  // `at`, crashes, reopens, and returns the recovered state.
  std::vector<std::string> BuildCrashAndDump(CheckpointAt at) {
    env::MemEnv env;
    txn::TransactionManager txn_mgr;
    EXPECT_TRUE(txn_mgr.Open().ok());
    RepositoryOptions options;
    options.env = &env;
    options.dir = "/rt";
    options.shards = GetParam();
    // The one transaction still prepared at the crash committed.
    options.in_doubt_resolver = [](txn::TxnId) { return true; };
    QueueRepository repo("rt", options);
    EXPECT_TRUE(repo.Open().ok());
    EXPECT_EQ(repo.shard_count(), GetParam());

    QueueOptions poison;
    poison.error_queue = "errors";
    poison.max_aborts = 1;
    QueueOptions vol;
    vol.durable = false;
    EXPECT_TRUE(repo.CreateQueue("work", poison).ok());
    EXPECT_TRUE(repo.CreateQueue("volatile", vol).ok());
    for (const char* q : {"stopped", "join", "done", "txq", "probe"}) {
      EXPECT_TRUE(repo.CreateQueue(q).ok());
    }
    // Mixed priorities.
    EXPECT_TRUE(repo.Enqueue(nullptr, "work", "low", 0).ok());
    EXPECT_TRUE(repo.Enqueue(nullptr, "work", "high", 9).ok());
    EXPECT_TRUE(repo.Enqueue(nullptr, "work", "mid", 5).ok());
    // Stable registrants whose last op is an enqueue / a dequeue, and
    // an unstable one.
    EXPECT_TRUE(repo.Register("work", "enq-client", true).ok());
    EXPECT_TRUE(
        repo.Enqueue(nullptr, "work", "tagged", 3, "enq-client", "rid-1").ok());
    EXPECT_TRUE(repo.Register("work", "deq-client", true).ok());
    EXPECT_TRUE(repo.Dequeue(nullptr, "work", "deq-client", "rid-2").ok());
    EXPECT_TRUE(repo.Register("work", "plain", false).ok());
    if (at == CheckpointAt::kMiddle) {
      EXPECT_TRUE(repo.Checkpoint().ok());
    }
    // Abort count and code: the first abort moves "mid" to the error
    // queue; "bumped" only gains an abort count.
    {
      auto t = txn_mgr.Begin();
      EXPECT_TRUE(repo.Dequeue(t.get(), "work").ok());
      EXPECT_TRUE(t->Abort().ok());
    }
    EXPECT_TRUE(repo.Enqueue(nullptr, "txq", "bumped", 0).ok());
    {
      auto t = txn_mgr.Begin();
      EXPECT_TRUE(repo.Dequeue(t.get(), "txq").ok());
      EXPECT_TRUE(t->Abort().ok());
    }
    // A stopped queue that holds an element, and a volatile queue with
    // elements (lost at the crash however recovery runs).
    EXPECT_TRUE(repo.Enqueue(nullptr, "stopped", "held", 0).ok());
    EXPECT_TRUE(repo.StopQueue("stopped").ok());
    EXPECT_TRUE(repo.Enqueue(nullptr, "volatile", "v1", 0).ok());
    EXPECT_TRUE(repo.Enqueue(nullptr, "volatile", "v2", 0).ok());
    // A trigger two arrivals short of firing.
    EXPECT_TRUE(repo.Enqueue(nullptr, "join", "j1", 0).ok());
    EXPECT_TRUE(repo.SetTrigger({"join", 3, "done", "joined", 2}).ok());
    // A prepared-but-undecided transaction.
    EXPECT_TRUE(repo.Enqueue(nullptr, "txq", "taken", 1).ok());
    auto prepared = txn_mgr.Begin();
    EXPECT_TRUE(repo.Dequeue(prepared.get(), "txq").ok());
    EXPECT_TRUE(repo.Enqueue(prepared.get(), "txq", "made-in-txn", 0).ok());
    EXPECT_TRUE(repo.Prepare(prepared->id()).ok());
    // A nonzero applied replication watermark, logged last.
    EXPECT_TRUE(repo.CommitReplWatermark(42).ok());
    if (at == CheckpointAt::kEnd) {
      EXPECT_TRUE(repo.Checkpoint().ok());
    }
    env.SimulateCrash();

    std::vector<std::string> dump;
    {
      QueueRepository recovered("rt", options);
      EXPECT_TRUE(recovered.Open().ok());
      dump = Dump(&recovered);
    }
    prepared->Abort();  // Releases the crashed instance's transaction.
    return dump;
  }

  // The recovered state, read through the public API (destructively:
  // queues are drained).
  static std::vector<std::string> Dump(QueueRepository* r) {
    std::vector<std::string> out;
    auto next = r->Enqueue(nullptr, "probe", "next");
    out.push_back("next eid " + (next.ok() ? std::to_string(*next)
                                           : next.status().ToString()));
    out.push_back("repl seq " + std::to_string(r->applied_repl_seq()));
    for (const char* reg : {"enq-client", "deq-client", "plain"}) {
      auto info = r->Register("work", reg, true);
      if (!info.ok()) {
        out.push_back(std::string(reg) + " " + info.status().ToString());
        continue;
      }
      out.push_back(std::string(reg) + " registered=" +
                    std::to_string(info->was_registered) + " last=" +
                    std::to_string(static_cast<int>(info->last_op)) + " eid=" +
                    std::to_string(info->last_eid) + " tag=" +
                    info->last_tag + " element=" + info->last_element);
    }
    // Two more arrivals fire the trigger if it survived.
    EXPECT_TRUE(r->Enqueue(nullptr, "join", "j2", 0).ok());
    EXPECT_TRUE(r->Enqueue(nullptr, "join", "j3", 0).ok());
    for (const std::string& q : r->ListQueues()) {
      auto o = r->GetQueueOptions(q);
      EXPECT_TRUE(o.ok());
      out.push_back(q + " durable=" + std::to_string(o->durable) +
                    " max_aborts=" + std::to_string(o->max_aborts) +
                    " error_queue=" + o->error_queue);
      for (;;) {
        auto e = r->Dequeue(nullptr, q);
        if (e.status().IsFailedPrecondition()) {
          out.push_back(q + " stopped");
          EXPECT_TRUE(r->StartQueue(q).ok());
          continue;
        }
        if (!e.ok()) break;
        out.push_back(q + " eid=" + std::to_string(e->eid) + " priority=" +
                      std::to_string(e->priority) + " aborts=" +
                      std::to_string(e->abort_count) + " code=" +
                      e->abort_code + " " + e->contents);
      }
    }
    return out;
  }

  static bool HasLine(const std::vector<std::string>& dump,
                      const std::string& prefix, const std::string& text) {
    for (const std::string& line : dump) {
      if (line.rfind(prefix, 0) == 0 &&
          line.find(text) != std::string::npos) {
        return true;
      }
    }
    return false;
  }
};

TEST_P(CheckpointRoundTripTest, WalCheckpointAndTailRecoverTheSameState) {
  const std::vector<std::string> wal_only =
      BuildCrashAndDump(CheckpointAt::kNever);
  // The reference itself carries every kind of state.
  EXPECT_TRUE(HasLine(wal_only, "repl seq", "42"));
  EXPECT_TRUE(HasLine(wal_only, "enq-client", "last=1"));
  EXPECT_TRUE(HasLine(wal_only, "enq-client", "tag=rid-1 element=tagged"));
  EXPECT_TRUE(HasLine(wal_only, "deq-client", "tag=rid-2 element=high"));
  EXPECT_TRUE(HasLine(wal_only, "plain", "registered=1 last=0"));
  EXPECT_TRUE(HasLine(wal_only, "stopped stopped", ""));
  EXPECT_TRUE(HasLine(wal_only, "stopped eid", "held"));
  EXPECT_FALSE(HasLine(wal_only, "volatile eid", ""));
  EXPECT_TRUE(HasLine(wal_only, "done eid", "priority=2 aborts=0 code= joined"));
  EXPECT_TRUE(HasLine(wal_only, "errors eid",
                      "priority=5 aborts=1 code=abort limit reached mid"));
  EXPECT_TRUE(HasLine(wal_only, "txq eid", "aborts=1 code= bumped"));
  EXPECT_TRUE(HasLine(wal_only, "txq eid", "made-in-txn"));
  EXPECT_FALSE(HasLine(wal_only, "txq eid", "taken"));
  EXPECT_TRUE(HasLine(wal_only, "work eid", "priority=3"));

  EXPECT_EQ(BuildCrashAndDump(CheckpointAt::kEnd), wal_only);
  EXPECT_EQ(BuildCrashAndDump(CheckpointAt::kMiddle), wal_only);
}

INSTANTIATE_TEST_SUITE_P(Shards, CheckpointRoundTripTest,
                         ::testing::Values(1u, 4u));

// ---------------------------------------------------------------------------
// Sharded repository semantics

class ShardedRepositoryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    txn_mgr_ = std::make_unique<txn::TransactionManager>();
    ASSERT_TRUE(txn_mgr_->Open().ok());
    repo_ = MakeRepo(4);
    ASSERT_EQ(repo_->shard_count(), 4u);
  }

  std::unique_ptr<QueueRepository> MakeRepo(unsigned shards) {
    RepositoryOptions options;
    options.env = &env_;
    options.dir = "/sq";
    options.shards = shards;
    options.in_doubt_resolver = [this](txn::TxnId id) {
      return txn_mgr_->WasCommitted(id);
    };
    auto repo = std::make_unique<QueueRepository>("sq", options);
    EXPECT_TRUE(repo->Open().ok());
    return repo;
  }

  // First unused "q<n>" whose name hashes to `shard`.
  std::string NameOnShard(size_t shard) {
    for (;; ++name_seq_) {
      std::string name = "q" + std::to_string(name_seq_);
      if (repo_->shard_of(name) == shard) {
        ++name_seq_;
        return name;
      }
    }
  }

  env::MemEnv env_;
  std::unique_ptr<txn::TransactionManager> txn_mgr_;
  std::unique_ptr<QueueRepository> repo_;
  int name_seq_ = 0;
};

TEST_F(ShardedRepositoryTest, CrossShardTransactionCommitsAtomically) {
  const std::string qa = NameOnShard(0);
  const std::string qb = NameOnShard(2);
  ASSERT_NE(repo_->shard_of(qa), repo_->shard_of(qb));
  ASSERT_TRUE(repo_->CreateQueue(qa).ok());
  ASSERT_TRUE(repo_->CreateQueue(qb).ok());
  auto txn = txn_mgr_->Begin();
  ASSERT_TRUE(repo_->Enqueue(txn.get(), qa, "a").ok());
  ASSERT_TRUE(repo_->Enqueue(txn.get(), qb, "b").ok());
  EXPECT_EQ(*repo_->Depth(qa), 0u);  // Nothing visible before commit.
  EXPECT_EQ(*repo_->Depth(qb), 0u);
  ASSERT_TRUE(txn->Commit().ok());
  EXPECT_EQ(*repo_->Depth(qa), 1u);
  EXPECT_EQ(*repo_->Depth(qb), 1u);
}

TEST_F(ShardedRepositoryTest, CrossShardTransactionAbortsAtomically) {
  const std::string qa = NameOnShard(1);
  const std::string qb = NameOnShard(3);
  ASSERT_TRUE(repo_->CreateQueue(qa).ok());
  ASSERT_TRUE(repo_->CreateQueue(qb).ok());
  ASSERT_TRUE(repo_->Enqueue(nullptr, qa, "a").ok());
  ASSERT_TRUE(repo_->Enqueue(nullptr, qb, "b").ok());
  auto txn = txn_mgr_->Begin();
  ASSERT_TRUE(repo_->Dequeue(txn.get(), qa).ok());
  ASSERT_TRUE(repo_->Dequeue(txn.get(), qb).ok());
  txn->Abort();
  // Both elements are back, on both shards.
  EXPECT_EQ(*repo_->Depth(qa), 1u);
  EXPECT_EQ(*repo_->Depth(qb), 1u);
  EXPECT_EQ(repo_->Dequeue(nullptr, qa)->contents, "a");
  EXPECT_EQ(repo_->Dequeue(nullptr, qb)->contents, "b");
}

TEST_F(ShardedRepositoryTest, CrossShardPreparedTransactionRecovers) {
  const std::string qa = NameOnShard(0);
  const std::string qb = NameOnShard(3);
  ASSERT_TRUE(repo_->CreateQueue(qa).ok());
  ASSERT_TRUE(repo_->CreateQueue(qb).ok());
  auto txn = txn_mgr_->Begin();
  ASSERT_TRUE(repo_->Enqueue(txn.get(), qa, "a").ok());
  ASSERT_TRUE(repo_->Enqueue(txn.get(), qb, "b").ok());
  ASSERT_TRUE(repo_->Prepare(txn->id()).ok());
  const txn::TxnId id = txn->id();
  env_.SimulateCrash();

  // Resolver says committed: both shards' prepared slices apply, or
  // neither — never one.
  RepositoryOptions options;
  options.env = &env_;
  options.dir = "/sq";
  options.shards = 4;
  options.in_doubt_resolver = [id](txn::TxnId q) { return q == id; };
  QueueRepository recovered("sq", options);
  ASSERT_TRUE(recovered.Open().ok());
  EXPECT_EQ(*recovered.Depth(qa), 1u);
  EXPECT_EQ(*recovered.Depth(qb), 1u);
  txn->Abort();
}

// The cross-shard commit's checkpoint rule. A checkpoint that runs
// after the coordinator logged the decision, but before the other
// shard's marker, retires the decision with the old generation. The
// other shard's part must then be re-logged as committed, or a crash
// before the marker would keep the coordinator's part (and the hosted
// store's write, which rides it) and presume the rest aborted.
TEST_F(ShardedRepositoryTest, CheckpointBetweenDecisionAndMarkerKeepsTxnWhole) {
  const std::string qa = NameOnShard(0);
  const std::string qb = NameOnShard(2);  // The coordinator: last shard.
  bool armed = false;
  QueueRepository* live = nullptr;
  env::FaultConfig hook;
  hook.on_sync = [&](const std::string& path) {
    // The decision's force: checkpoint before it completes.
    if (armed && path == "/ck/WAL-0-2") {
      armed = false;
      ASSERT_TRUE(live->Checkpoint().ok());
    }
  };
  env::FaultyEnv env(&env_, hook);
  auto open = [&](std::unique_ptr<QueueRepository>* repo,
                  std::unique_ptr<storage::KvStore>* db) {
    RepositoryOptions options;
    options.env = &env;
    options.dir = "/ck";
    options.shards = 4;
    *repo = std::make_unique<QueueRepository>("ck", options);
    storage::KvStoreOptions db_options;
    db_options.host = repo->get();
    *db = std::make_unique<storage::KvStore>("db", db_options);
    ASSERT_TRUE((*repo)->Open().ok());
  };
  std::unique_ptr<QueueRepository> repo;
  std::unique_ptr<storage::KvStore> db;
  open(&repo, &db);
  live = repo.get();
  ASSERT_TRUE(repo->CreateQueue(qa).ok());
  ASSERT_TRUE(repo->CreateQueue(qb).ok());
  ASSERT_TRUE(repo->Enqueue(nullptr, qa, "request").ok());

  auto txn = txn_mgr_->Begin();
  ASSERT_TRUE(repo->Dequeue(txn.get(), qa).ok());
  ASSERT_TRUE(db->Put(txn.get(), "exec/1", "1").ok());
  ASSERT_TRUE(repo->Enqueue(txn.get(), qb, "reply").ok());
  armed = true;
  ASSERT_TRUE(txn->Commit().ok());
  EXPECT_FALSE(armed) << "the checkpoint never ran";
  env_.SimulateCrash();  // Drops the unsynced marker on shard 0.

  db.reset();
  repo.reset();
  open(&repo, &db);
  const size_t request = *repo->Depth(qa);
  const size_t reply = *repo->Depth(qb);
  const bool counted = db->GetCommitted("exec/1").ok();
  // All of it or none of it; the checkpoint made the decision durable.
  EXPECT_EQ(request, 0u);
  EXPECT_EQ(reply, 1u);
  EXPECT_TRUE(counted);
}

// A replica seed against a cross-shard commit in flight. The commit
// holds replication tickets on both shards from its decision until it
// delivers its one record; the seed holds every shard lock while it
// waits for those deliveries. The commit must deliver before it takes
// a shard lock again (phase 3), and the seed, cut before phase 3, must
// then ship the other shard's decided part itself.
TEST_F(ShardedRepositoryTest, ReplicaSeedDuringCrossShardCommitHoldsEveryPart) {
  const std::string qa = NameOnShard(0);
  const std::string qb = NameOnShard(2);  // The coordinator: last shard.
  std::atomic<bool> armed{false};
  std::promise<void> at_decision;
  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  env::FaultConfig hook;
  hook.on_sync = [&](const std::string& path) {
    // Hold the decision's force until the seed is waiting on it.
    if (path == "/rs/WAL-0-2" && armed.exchange(false)) {
      at_decision.set_value();
      released.wait();
    }
  };
  env::FaultyEnv env(&env_, hook);
  std::mutex shipped_mu;
  std::vector<std::string> shipped;
  RepositoryOptions options;
  options.env = &env;
  options.dir = "/rs";
  options.shards = 4;
  options.replication_sink = [&](const Slice& record) {
    std::lock_guard<std::mutex> lock(shipped_mu);
    shipped.push_back(record.ToString());
    return Status::OK();
  };
  QueueRepository repo("rs", options);
  storage::KvStoreOptions db_options;
  db_options.host = &repo;
  storage::KvStore db("db", db_options);
  ASSERT_TRUE(repo.Open().ok());
  ASSERT_TRUE(repo.CreateQueue(qa).ok());
  ASSERT_TRUE(repo.CreateQueue(qb).ok());
  ASSERT_TRUE(repo.Enqueue(nullptr, qa, "request").ok());

  auto txn = txn_mgr_->Begin();
  ASSERT_TRUE(repo.Dequeue(txn.get(), qa).ok());
  ASSERT_TRUE(db.Put(txn.get(), "exec/1", "1").ok());
  ASSERT_TRUE(repo.Enqueue(txn.get(), qb, "reply").ok());
  armed = true;
  auto commit = std::async(std::launch::async, [&] { return txn->Commit(); });
  at_decision.get_future().wait();

  std::atomic<bool> at_barrier{false};
  size_t barrier = 0;
  std::vector<std::string> seed;
  auto capture = std::async(std::launch::async, [&] {
    return repo.CaptureReplicaSnapshot(
        [&] {
          std::lock_guard<std::mutex> lock(shipped_mu);
          barrier = shipped.size();
          at_barrier = true;
        },
        &seed);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EXPECT_FALSE(at_barrier) << "the seed did not wait for the delivery";
  release.set_value();
  const auto deadline = std::chrono::seconds(20);
  if (commit.wait_for(deadline) != std::future_status::ready ||
      capture.wait_for(deadline) != std::future_status::ready) {
    // Both threads are stuck for good; end the run instead of hanging.
    std::fprintf(stderr, "deadlock: cross-shard commit vs replica seed\n");
    std::_Exit(1);
  }
  ASSERT_TRUE(commit.get().ok());
  ASSERT_TRUE(capture.get().ok());
  EXPECT_EQ(*repo.Depth(qa), 0u);
  EXPECT_EQ(*repo.Depth(qb), 1u);

  // The seed followed by the records after its barrier reproduces the
  // primary: the request gone, the reply there, the write counted.
  QueueRepository standby("standby");
  storage::KvStoreOptions standby_db_options;
  standby_db_options.host = &standby;
  storage::KvStore standby_db("db", standby_db_options);
  ASSERT_TRUE(standby.Open().ok());
  for (const std::string& record : seed) {
    ASSERT_TRUE(standby.ApplyReplicatedRecord(Slice(record)).ok());
  }
  for (size_t i = barrier; i < shipped.size(); ++i) {
    ASSERT_TRUE(standby.ApplyReplicatedRecord(Slice(shipped[i])).ok());
  }
  EXPECT_EQ(*standby.Depth(qa), 0u);
  EXPECT_EQ(*standby.Depth(qb), 1u);
  EXPECT_EQ(*standby_db.GetCommitted("exec/1"), "1");
}

// A hosted store's writes commit in the coordinator's record: a
// spanning transaction forces once, and the store recovers from the
// repository's log alone.
TEST_F(ShardedRepositoryTest, HostedStoreCommitsThroughQueueLog) {
  env::FaultyEnv env(&env_);
  RepositoryOptions options;
  options.env = &env;
  options.dir = "/hs";
  options.shards = 4;
  auto repo = std::make_unique<QueueRepository>("hs", options);
  storage::KvStoreOptions db_options;
  db_options.host = repo.get();
  auto db = std::make_unique<storage::KvStore>("db", db_options);
  ASSERT_TRUE(repo->Open().ok());
  const std::string qa = NameOnShard(1);
  const std::string qb = NameOnShard(3);
  ASSERT_TRUE(repo->CreateQueue(qa).ok());
  ASSERT_TRUE(repo->CreateQueue(qb).ok());
  ASSERT_TRUE(repo->Enqueue(nullptr, qa, "x").ok());

  uint64_t before = env.sync_count();
  auto txn = txn_mgr_->Begin();
  ASSERT_TRUE(repo->Dequeue(txn.get(), qa).ok());
  ASSERT_TRUE(db->Put(txn.get(), "k", "v").ok());
  ASSERT_TRUE(db->Put(txn.get(), "gone", "soon").ok());
  ASSERT_TRUE(db->Delete(txn.get(), "gone").ok());
  ASSERT_TRUE(repo->Enqueue(txn.get(), qb, "y").ok());
  ASSERT_TRUE(txn->Commit().ok());
  // Shard 3's decision, which carries shard 1's part too.
  EXPECT_EQ(env.sync_count() - before, 1u);
  EXPECT_EQ(*db->GetCommitted("k"), "v");

  // A transaction that writes only the store still commits (one force).
  before = env.sync_count();
  auto solo = txn_mgr_->Begin();
  ASSERT_TRUE(db->Put(solo.get(), "solo", "1").ok());
  ASSERT_TRUE(solo->Commit().ok());
  EXPECT_EQ(env.sync_count() - before, 1u);

  db.reset();
  repo.reset();
  env_.SimulateCrash();
  repo = std::make_unique<QueueRepository>("hs", options);
  db_options.host = repo.get();
  db = std::make_unique<storage::KvStore>("db", db_options);
  ASSERT_TRUE(repo->Open().ok());
  EXPECT_EQ(*db->GetCommitted("k"), "v");
  EXPECT_EQ(*db->GetCommitted("solo"), "1");
  EXPECT_TRUE(db->GetCommitted("gone").status().IsNotFound());
  EXPECT_EQ(*repo->Depth(qa), 0u);
  EXPECT_EQ(*repo->Depth(qb), 1u);

  // A checkpoint carries the store; a repository without one refuses
  // the log instead of dropping the store's state.
  ASSERT_TRUE(repo->Checkpoint().ok());
  db.reset();
  repo.reset();
  repo = std::make_unique<QueueRepository>("hs", options);
  db_options.host = repo.get();
  db = std::make_unique<storage::KvStore>("db", db_options);
  ASSERT_TRUE(repo->Open().ok());
  EXPECT_EQ(*db->GetCommitted("k"), "v");
  EXPECT_EQ(db->size(), 2u);
  db.reset();
  repo.reset();
  QueueRepository bare("hs", options);
  EXPECT_TRUE(bare.Open().IsFailedPrecondition());
}

// §7's cancellation window closes at the decision: a part that its
// coordinator's record already committed must not be killed while its
// own shard has yet to apply it.
TEST_F(ShardedRepositoryTest, KillFailsOnceDecided) {
  const std::string qa = NameOnShard(0);
  const std::string qb = NameOnShard(2);  // The coordinator: last shard.
  bool armed = false;
  std::optional<Result<bool>> killed;
  QueueRepository* live = nullptr;
  ElementId eid = kInvalidElementId;
  env::FaultConfig hook;
  hook.on_sync = [&](const std::string& path) {
    // The decision's force: cancel the request before phase 2 applies
    // the dequeue on shard 0.
    if (armed && path == "/kd/WAL-0-2") {
      armed = false;
      killed = live->KillElement(nullptr, qa, eid);
    }
  };
  env::FaultyEnv env(&env_, hook);
  RepositoryOptions options;
  options.env = &env;
  options.dir = "/kd";
  options.shards = 4;
  QueueRepository repo("kd", options);
  live = &repo;
  ASSERT_TRUE(repo.Open().ok());
  ASSERT_TRUE(repo.CreateQueue(qa).ok());
  ASSERT_TRUE(repo.CreateQueue(qb).ok());
  eid = *repo.Enqueue(nullptr, qa, "request");

  auto txn = txn_mgr_->Begin();
  ASSERT_TRUE(repo.Dequeue(txn.get(), qa).ok());
  ASSERT_TRUE(repo.Enqueue(txn.get(), qb, "reply").ok());
  armed = true;
  ASSERT_TRUE(txn->Commit().ok());
  ASSERT_TRUE(killed.has_value()) << "the decision never synced";
  ASSERT_TRUE(killed->ok()) << killed->status().ToString();
  EXPECT_FALSE(**killed) << "a committed request was also cancelled";
  EXPECT_EQ(*repo.Depth(qb), 1u);
}

// The decision is a cross-shard commit's one force; the other shards'
// markers are never synced by the commit itself. A crash right after it
// loses every marker, and recovery must read each part from the
// coordinator's record.
TEST_F(ShardedRepositoryTest, DecisionWithoutMarkersRecoversEveryPart) {
  const std::string qa = NameOnShard(0);
  const std::string qb = NameOnShard(1);
  const std::string qc = NameOnShard(3);  // The coordinator: last shard.
  for (const std::string& q : {qa, qb, qc}) {
    ASSERT_TRUE(repo_->CreateQueue(q).ok());
  }
  ASSERT_TRUE(repo_->Enqueue(nullptr, qa, "request").ok());
  auto txn = txn_mgr_->Begin();
  ASSERT_TRUE(repo_->Dequeue(txn.get(), qa).ok());
  ASSERT_TRUE(repo_->Enqueue(txn.get(), qb, "b").ok());
  ASSERT_TRUE(repo_->Enqueue(txn.get(), qc, "c").ok());
  ASSERT_TRUE(txn->Commit().ok());
  env_.SimulateCrash();

  auto recovered = MakeRepo(4);
  EXPECT_EQ(*recovered->Depth(qa), 0u);
  EXPECT_EQ(recovered->Dequeue(nullptr, qb)->contents, "b");
  EXPECT_EQ(recovered->Dequeue(nullptr, qc)->contents, "c");
}

// A part applies at its marker, not at the end of its shard's replay:
// a later record on that shard — here a synced dequeue, whose force
// also made the marker durable — may depend on it.
TEST_F(ShardedRepositoryTest, RecordAfterMarkerSeesThePart) {
  const std::string qb = NameOnShard(0);
  const std::string qc = NameOnShard(2);  // The coordinator.
  ASSERT_TRUE(repo_->CreateQueue(qb).ok());
  ASSERT_TRUE(repo_->CreateQueue(qc).ok());
  auto txn = txn_mgr_->Begin();
  ASSERT_TRUE(repo_->Enqueue(txn.get(), qb, "element").ok());
  ASSERT_TRUE(repo_->Enqueue(txn.get(), qc, "other").ok());
  ASSERT_TRUE(txn->Commit().ok());
  auto consumed = repo_->Dequeue(nullptr, qb);
  ASSERT_TRUE(consumed.ok());
  EXPECT_EQ(consumed->contents, "element");
  env_.SimulateCrash();

  auto recovered = MakeRepo(4);
  EXPECT_EQ(*recovered->Depth(qb), 0u) << "a consumed element came back";
  EXPECT_EQ(*recovered->Depth(qc), 1u);
}

// Parts whose markers were lost apply in decision order, which need
// not be transaction-id order: the second decision, under the older
// transaction id and another coordinator, consumes the first's element.
TEST_F(ShardedRepositoryTest, LostMarkersApplyInDecisionOrder) {
  const std::string qb = NameOnShard(0);
  const std::string qa = NameOnShard(2);
  const std::string qc = NameOnShard(3);
  for (const std::string& q : {qa, qb, qc}) {
    ASSERT_TRUE(repo_->CreateQueue(q).ok());
  }
  auto second = txn_mgr_->Begin();
  auto first = txn_mgr_->Begin();
  ASSERT_LT(second->id(), first->id());
  ASSERT_TRUE(repo_->Enqueue(first.get(), qb, "element").ok());
  ASSERT_TRUE(repo_->Enqueue(first.get(), qa, "a").ok());
  ASSERT_TRUE(first->Commit().ok());  // Coordinator: shard 2.
  auto taken = repo_->Dequeue(second.get(), qb);
  ASSERT_TRUE(taken.ok());
  EXPECT_EQ(taken->contents, "element");
  ASSERT_TRUE(repo_->Enqueue(second.get(), qc, "c").ok());
  ASSERT_TRUE(second->Commit().ok());  // Coordinator: shard 3.
  env_.SimulateCrash();  // Drops both markers on shard 0.

  auto recovered = MakeRepo(4);
  EXPECT_EQ(*recovered->Depth(qb), 0u) << "a consumed element came back";
  EXPECT_EQ(*recovered->Depth(qa), 1u);
  EXPECT_EQ(*recovered->Depth(qc), 1u);
}

// A part of only volatile element traffic logs no marker, and recovery
// must not replay it from the decision either: the volatile element was
// consumed before the crash by a dequeue that was never logged.
TEST_F(ShardedRepositoryTest, ConsumedVolatilePartStaysGone) {
  const std::string scratch = NameOnShard(0);
  const std::string qc = NameOnShard(2);  // The coordinator.
  QueueOptions vopts;
  vopts.durable = false;
  ASSERT_TRUE(repo_->CreateQueue(scratch, vopts).ok());
  ASSERT_TRUE(repo_->CreateQueue(qc).ok());
  auto txn = txn_mgr_->Begin();
  ASSERT_TRUE(repo_->Enqueue(txn.get(), scratch, "ephemeral").ok());
  ASSERT_TRUE(repo_->Enqueue(txn.get(), qc, "durable").ok());
  ASSERT_TRUE(txn->Commit().ok());
  ASSERT_TRUE(repo_->Dequeue(nullptr, scratch).ok());
  env_.SimulateCrash();

  auto recovered = MakeRepo(4);
  EXPECT_EQ(*recovered->Depth(scratch), 0u) << "a consumed element came back";
  EXPECT_EQ(*recovered->Depth(qc), 1u);
}

// Queue placement is part of the on-disk format: a sharded directory's
// WAL streams hold each queue on the shard this hash picked when it was
// logged. These are rrqd's default queue names.
TEST_F(ShardedRepositoryTest, ShardPlacementIsPinned) {
  EXPECT_EQ(repo_->shard_of("requests"), 1u);
  EXPECT_EQ(repo_->shard_of("reply.bench-0"), 0u);
  EXPECT_EQ(repo_->shard_of("reply.bench-1"), 3u);
  EXPECT_EQ(repo_->shard_of("reply.bench-2"), 2u);
  EXPECT_EQ(repo_->shard_of("reply.bench-3"), 1u);
}

// Fail-stop: a failed sync poisons its shard's WAL. The repository
// reports it, and commits that log on that shard keep failing after
// the disk recovers, so nothing is acknowledged on top of lost bytes.
TEST_F(ShardedRepositoryTest, FailedSyncStopsItsShard) {
  env::FaultConfig config;
  config.sync_failure_one_in = 1;
  env::FaultyEnv env(&env_, config);
  env.SetFaultsSuppressed(true);
  RepositoryOptions options;
  options.env = &env;
  options.dir = "/fs";
  options.shards = 4;
  QueueRepository repo("fs", options);
  ASSERT_TRUE(repo.Open().ok());
  const std::string qa = NameOnShard(1);
  const std::string qb = NameOnShard(2);
  ASSERT_TRUE(repo.CreateQueue(qa).ok());
  ASSERT_TRUE(repo.CreateQueue(qb).ok());
  EXPECT_TRUE(repo.wal_error().ok());

  env.SetFaultsSuppressed(false);
  EXPECT_TRUE(repo.Enqueue(nullptr, qa, "lost").status().IsIOError());
  env.SetFaultsSuppressed(true);
  size_t shard = 0;
  EXPECT_TRUE(repo.wal_error(&shard).IsIOError());
  EXPECT_EQ(shard, 1u);
  EXPECT_FALSE(repo.Enqueue(nullptr, qa, "later").ok());
  EXPECT_TRUE(repo.Enqueue(nullptr, qb, "elsewhere").ok());
}

TEST_F(ShardedRepositoryTest, DequeueFromSetScansAcrossShards) {
  const std::string qa = NameOnShard(0);
  const std::string qb = NameOnShard(2);
  ASSERT_TRUE(repo_->CreateQueue(qa).ok());
  ASSERT_TRUE(repo_->CreateQueue(qb).ok());
  EXPECT_TRUE(repo_->DequeueFromSet(nullptr, {qa, qb}).status().IsNotFound());
  // Only the later-listed queue (a different shard) has an element.
  ASSERT_TRUE(repo_->Enqueue(nullptr, qb, "from-b").ok());
  auto got = repo_->DequeueFromSet(nullptr, {qa, qb});
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->contents, "from-b");
  // With both populated, the caller's scan order wins, not shard order.
  ASSERT_TRUE(repo_->Enqueue(nullptr, qa, "from-a").ok());
  ASSERT_TRUE(repo_->Enqueue(nullptr, qb, "from-b2").ok());
  got = repo_->DequeueFromSet(nullptr, {qa, qb});
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->contents, "from-a");
}

TEST_F(ShardedRepositoryTest, AbortLimitMovesElementAcrossShards) {
  const std::string q = NameOnShard(1);
  const std::string err = NameOnShard(2);
  QueueOptions qopts;
  qopts.max_aborts = 2;
  qopts.error_queue = err;
  ASSERT_TRUE(repo_->CreateQueue(q, qopts).ok());
  const ElementId eid = *repo_->Enqueue(nullptr, q, "poison");
  for (int round = 0; round < 2; ++round) {
    auto txn = txn_mgr_->Begin();
    ASSERT_TRUE(repo_->Dequeue(txn.get(), q).ok()) << "round " << round;
    txn->Abort();
  }
  // The poisoned element crossed shards into the on-demand error queue.
  EXPECT_TRUE(repo_->Dequeue(nullptr, q).status().IsNotFound());
  ASSERT_TRUE(repo_->QueueExists(err));
  auto dead = repo_->Dequeue(nullptr, err);
  ASSERT_TRUE(dead.ok());
  EXPECT_EQ(dead->contents, "poison");
  EXPECT_EQ(dead->eid, eid);
  EXPECT_EQ(dead->abort_count, 2u);
  EXPECT_FALSE(dead->abort_code.empty());
  EXPECT_EQ(repo_->error_move_count(), 1u);
}

TEST_F(ShardedRepositoryTest, SingleStreamDirAdoptedByShardedConfig) {
  // A directory written by shards=1 must open bit-for-bit compatible
  // under a sharded configuration: the on-disk count wins.
  RepositoryOptions legacy;
  legacy.env = &env_;
  legacy.dir = "/legacy";
  legacy.shards = 1;
  {
    QueueRepository repo("legacy", legacy);
    ASSERT_TRUE(repo.Open().ok());
    ASSERT_TRUE(repo.CreateQueue("q").ok());
    ASSERT_TRUE(repo.Enqueue(nullptr, "q", "survivor").ok());
  }
  ASSERT_TRUE(env_.FileExists("/legacy/WAL-0"));
  RepositoryOptions wide = legacy;
  wide.shards = 8;
  QueueRepository reopened("legacy", wide);
  ASSERT_TRUE(reopened.Open().ok());
  EXPECT_EQ(reopened.shard_count(), 1u);
  EXPECT_TRUE(env_.FileExists("/legacy/WAL-0"));
  EXPECT_FALSE(env_.FileExists("/legacy/WAL-0-0"));
  EXPECT_EQ(reopened.Dequeue(nullptr, "q")->contents, "survivor");
}

TEST_F(ShardedRepositoryTest, OnDiskShardCountAdoptedOnReopen) {
  const std::string qa = NameOnShard(0);
  const std::string qb = NameOnShard(3);
  ASSERT_TRUE(repo_->CreateQueue(qa).ok());
  ASSERT_TRUE(repo_->CreateQueue(qb).ok());
  ASSERT_TRUE(repo_->Enqueue(nullptr, qa, "a").ok());
  ASSERT_TRUE(repo_->Enqueue(nullptr, qb, "b").ok());
  repo_.reset();
  for (int s = 0; s < 4; ++s) {
    EXPECT_TRUE(env_.FileExists("/sq/WAL-0-" + std::to_string(s)));
  }
  // A mismatched configuration (1 shard) adopts the on-disk 4.
  auto reopened = MakeRepo(1);
  EXPECT_EQ(reopened->shard_count(), 4u);
  EXPECT_EQ(reopened->Dequeue(nullptr, qa)->contents, "a");
  EXPECT_EQ(reopened->Dequeue(nullptr, qb)->contents, "b");
}

TEST_F(ShardedRepositoryTest, PerShardOrphanGenerationsRemoved) {
  const std::string q = NameOnShard(2);
  ASSERT_TRUE(repo_->CreateQueue(q).ok());
  ASSERT_TRUE(repo_->Enqueue(nullptr, q, "survivor").ok());
  ASSERT_TRUE(repo_->Checkpoint().ok());  // Now at generation 1.
  repo_.reset();
  // A crash inside the sharded Checkpoint() can strand any shard's
  // slice of either generation, plus half-written tmps.
  ASSERT_TRUE(env::WriteStringToFileSync(&env_, "stale", "/sq/WAL-0-2").ok());
  ASSERT_TRUE(
      env::WriteStringToFileSync(&env_, "stale", "/sq/CHECKPOINT-7-1").ok());
  ASSERT_TRUE(
      env::WriteStringToFileSync(&env_, "half", "/sq/CHECKPOINT-2-0.tmp").ok());
  repo_ = MakeRepo(4);
  EXPECT_GE(repo_->recovery_gc_removed_count(), 3u);
  EXPECT_FALSE(env_.FileExists("/sq/WAL-0-2"));
  EXPECT_FALSE(env_.FileExists("/sq/CHECKPOINT-7-1"));
  EXPECT_FALSE(env_.FileExists("/sq/CHECKPOINT-2-0.tmp"));
  for (int s = 0; s < 4; ++s) {  // Live generation survives, all slices.
    EXPECT_TRUE(env_.FileExists("/sq/WAL-1-" + std::to_string(s)));
  }
  EXPECT_EQ(repo_->Dequeue(nullptr, q)->contents, "survivor");
}

}  // namespace
}  // namespace rrq::queue
