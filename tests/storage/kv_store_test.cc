#include "storage/kv_store.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "env/faulty_env.h"
#include "env/mem_env.h"
#include "queue/queue_repository.h"

namespace rrq::storage {
namespace {

class KvStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    txn_mgr_ = std::make_unique<txn::TransactionManager>();
    ASSERT_TRUE(txn_mgr_->Open().ok());
    store_ = MakeStore();
  }

  std::unique_ptr<KvStore> MakeStore(
      uint64_t lock_timeout_micros = KvStoreOptions().lock_timeout_micros) {
    KvStoreOptions options;
    options.env = &env_;
    options.dir = "/kv";
    options.lock_timeout_micros = lock_timeout_micros;
    auto store = std::make_unique<KvStore>("kv", options);
    EXPECT_TRUE(store->Open().ok());
    return store;
  }

  Status Put(const std::string& key, const std::string& value) {
    auto txn = txn_mgr_->Begin();
    RRQ_RETURN_IF_ERROR(store_->Put(txn.get(), key, value));
    return txn->Commit();
  }

  env::MemEnv env_;
  std::unique_ptr<txn::TransactionManager> txn_mgr_;
  std::unique_ptr<KvStore> store_;
};

TEST_F(KvStoreTest, PutGetRoundTrip) {
  ASSERT_TRUE(Put("alpha", "1").ok());
  auto txn = txn_mgr_->Begin();
  auto v = store_->Get(txn.get(), "alpha");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, "1");
  txn->Abort();
  EXPECT_EQ(*store_->GetCommitted("alpha"), "1");
}

TEST_F(KvStoreTest, GetMissingIsNotFound) {
  auto txn = txn_mgr_->Begin();
  EXPECT_TRUE(store_->Get(txn.get(), "nope").status().IsNotFound());
  txn->Abort();
  EXPECT_TRUE(store_->GetCommitted("nope").status().IsNotFound());
}

TEST_F(KvStoreTest, TransactionReadsOwnWrites) {
  auto txn = txn_mgr_->Begin();
  ASSERT_TRUE(store_->Put(txn.get(), "k", "v1").ok());
  EXPECT_EQ(*store_->Get(txn.get(), "k"), "v1");
  ASSERT_TRUE(store_->Put(txn.get(), "k", "v2").ok());
  EXPECT_EQ(*store_->Get(txn.get(), "k"), "v2");
  ASSERT_TRUE(store_->Delete(txn.get(), "k").ok());
  EXPECT_TRUE(store_->Get(txn.get(), "k").status().IsNotFound());
  ASSERT_TRUE(txn->Commit().ok());
  EXPECT_TRUE(store_->GetCommitted("k").status().IsNotFound());
}

TEST_F(KvStoreTest, AbortDiscardsWrites) {
  ASSERT_TRUE(Put("k", "old").ok());
  auto txn = txn_mgr_->Begin();
  ASSERT_TRUE(store_->Put(txn.get(), "k", "new").ok());
  txn->Abort();
  EXPECT_EQ(*store_->GetCommitted("k"), "old");
}

TEST_F(KvStoreTest, UncommittedWritesInvisibleToOthers) {
  // The reader below waits out the lock timeout; keep it short.
  store_.reset();
  store_ = MakeStore(/*lock_timeout_micros=*/50'000);
  auto writer = txn_mgr_->Begin();
  ASSERT_TRUE(store_->Put(writer.get(), "k", "v").ok());
  EXPECT_TRUE(store_->GetCommitted("k").status().IsNotFound());
  // A reader blocks on the lock (bounded) rather than seeing dirt.
  auto reader = txn_mgr_->Begin();
  EXPECT_TRUE(store_->Get(reader.get(), "k").status().IsTimedOut() ||
              store_->Get(reader.get(), "k").status().IsBusy());
  reader->Abort();
  ASSERT_TRUE(writer->Commit().ok());
}

TEST_F(KvStoreTest, DeleteThenGetNotFound) {
  ASSERT_TRUE(Put("k", "v").ok());
  auto txn = txn_mgr_->Begin();
  ASSERT_TRUE(store_->Delete(txn.get(), "k").ok());
  ASSERT_TRUE(txn->Commit().ok());
  EXPECT_TRUE(store_->GetCommitted("k").status().IsNotFound());
}

TEST_F(KvStoreTest, ScanKeysByPrefix) {
  ASSERT_TRUE(Put("acct/1", "100").ok());
  ASSERT_TRUE(Put("acct/2", "200").ok());
  ASSERT_TRUE(Put("other/3", "x").ok());
  auto keys = store_->ScanKeys("acct/");
  ASSERT_EQ(keys.size(), 2u);
  EXPECT_EQ(keys[0], "acct/1");
  EXPECT_EQ(keys[1], "acct/2");
  EXPECT_EQ(store_->size(), 3u);
}

TEST_F(KvStoreTest, CommittedDataSurvivesCrash) {
  ASSERT_TRUE(Put("durable", "yes").ok());
  env_.SimulateCrash();
  auto recovered = MakeStore();
  EXPECT_EQ(*recovered->GetCommitted("durable"), "yes");
  EXPECT_EQ(recovered->recovered_txn_count(), 1u);
}

TEST_F(KvStoreTest, UncommittedDataLostAtCrash) {
  auto txn = txn_mgr_->Begin();
  ASSERT_TRUE(store_->Put(txn.get(), "volatile", "no").ok());
  // No commit. Crash.
  env_.SimulateCrash();
  auto recovered = MakeStore();
  EXPECT_TRUE(recovered->GetCommitted("volatile").status().IsNotFound());
}

TEST_F(KvStoreTest, PreparedInDoubtResolvedByResolver) {
  // Drive the RM interface directly to stop between prepare and commit.
  auto txn = txn_mgr_->Begin();
  ASSERT_TRUE(store_->Put(txn.get(), "indoubt", "v").ok());
  txn::TxnId id = txn->id();
  ASSERT_TRUE(store_->Prepare(id).ok());
  // Crash before commit. (Abort the handle without touching the store:
  // simulate coordinator loss by releasing locks manually.)
  env_.SimulateCrash();

  // Recovery with a resolver that says "committed".
  {
    KvStoreOptions options;
    options.env = &env_;
    options.dir = "/kv";
    options.in_doubt_resolver = [id](txn::TxnId q) { return q == id; };
    KvStore recovered("kv", options);
    ASSERT_TRUE(recovered.Open().ok());
    EXPECT_EQ(*recovered.GetCommitted("indoubt"), "v");
  }
  // Recovery with presumed abort (no resolver).
  {
    KvStoreOptions options;
    options.env = &env_;
    options.dir = "/kv";
    KvStore recovered("kv", options);
    ASSERT_TRUE(recovered.Open().ok());
    EXPECT_TRUE(recovered.GetCommitted("indoubt").status().IsNotFound());
  }
  txn->Abort();
}

TEST_F(KvStoreTest, CheckpointTruncatesWalAndPreservesData) {
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(Put("k" + std::to_string(i), std::to_string(i)).ok());
  }
  const uint64_t wal_before = store_->wal_bytes();
  ASSERT_TRUE(store_->Checkpoint().ok());
  EXPECT_LT(store_->wal_bytes(), wal_before);
  EXPECT_EQ(store_->checkpoint_count(), 1u);

  // More writes after the checkpoint.
  ASSERT_TRUE(Put("post", "ckpt").ok());
  env_.SimulateCrash();
  auto recovered = MakeStore();
  EXPECT_EQ(recovered->size(), 51u);
  EXPECT_EQ(*recovered->GetCommitted("k17"), "17");
  EXPECT_EQ(*recovered->GetCommitted("post"), "ckpt");
}

TEST_F(KvStoreTest, CheckpointCarriesPreparedTransactions) {
  auto txn = txn_mgr_->Begin();
  ASSERT_TRUE(store_->Put(txn.get(), "prep", "v").ok());
  txn::TxnId id = txn->id();
  ASSERT_TRUE(store_->Prepare(id).ok());
  ASSERT_TRUE(store_->Checkpoint().ok());
  env_.SimulateCrash();

  KvStoreOptions options;
  options.env = &env_;
  options.dir = "/kv";
  options.in_doubt_resolver = [id](txn::TxnId q) { return q == id; };
  KvStore recovered("kv", options);
  ASSERT_TRUE(recovered.Open().ok());
  EXPECT_EQ(*recovered.GetCommitted("prep"), "v");
  txn->Abort();
}

TEST_F(KvStoreTest, VolatileStoreWorksWithoutEnv) {
  KvStore store("volatile", {});
  ASSERT_TRUE(store.Open().ok());
  auto txn = txn_mgr_->Begin();
  ASSERT_TRUE(store.Put(txn.get(), "k", "v").ok());
  ASSERT_TRUE(txn->Commit().ok());
  EXPECT_EQ(*store.GetCommitted("k"), "v");
}

TEST_F(KvStoreTest, TwoStoresInOneTransactionCommitAtomically) {
  KvStoreOptions options2;
  options2.env = &env_;
  options2.dir = "/kv2";
  KvStore store2("kv2", options2);
  ASSERT_TRUE(store2.Open().ok());

  auto txn = txn_mgr_->Begin();
  ASSERT_TRUE(store_->Put(txn.get(), "a", "1").ok());
  ASSERT_TRUE(store2.Put(txn.get(), "b", "2").ok());
  ASSERT_TRUE(txn->Commit().ok());
  EXPECT_EQ(*store_->GetCommitted("a"), "1");
  EXPECT_EQ(*store2.GetCommitted("b"), "2");
}

TEST_F(KvStoreTest, ConflictingWritersSerialize) {
  ASSERT_TRUE(Put("ctr", "0").ok());
  constexpr int kThreads = 4;
  constexpr int kIncrements = 50;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([this]() {
      for (int i = 0; i < kIncrements; ++i) {
        Status s = txn::RunInTransaction(
            txn_mgr_.get(), 10, [this](txn::Transaction* txn) -> Status {
              auto v = store_->GetForUpdate(txn, "ctr");
              if (!v.ok()) return v.status();
              return store_->Put(txn, "ctr",
                                 std::to_string(std::stoi(*v) + 1));
            });
        ASSERT_TRUE(s.ok()) << s.ToString();
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(*store_->GetCommitted("ctr"),
            std::to_string(kThreads * kIncrements));
}

// ---------------------------------------------------------------------------
// Checkpoint generation hygiene (crash-sweep regressions)

TEST_F(KvStoreTest, OpenRemovesOrphanGenerations) {
  ASSERT_TRUE(Put("k", "survivor").ok());
  ASSERT_TRUE(store_->Checkpoint().ok());  // Now at generation 1.
  store_.reset();
  // A crash inside Checkpoint() can strand the retiring generation, a
  // freshly written next generation, or a half-written tmp.
  ASSERT_TRUE(env::WriteStringToFileSync(&env_, "stale", "/kv/WAL-0").ok());
  ASSERT_TRUE(
      env::WriteStringToFileSync(&env_, "stale", "/kv/CHECKPOINT-9").ok());
  ASSERT_TRUE(env::WriteStringToFileSync(&env_, "half", "/kv/WAL-2.tmp").ok());
  store_ = MakeStore();
  EXPECT_GE(store_->recovery_gc_removed_count(), 3u);
  EXPECT_FALSE(env_.FileExists("/kv/WAL-0"));
  EXPECT_FALSE(env_.FileExists("/kv/CHECKPOINT-9"));
  EXPECT_FALSE(env_.FileExists("/kv/WAL-2.tmp"));
  EXPECT_TRUE(env_.FileExists("/kv/WAL-1"));  // Live generation survives.
  EXPECT_EQ(*store_->GetCommitted("k"), "survivor");
}

// A hosted store's redo may come back in any order (parallel replay
// of per-shard logs): the newest stamp wins, and a delete leaves a
// tombstone that an older write cannot get past.
TEST_F(KvStoreTest, HostedRedoAppliesLastWriterWinsByStamp) {
  queue::QueueRepository host("host");
  KvStoreOptions options;
  options.host = &host;
  KvStore writer("writer", options);
  auto redo_of = [&](const std::function<Status(txn::Transaction*)>& body) {
    auto txn = txn_mgr_->Begin();
    EXPECT_TRUE(body(txn.get()).ok());
    std::string redo = writer.TakeRedo(txn->id());
    txn->Abort();  // The host never commits it; only the bytes matter.
    return redo;
  };
  const std::string put1 = redo_of(
      [&](txn::Transaction* t) { return writer.Put(t, "k", "v1"); });
  const std::string del2 =
      redo_of([&](txn::Transaction* t) { return writer.Delete(t, "k"); });
  const std::string put3 = redo_of(
      [&](txn::Transaction* t) { return writer.Put(t, "k", "v3"); });
  EXPECT_EQ(writer.size(), 0u);

  queue::QueueRepository host2("host2");
  options.host = &host2;
  KvStore replayed("replayed", options);
  ASSERT_TRUE(replayed.ApplyRedo(30, put3).ok());
  ASSERT_TRUE(replayed.ApplyRedo(10, put1).ok());
  ASSERT_TRUE(replayed.ApplyRedo(20, del2).ok());
  EXPECT_EQ(*replayed.GetCommitted("k"), "v3");

  queue::QueueRepository host3("host3");
  options.host = &host3;
  KvStore deleted("deleted", options);
  ASSERT_TRUE(deleted.ApplyRedo(20, del2).ok());
  ASSERT_TRUE(deleted.ApplyRedo(10, put1).ok());  // Behind the tombstone.
  EXPECT_TRUE(deleted.GetCommitted("k").status().IsNotFound());
  EXPECT_TRUE(deleted.ScanKeys("").empty());
  EXPECT_EQ(deleted.size(), 0u);
  // A snapshot (stamp 0) is older than every commit.
  ASSERT_TRUE(deleted.ApplyRedo(0, put3).ok());
  EXPECT_TRUE(deleted.GetCommitted("k").status().IsNotFound());
  EXPECT_TRUE(deleted.ApplyRedo(40, "garbage").IsCorruption());
}

TEST_F(KvStoreTest, FailedRetirementIsCountedNotFatal) {
  env::FaultConfig faults;
  faults.remove_failure_one_in = 1;  // Every RemoveFile fails.
  env::FaultyEnv flaky(&env_, faults);
  KvStoreOptions options;
  options.env = &flaky;
  options.dir = "/flaky-kv";
  {
    KvStore store("flaky-kv", options);
    ASSERT_TRUE(store.Open().ok());
    auto txn = txn_mgr_->Begin();
    ASSERT_TRUE(store.Put(txn.get(), "k", "v").ok());
    ASSERT_TRUE(txn->Commit().ok());
    // Retiring WAL-0 fails; the checkpoint itself must still succeed
    // and the failure must be counted, not swallowed.
    ASSERT_TRUE(store.Checkpoint().ok());
    EXPECT_GE(store.remove_failure_count(), 1u);
    EXPECT_TRUE(env_.FileExists("/flaky-kv/WAL-0"));  // Orphaned.
  }
  // The next clean open reclaims what retirement could not.
  KvStoreOptions clean;
  clean.env = &env_;
  clean.dir = "/flaky-kv";
  KvStore reopened("flaky-kv", clean);
  ASSERT_TRUE(reopened.Open().ok());
  EXPECT_GE(reopened.recovery_gc_removed_count(), 1u);
  EXPECT_FALSE(env_.FileExists("/flaky-kv/WAL-0"));
  EXPECT_EQ(reopened.remove_failure_count(), 0u);
}

// Regression: Checkpoint() swaps the WAL writer under mu_ while
// committers append outside it. Two bugs lived here until the
// thread-safety annotation pass forced them out: (1) Prepare() read
// wal_ *after* releasing mu_ to decide whether to sync, racing the
// swap; (2) the retired writer was destroyed immediately, so an
// in-flight append could use a freed LogWriter. The writer is now a
// shared_ptr snapshotted under mu_. This test hammers commits against
// checkpoints — the lifetime bug trips ASan/TSan, and the recovery
// check below catches any commit the race dropped from the log.
TEST_F(KvStoreTest, ConcurrentCommitsDuringCheckpoint) {
  constexpr int kWriters = 4;
  constexpr int kPerWriter = 50;
  std::atomic<bool> stop{false};
  std::thread checkpointer([&] {
    while (!stop.load()) {
      ASSERT_TRUE(store_->Checkpoint().ok());
    }
  });
  std::vector<std::thread> writers;
  writers.reserve(kWriters);
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      for (int i = 0; i < kPerWriter; ++i) {
        auto txn = txn_mgr_->Begin();
        std::string key = "w" + std::to_string(w) + "." + std::to_string(i);
        ASSERT_TRUE(store_->Put(txn.get(), key, "v").ok());
        ASSERT_TRUE(txn->Commit().ok());
      }
    });
  }
  for (auto& t : writers) t.join();
  stop.store(true);
  checkpointer.join();
  EXPECT_EQ(store_->size(), size_t{kWriters * kPerWriter});
  // Every acknowledged commit must be recoverable: whatever mix of
  // checkpoint and WAL each key landed in, recovery finds all of them.
  store_.reset();
  env_.SimulateCrash();
  auto recovered = MakeStore();
  EXPECT_EQ(recovered->size(), size_t{kWriters * kPerWriter});
}

}  // namespace
}  // namespace rrq::storage
