// Crash-consistency sweep over the backup applier's mutation points:
// every I/O operation a sequence of ApplyReplicatedRecord(record, seq)
// calls — or of ApplyReplicatedBatch calls, one commit per shipped
// batch, as the applier makes them — performs becomes, in turn, a
// simulated power failure. The
// recovered backup reports its watermark, applying resumes from there
// (re-shipping everything — dedup must absorb the overlap), and the
// final state must be byte-identical to an uncrashed run. This is the
// property the whole failover design rests on: a backup that crashes
// mid-apply and resumes never diverges from the primary's history.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "env/crash_point_env.h"
#include "env/mem_env.h"
#include "queue/queue_repository.h"
#include "util/random.h"

namespace rrq::repl {
namespace {

using queue::QueueRepository;
using queue::RepositoryOptions;

// A canonical record stream with some of everything the applier can
// mutate: queue creation, tagged enqueues from a stable registrant,
// destructive dequeues, a stop, and a trigger arm.
std::vector<std::string> CanonicalRecords() {
  std::vector<std::string> shipped;
  RepositoryOptions options;
  options.replication_sink = [&shipped](const Slice& record) {
    shipped.push_back(record.ToString());
    return Status::OK();
  };
  QueueRepository head("sweep-head", options);
  EXPECT_TRUE(head.Open().ok());
  EXPECT_TRUE(head.CreateQueue("work").ok());
  EXPECT_TRUE(head.CreateQueue("side").ok());
  EXPECT_TRUE(head.Register("work", "clerk-0", /*stable=*/true).ok());
  for (int i = 0; i < 4; ++i) {
    EXPECT_TRUE(head.Enqueue(nullptr, "work", "w" + std::to_string(i),
                             static_cast<uint32_t>(i % 2), "clerk-0",
                             "rid#" + std::to_string(i))
                    .ok());
  }
  EXPECT_TRUE(head.Dequeue(nullptr, "work").ok());
  EXPECT_TRUE(head.Enqueue(nullptr, "side", "s0").ok());
  EXPECT_TRUE(head.StopQueue("side").ok());
  queue::TriggerSpec trigger;
  trigger.watched_queue = "work";
  trigger.remaining = 50;
  trigger.target_queue = "side";
  trigger.contents = "join";
  EXPECT_TRUE(head.SetTrigger(trigger).ok());
  return shipped;
}

// Applies every record seq-tracked, one call per record (batch 0) or
// in shipped batches of `batch`; stops early once the env has crashed.
// Errors during the armed window are expected.
void ApplyAll(QueueRepository* repo, const std::vector<std::string>& records,
              env::CrashPointEnv* env, size_t batch) {
  const size_t step = batch == 0 ? 1 : batch;
  for (size_t i = 0; i < records.size(); i += step) {
    Status s;
    if (batch == 0) {
      s = repo->ApplyReplicatedRecord(Slice(records[i]), i + 1);
    } else {
      const size_t end = std::min(records.size(), i + batch);
      s = repo->ApplyReplicatedBatch(
          std::vector<std::string>(records.begin() + i, records.begin() + end),
          i + 1);
    }
    if (env != nullptr && env->crashed()) return;
    ASSERT_TRUE(s.ok()) << "record " << i << ": " << s.ToString();
  }
}

// Deterministic fingerprint: the snapshot record stream plus the
// applied watermark. Queue maps are ordered and each queue has at
// most one registrant, so equal states produce equal bytes.
std::string Fingerprint(QueueRepository* repo) {
  std::vector<std::string> records;
  EXPECT_TRUE(repo->CaptureReplicaSnapshot(nullptr, &records).ok());
  std::string fp = "wm=" + std::to_string(repo->applied_repl_seq());
  for (const std::string& r : records) {
    fp += "|";
    fp += r;
  }
  return fp;
}

RepositoryOptions BackupOptions(env::Env* env) {
  RepositoryOptions options;
  options.env = env;
  options.dir = "/backup";
  options.shards = 2;
  return options;
}

void SweepEveryCrashPoint(size_t batch) {
  const std::vector<std::string> records = CanonicalRecords();
  ASSERT_GE(records.size(), 8u);

  // Uncrashed baseline.
  std::string want;
  uint64_t total_ops = 0;
  {
    env::MemEnv base;
    env::CrashPointEnv env(&base);
    QueueRepository backup("sweep-backup", BackupOptions(&env));
    ASSERT_TRUE(backup.Open().ok());
    ApplyAll(&backup, records, nullptr, batch);
    EXPECT_EQ(backup.applied_repl_seq(), records.size());
    want = Fingerprint(&backup);
    total_ops = env.mutating_op_count();
  }
  ASSERT_GT(total_ops, 0u);

  util::Rng torn_rng(0x5eed);
  for (uint64_t k = 1; k <= total_ops; ++k) {
    SCOPED_TRACE("crash point " + std::to_string(k));
    env::MemEnv base;
    env::CrashPointEnv env(&base);
    {
      QueueRepository backup("sweep-backup", BackupOptions(&env));
      ASSERT_TRUE(backup.Open().ok());
      env.ResetCounter();
      env.ArmCrash(k, &torn_rng);
      ApplyAll(&backup, records, &env, batch);
      env.Disarm();
    }
    base.SimulateCrash();

    // Next incarnation: recover, read the watermark, re-apply the
    // whole stream (a sender that lost its ack re-ships; dedup takes
    // care of the prefix).
    QueueRepository recovered("sweep-backup", BackupOptions(&env));
    ASSERT_TRUE(recovered.Open().ok());
    ASSERT_LE(recovered.applied_repl_seq(), records.size());
    ApplyAll(&recovered, records, nullptr, batch);
    EXPECT_EQ(recovered.applied_repl_seq(), records.size());
    EXPECT_EQ(Fingerprint(&recovered), want);
  }
}

TEST(ApplierCrashSweepTest, EveryCrashPointRecoversAndConverges) {
  SweepEveryCrashPoint(/*batch=*/0);
}

// Batches of three over two shards: each batch is one cross-shard
// commit with one watermark advance, so a crash keeps a whole batch
// or none of it, and the re-shipped stream still converges.
TEST(ApplierCrashSweepTest, BatchedApplyRecoversAndConverges) {
  SweepEveryCrashPoint(/*batch=*/3);
}

}  // namespace
}  // namespace rrq::repl
