// The full shipping pipeline, in-process but over real TCP: a primary
// repository whose sink feeds a ReplicationLog, a ReplicationSender
// draining it to a TcpServer-hosted ReplicaApplier, and a durable
// backup repository behind it. Covers the fresh-seed snapshot path,
// tailing, backup restart with watermark resume (no double apply),
// promotion fencing the dead primary's stream, and the applier's gap /
// wrong-stream rejections.
#include <gtest/gtest.h>

#include <chrono>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "env/mem_env.h"
#include "net/tcp_transport.h"
#include "queue/queue_repository.h"
#include "repl/repl_wire.h"
#include "repl/replica_applier.h"
#include "repl/replication_log.h"
#include "repl/replication_sender.h"

namespace rrq::repl {
namespace {

// Polls `pred` until true or ~5s; returns its final value.
bool Eventually(const std::function<bool()>& pred) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (std::chrono::steady_clock::now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return pred();
}

// One backup node: durable repository + applier + replication server.
struct BackupNode {
  explicit BackupNode(env::MemEnv* env) : env_(env) {
    queue::RepositoryOptions repo_options;
    repo_options.env = env_;
    repo_options.dir = "/backup/qm";
    repo = std::make_unique<queue::QueueRepository>("backup", repo_options);
    EXPECT_TRUE(repo->Open().ok());
    ReplicaApplierOptions applier_options;
    applier_options.env = env_;
    applier_options.dir = "/backup";
    applier_options.repo = repo.get();
    applier = std::make_unique<ReplicaApplier>(applier_options);
    EXPECT_TRUE(applier->Open().ok());
    server = std::make_unique<net::TcpServer>(
        net::TcpServerOptions{},
        [this](const Slice& request, std::string* reply) {
          return applier->Handle(request, reply);
        });
    EXPECT_TRUE(server->Start().ok());
  }
  ~BackupNode() { server->Stop(); }

  env::MemEnv* env_;
  std::unique_ptr<queue::QueueRepository> repo;
  std::unique_ptr<ReplicaApplier> applier;
  std::unique_ptr<net::TcpServer> server;
};

ReplicationSenderOptions SenderTo(uint16_t port, uint64_t stream_id) {
  ReplicationSenderOptions options;
  options.port = port;
  options.stream_id = stream_id;
  options.backoff_initial_micros = 1'000;
  options.backoff_max_micros = 20'000;
  options.channel.max_connect_attempts = 3;
  options.channel.backoff_initial_micros = 1'000;
  return options;
}

TEST(ReplPipelineTest, FreshBackupIsSnapshotSeededThenTailed) {
  ReplicationLog log;
  queue::RepositoryOptions primary_options;
  primary_options.replication_sink = [&log](const Slice& record) {
    log.Append(record.ToString());
    return Status::OK();
  };
  queue::QueueRepository primary("primary", primary_options);
  ASSERT_TRUE(primary.Open().ok());
  // State that exists BEFORE the backup: must arrive via snapshot.
  ASSERT_TRUE(primary.CreateQueue("q").ok());
  ASSERT_TRUE(primary.Enqueue(nullptr, "q", "pre-1").ok());
  ASSERT_TRUE(primary.Enqueue(nullptr, "q", "pre-2").ok());

  env::MemEnv backup_env;
  BackupNode backup(&backup_env);
  ReplicationSender sender(SenderTo(backup.server->port(), 0xfeed), &log,
                           &primary);
  ASSERT_TRUE(sender.Start().ok());

  // Depth becomes visible when the last snapshot chunk applies; the
  // stream binding and barrier watermark install with the trailing
  // kReplSnapshotEnd, so wait for the whole seed to land.
  ASSERT_TRUE(Eventually([&] {
    return *backup.repo->Depth("q") == 2 &&
           backup.repo->applied_repl_seq() == 3;
  }));
  EXPECT_EQ(backup.applier->stream_id(), 0xfeedull);
  // The seed installed the barrier watermark (3 records shipped to
  // the log before the snapshot: create + 2 enqueues).
  EXPECT_EQ(backup.repo->applied_repl_seq(), 3u);

  // Post-seed commits arrive by tailing, not re-seeding.
  ASSERT_TRUE(primary.Enqueue(nullptr, "q", "post-1").ok());
  ASSERT_TRUE(primary.Enqueue(nullptr, "q", "post-2").ok());
  ASSERT_TRUE(Eventually([&] { return *backup.repo->Depth("q") == 4; }));
  EXPECT_EQ(backup.repo->applied_repl_seq(), 5u);
  EXPECT_TRUE(Eventually([&] { return log.acked() == 5; }));
  EXPECT_EQ(sender.state().state, "shipping");
  EXPECT_GE(sender.state().snapshot_records_sent, 1u);

  // Contents and order made it intact.
  for (const char* want : {"pre-1", "pre-2", "post-1", "post-2"}) {
    auto got = backup.repo->Dequeue(nullptr, "q");
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(got->contents, want);
  }
  sender.Stop();
}

TEST(ReplPipelineTest, RestartedBackupResumesWithoutDoubleApply) {
  ReplicationLog log;
  queue::RepositoryOptions primary_options;
  primary_options.replication_sink = [&log](const Slice& record) {
    log.Append(record.ToString());
    return Status::OK();
  };
  queue::QueueRepository primary("primary", primary_options);
  ASSERT_TRUE(primary.Open().ok());
  ASSERT_TRUE(primary.CreateQueue("q").ok());

  env::MemEnv backup_env;
  uint64_t watermark_before = 0;
  {
    BackupNode backup(&backup_env);
    ReplicationSender sender(SenderTo(backup.server->port(), 0xabba), &log,
                             &primary);
    ASSERT_TRUE(sender.Start().ok());
    for (int i = 0; i < 5; ++i) {
      ASSERT_TRUE(primary.Enqueue(nullptr, "q", std::to_string(i)).ok());
    }
    // Wait for the watermark too: a seed applies its elements before
    // SnapshotEnd commits the watermark, so depth alone can read 5
    // while the watermark still reads 0.
    ASSERT_TRUE(Eventually([&] {
      return *backup.repo->Depth("q") == 5 &&
             backup.repo->applied_repl_seq() == log.head_seq();
    }));
    watermark_before = backup.repo->applied_repl_seq();
    sender.Stop();
  }

  // The backup node dies and recovers from its own WAL: same stream,
  // watermark intact, so the sender resumes — and the re-shipped
  // overlap (everything still in the log) dedups instead of
  // double-applying.
  backup_env.SimulateCrash();
  BackupNode reborn(&backup_env);
  EXPECT_EQ(reborn.repo->applied_repl_seq(), watermark_before);
  EXPECT_EQ(reborn.applier->stream_id(), 0xabbaull);

  ReplicationSender sender(SenderTo(reborn.server->port(), 0xabba), &log,
                           &primary);
  ASSERT_TRUE(sender.Start().ok());
  ASSERT_TRUE(primary.Enqueue(nullptr, "q", "after-restart").ok());
  ASSERT_TRUE(Eventually([&] { return *reborn.repo->Depth("q") == 6; }));
  EXPECT_EQ(*reborn.repo->Depth("q"), 6u);  // Exactly 6 — no dupes.
  EXPECT_EQ(sender.state().state, "shipping");
  sender.Stop();
}

TEST(ReplPipelineTest, PromotionFencesTheOldStream) {
  ReplicationLog log;
  queue::RepositoryOptions primary_options;
  primary_options.replication_sink = [&log](const Slice& record) {
    log.Append(record.ToString());
    return Status::OK();
  };
  queue::QueueRepository primary("primary", primary_options);
  ASSERT_TRUE(primary.Open().ok());
  ASSERT_TRUE(primary.CreateQueue("q").ok());

  env::MemEnv backup_env;
  BackupNode backup(&backup_env);
  ReplicationSender sender(SenderTo(backup.server->port(), 0xcafe), &log,
                           &primary);
  ASSERT_TRUE(sender.Start().ok());
  ASSERT_TRUE(primary.Enqueue(nullptr, "q", "x").ok());
  ASSERT_TRUE(Eventually([&] { return *backup.repo->Depth("q") == 1; }));

  const uint64_t cut = backup.applier->Promote();
  EXPECT_EQ(cut, backup.repo->applied_repl_seq());
  EXPECT_TRUE(backup.applier->promoted());

  // The partitioned ex-primary keeps committing; none of it may reach
  // the promoted backup.
  ASSERT_TRUE(primary.Enqueue(nullptr, "q", "too-late").ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_EQ(*backup.repo->Depth("q"), 1u);
  // A direct ship states the refusal explicitly.
  std::string request, reply;
  EncodeShip(0xcafe, cut + 1, {"r"}, &request);
  ASSERT_TRUE(backup.applier->Handle(Slice(request), &reply).ok());
  uint64_t watermark = 0;
  Status s = DecodeReplReply(Slice(reply), &watermark);
  EXPECT_TRUE(s.IsFailedPrecondition()) << s.ToString();
  EXPECT_EQ(watermark, cut);
  // The promoted node serves writes of its own now.
  EXPECT_TRUE(backup.repo->Enqueue(nullptr, "q", "new-era").ok());
  sender.Stop();
}

TEST(ReplPipelineTest, GapAndWrongStreamRejected) {
  env::MemEnv backup_env;
  BackupNode backup(&backup_env);
  auto call = [&](const std::string& request, uint64_t* watermark) {
    std::string reply;
    EXPECT_TRUE(backup.applier->Handle(Slice(request), &reply).ok());
    return DecodeReplReply(Slice(reply), watermark);
  };

  // Seed via the snapshot protocol directly (empty snapshot, barrier 4).
  std::string request;
  uint64_t watermark = 0;
  EncodeHello(0x1111, &request);
  ASSERT_TRUE(call(request, &watermark).ok());
  EXPECT_EQ(watermark, 0u);
  request.clear();
  EncodeSnapshotBegin(0x1111, 4, &request);
  ASSERT_TRUE(call(request, &watermark).ok());
  request.clear();
  EncodeSnapshotEnd(0x1111, &request);
  ASSERT_TRUE(call(request, &watermark).ok());
  EXPECT_EQ(watermark, 4u);

  // A ship that skips ahead is rejected with the watermark to rewind
  // to; nothing applies.
  std::vector<std::string> shipped;
  {
    queue::RepositoryOptions opts;
    opts.replication_sink = [&shipped](const Slice& record) {
      shipped.push_back(record.ToString());
      return Status::OK();
    };
    queue::QueueRepository head("head", opts);
    ASSERT_TRUE(head.Open().ok());
    ASSERT_TRUE(head.CreateQueue("q").ok());
  }
  request.clear();
  EncodeShip(0x1111, 7, shipped, &request);
  Status gap = call(request, &watermark);
  EXPECT_TRUE(gap.IsFailedPrecondition()) << gap.ToString();
  EXPECT_EQ(watermark, 4u);
  EXPECT_EQ(backup.applier->gaps_rejected(), 1u);
  EXPECT_FALSE(backup.repo->QueueExists("q"));

  // The next contiguous sequence applies fine.
  request.clear();
  EncodeShip(0x1111, 5, shipped, &request);
  ASSERT_TRUE(call(request, &watermark).ok());
  EXPECT_EQ(watermark, 5u);
  EXPECT_TRUE(backup.repo->QueueExists("q"));

  // A hello from any other stream is refused: reseed required.
  request.clear();
  EncodeHello(0x2222, &request);
  Status other = call(request, &watermark);
  EXPECT_TRUE(other.IsFailedPrecondition()) << other.ToString();

  // So is adopting a fresh stream into a non-empty repository.
  env::MemEnv dirty_env;
  BackupNode dirty(&dirty_env);
  ASSERT_TRUE(dirty.repo->CreateQueue("leftover").ok());
  request.clear();
  EncodeHello(0x3333, &request);
  std::string reply;
  ASSERT_TRUE(dirty.applier->Handle(Slice(request), &reply).ok());
  Status unseeded = DecodeReplReply(Slice(reply), &watermark);
  EXPECT_TRUE(unseeded.IsFailedPrecondition()) << unseeded.ToString();
}

TEST(ReplPipelineTest, EmptyPrimarySeedHasNonzeroWatermarkAndResumes) {
  // A primary that never committed anything still seeds at a nonzero
  // barrier (the sender pads its empty log with one no-op record). A
  // zero-barrier seed would leave the backup's watermark at 0 —
  // indistinguishable from "fresh" on the next hello, so every
  // reconnect would retry a seed the bound stream then refuses, and
  // replication would wedge.
  ReplicationLog log;
  queue::RepositoryOptions primary_options;
  primary_options.replication_sink = [&log](const Slice& record) {
    log.Append(record.ToString());
    return Status::OK();
  };
  queue::QueueRepository primary("primary", primary_options);
  ASSERT_TRUE(primary.Open().ok());

  env::MemEnv backup_env;
  BackupNode backup(&backup_env);
  {
    ReplicationSender sender(SenderTo(backup.server->port(), 0xbead), &log,
                             &primary);
    ASSERT_TRUE(sender.Start().ok());
    ASSERT_TRUE(
        Eventually([&] { return sender.state().state == "shipping"; }));
    sender.Stop();
  }
  EXPECT_EQ(backup.applier->stream_id(), 0xbeadull);
  EXPECT_GE(backup.repo->applied_repl_seq(), 1u);  // Never 0 once seeded.

  // A reconnecting sender resumes the bound stream instead of wedging
  // on a refused re-seed, and new commits tail through.
  ReplicationSender again(SenderTo(backup.server->port(), 0xbead), &log,
                          &primary);
  ASSERT_TRUE(again.Start().ok());
  ASSERT_TRUE(Eventually([&] { return again.state().state == "shipping"; }));
  ASSERT_TRUE(primary.CreateQueue("q").ok());
  ASSERT_TRUE(primary.Enqueue(nullptr, "q", "tailed").ok());
  ASSERT_TRUE(Eventually([&] {
    auto depth = backup.repo->Depth("q");
    return depth.ok() && *depth == 1;
  }));
  again.Stop();
}

TEST(ReplPipelineTest, ZeroBarrierSeedRejected) {
  // Belt and braces on the backup side: a snapshot that announces
  // barrier 0 is refused outright (it would commit watermark 0 and
  // recreate the ambiguity above).
  env::MemEnv backup_env;
  BackupNode backup(&backup_env);
  std::string request, reply;
  uint64_t watermark = 0;
  EncodeSnapshotBegin(0x4444, 0, &request);
  ASSERT_TRUE(backup.applier->Handle(Slice(request), &reply).ok());
  Status s = DecodeReplReply(Slice(reply), &watermark);
  EXPECT_TRUE(s.IsInvalidArgument()) << s.ToString();
}

TEST(ReplPipelineTest, SeedingReleasesParkedAckWaiters) {
  // An ack-mode committer parked in WaitAcked holds its shard's
  // replication ticket, and CaptureReplicaSnapshot's delivery drain
  // waits on that ticket while the sender — the only thread that can
  // advance acks — is the one doing the capture. BeginSnapshot breaks
  // the cycle: the parked waiter releases (async-degraded) and the
  // seed proceeds instead of stalling a full ack timeout per commit.
  ReplicationLog log;
  queue::RepositoryOptions primary_options;
  primary_options.replication_sink = [&log](const Slice& record) {
    const uint64_t seq = log.Append(record.ToString());
    return log.WaitAcked(seq, 20'000'000);
  };
  queue::QueueRepository primary("primary", primary_options);
  ASSERT_TRUE(primary.Open().ok());

  // Park a committer before any sender exists.
  std::thread committer(
      [&primary] { EXPECT_TRUE(primary.CreateQueue("q").ok()); });
  ASSERT_TRUE(Eventually([&] { return log.head_seq() == 1; }));

  env::MemEnv backup_env;
  BackupNode backup(&backup_env);
  ReplicationSender sender(SenderTo(backup.server->port(), 0xfade), &log,
                           &primary);
  ASSERT_TRUE(sender.Start().ok());
  // Well under the 20s ack timeout: only the release path gets here.
  ASSERT_TRUE(Eventually([&] { return sender.state().state == "shipping"; }));
  committer.join();
  EXPECT_TRUE(Eventually([&] { return backup.repo->QueueExists("q"); }));
  sender.Stop();
}

TEST(ReplPipelineTest, AckModeSinkReleasesOnBackupAck) {
  // The semi-synchronous gate end to end: a committer blocks in the
  // sink until the backup acked its record.
  ReplicationLog log;
  queue::RepositoryOptions primary_options;
  primary_options.replication_sink = [&log](const Slice& record) {
    const uint64_t seq = log.Append(record.ToString());
    return log.WaitAcked(seq, 5'000'000);
  };
  queue::QueueRepository primary("primary", primary_options);
  ASSERT_TRUE(primary.Open().ok());

  env::MemEnv backup_env;
  BackupNode backup(&backup_env);
  ReplicationSender sender(SenderTo(backup.server->port(), 0xd00d), &log,
                           &primary);
  ASSERT_TRUE(sender.Start().ok());
  // Let the initial (empty) seed finish so commits don't park their
  // ack waits behind the snapshot barrier.
  ASSERT_TRUE(Eventually([&] { return sender.state().state == "shipping"; }));
  ASSERT_TRUE(primary.CreateQueue("q").ok());
  ASSERT_TRUE(primary.Enqueue(nullptr, "q", "acked").ok());
  // The OK from Enqueue *is* the proof: the sink only returned after
  // the ack. The backup must already be caught up.
  EXPECT_EQ(*backup.repo->Depth("q"), 1u);
  sender.Stop();
}

}  // namespace
}  // namespace rrq::repl
