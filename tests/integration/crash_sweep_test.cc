// Deterministic crash-point sweep (tier-1): every mutating I/O
// operation of the canonical workload becomes, in turn, a power
// failure; after each, a fresh incarnation recovers and the paper's §3
// guarantees plus the on-disk file-set invariant must hold. The store
// is hosted on the queue repository, as in rrqd, except in the one
// standalone mode.
//
// By default (CI smoke) the clean-crash sweeps are exhaustive and the
// torn-write sweeps run a strided subset. Set RRQ_CRASH_SWEEP_FULL=1
// to sweep every index in every mode (scripts/tsan.sh does).
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

#include "testing/crash_sweep.h"

namespace rrq::testing {
namespace {

bool FullSweep() {
  const char* flag = std::getenv("RRQ_CRASH_SWEEP_FULL");
  return flag != nullptr && flag[0] == '1';
}

void ExpectClean(const SweepConfig& config) {
  SweepResult result = RunCrashSweep(config);
  EXPECT_GT(result.total_ops, 100u)
      << "workload shrank: the sweep no longer covers the interesting paths";
  std::string report;
  for (const std::string& violation : result.violations) {
    report += "\n  " + violation;
  }
  EXPECT_TRUE(result.violations.empty())
      << result.violations.size() << " violation(s) across "
      << result.points_run << " crash points (N=" << result.total_ops
      << "):" << report;
  ::testing::Test::RecordProperty("crash_points_total",
                                  static_cast<int>(result.total_ops));
  ::testing::Test::RecordProperty("crash_points_run",
                                  static_cast<int>(result.points_run));
}

TEST(CrashSweepTest, GroupCommitEveryCrashPointRecovers) {
  SweepConfig config;
  config.group_commit = true;
  ExpectClean(config);
}

// The store standalone, with its own WAL: every server cycle is a
// two-participant 2PC through the decision log, which keeps that
// protocol under the sweep.
TEST(CrashSweepTest, StandaloneStoreTwoPhaseEveryCrashPointRecovers) {
  SweepConfig config;
  config.group_commit = true;
  config.standalone_store = true;
  ExpectClean(config);
}

TEST(CrashSweepTest, PerOpSyncEveryCrashPointRecovers) {
  SweepConfig config;
  config.group_commit = false;
  ExpectClean(config);
}

TEST(CrashSweepTest, TornWritesGroupCommit) {
  SweepConfig config;
  config.group_commit = true;
  config.torn_writes = true;
  config.stride = FullSweep() ? 1 : 3;
  ExpectClean(config);
}

TEST(CrashSweepTest, TornWritesPerOpSync) {
  SweepConfig config;
  config.group_commit = false;
  config.torn_writes = true;
  config.stride = FullSweep() ? 1 : 3;
  ExpectClean(config);
}

// Sharded repository (4 WAL streams, per-shard checkpoint slices):
// crash-before-op. The request and reply queues sit on different
// shards (the harness refuses otherwise), so every server transaction
// is a cross-shard commit carrying the hosted store's writes. Recovery
// must apply every part of a surviving decision and none of a lost
// one, whichever markers survived, replay the store's stamped writes
// across shards in any order, and the GC must retire per-shard orphan
// generations — CheckGenerationFileSet asserts no
// WAL-<g>-<s>/CHECKPOINT-<g>-<s> stragglers survive.
TEST(CrashSweepTest, ShardedEveryCrashPointRecovers) {
  SweepConfig config;
  config.group_commit = true;
  config.shards = 4;
  config.stride = FullSweep() ? 1 : 3;
  ExpectClean(config);
}

TEST(CrashSweepTest, ShardedTornWrites) {
  SweepConfig config;
  config.group_commit = true;
  config.torn_writes = true;
  config.shards = 4;
  config.stride = FullSweep() ? 1 : 3;
  ExpectClean(config);
}

}  // namespace
}  // namespace rrq::testing
