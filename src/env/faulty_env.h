#ifndef RRQ_ENV_FAULTY_ENV_H_
#define RRQ_ENV_FAULTY_ENV_H_

#include <atomic>
#include <functional>
#include <memory>
#include <string>

#include "env/env.h"
#include "util/random.h"
#include "util/thread_annotations.h"

namespace rrq::env {

/// Knobs for FaultyEnv. A value of 0 disables that fault class; a
/// value N injects the fault on average once every N operations.
struct FaultConfig {
  uint32_t write_failure_one_in = 0;  ///< Append() returns IOError.
  uint32_t sync_failure_one_in = 0;   ///< Sync() returns IOError.
  uint32_t open_failure_one_in = 0;   ///< New*File() returns IOError.
  uint32_t remove_failure_one_in = 0; ///< RemoveFile() returns IOError.
  uint64_t seed = 42;                 ///< Rng seed for fault decisions.
  /// When set, runs on the syncing thread with the file's path before
  /// each Sync() (tests use it to count forces per file, or to run work
  /// at one chosen sync). It may re-enter the env.
  std::function<void(const std::string& path)> on_sync;
};

/// Env wrapper that injects I/O errors at a configured rate and counts
/// the operations that pass through it. Used by recovery tests to
/// prove that a failed sync/append surfaces as a clean error rather
/// than silent data loss, and by benchmarks to count physical I/O.
///
/// Thread-safe (fault decisions use an internal mutex-free counter +
/// per-call rng draw under a mutex).
class FaultyEnv final : public Env {
 public:
  /// Does not take ownership of `base`, which must outlive this.
  explicit FaultyEnv(Env* base, FaultConfig config = {});

  Status NewSequentialFile(const std::string& fname,
                           std::unique_ptr<SequentialFile>* result) override;
  Status NewRandomAccessFile(
      const std::string& fname,
      std::unique_ptr<RandomAccessFile>* result) override;
  Status NewWritableFile(const std::string& fname,
                         std::unique_ptr<WritableFile>* result) override;
  Status NewAppendableFile(const std::string& fname,
                           std::unique_ptr<WritableFile>* result) override;
  bool FileExists(const std::string& fname) override;
  Status GetChildren(const std::string& dir,
                     std::vector<std::string>* result) override;
  Status RemoveFile(const std::string& fname) override;
  Status CreateDirIfMissing(const std::string& dirname) override;
  Status RemoveDir(const std::string& dirname) override;
  Status GetFileSize(const std::string& fname, uint64_t* size) override;
  Status RenameFile(const std::string& src,
                    const std::string& target) override;

  /// Disables (true) or re-enables (false) all fault injection.
  void SetFaultsSuppressed(bool suppressed) {
    suppressed_.store(suppressed, std::memory_order_relaxed);
  }

  // Operation counters (cumulative since construction).
  uint64_t append_count() const { return appends_.load(std::memory_order_relaxed); }
  uint64_t sync_count() const { return syncs_.load(std::memory_order_relaxed); }
  uint64_t bytes_appended() const { return bytes_.load(std::memory_order_relaxed); }
  uint64_t injected_fault_count() const {
    return faults_.load(std::memory_order_relaxed);
  }

 private:
  class CountingWritableFile;

  bool ShouldFail(uint32_t one_in);

  Env* base_;
  FaultConfig config_;
  std::atomic<bool> suppressed_{false};
  Mutex rng_mu_;
  util::Rng rng_ GUARDED_BY(rng_mu_);
  std::atomic<uint64_t> appends_{0};
  std::atomic<uint64_t> syncs_{0};
  std::atomic<uint64_t> bytes_{0};
  std::atomic<uint64_t> faults_{0};
};

}  // namespace rrq::env

#endif  // RRQ_ENV_FAULTY_ENV_H_
