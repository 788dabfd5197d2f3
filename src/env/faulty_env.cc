#include "env/faulty_env.h"

namespace rrq::env {

class FaultyEnv::CountingWritableFile final : public WritableFile {
 public:
  CountingWritableFile(std::unique_ptr<WritableFile> base, std::string path,
                       FaultyEnv* env)
      : base_(std::move(base)), path_(std::move(path)), env_(env) {}

  Status Append(const Slice& data) override {
    env_->appends_.fetch_add(1, std::memory_order_relaxed);
    env_->bytes_.fetch_add(data.size(), std::memory_order_relaxed);
    if (env_->ShouldFail(env_->config_.write_failure_one_in)) {
      return Status::IOError("injected append failure");
    }
    return base_->Append(data);
  }

  Status Flush() override { return base_->Flush(); }

  Status Sync() override {
    env_->syncs_.fetch_add(1, std::memory_order_relaxed);
    if (env_->config_.on_sync) env_->config_.on_sync(path_);
    if (env_->ShouldFail(env_->config_.sync_failure_one_in)) {
      return Status::IOError("injected sync failure");
    }
    return base_->Sync();
  }

  Status Close() override { return base_->Close(); }

 private:
  std::unique_ptr<WritableFile> base_;
  const std::string path_;
  FaultyEnv* env_;
};

FaultyEnv::FaultyEnv(Env* base, FaultConfig config)
    : base_(base), config_(config), rng_(config.seed) {}

bool FaultyEnv::ShouldFail(uint32_t one_in) {
  if (one_in == 0 || suppressed_.load(std::memory_order_relaxed)) return false;
  bool fail;
  {
    MutexLock guard(rng_mu_);
    fail = rng_.Uniform(one_in) == 0;
  }
  if (fail) faults_.fetch_add(1, std::memory_order_relaxed);
  return fail;
}

Status FaultyEnv::NewSequentialFile(const std::string& fname,
                                    std::unique_ptr<SequentialFile>* result) {
  if (ShouldFail(config_.open_failure_one_in)) {
    return Status::IOError("injected open failure");
  }
  return base_->NewSequentialFile(fname, result);
}

Status FaultyEnv::NewRandomAccessFile(
    const std::string& fname, std::unique_ptr<RandomAccessFile>* result) {
  if (ShouldFail(config_.open_failure_one_in)) {
    return Status::IOError("injected open failure");
  }
  return base_->NewRandomAccessFile(fname, result);
}

Status FaultyEnv::NewWritableFile(const std::string& fname,
                                  std::unique_ptr<WritableFile>* result) {
  if (ShouldFail(config_.open_failure_one_in)) {
    return Status::IOError("injected open failure");
  }
  std::unique_ptr<WritableFile> file;
  RRQ_RETURN_IF_ERROR(base_->NewWritableFile(fname, &file));
  *result = std::make_unique<CountingWritableFile>(std::move(file), fname,
                                                  this);
  return Status::OK();
}

Status FaultyEnv::NewAppendableFile(const std::string& fname,
                                    std::unique_ptr<WritableFile>* result) {
  if (ShouldFail(config_.open_failure_one_in)) {
    return Status::IOError("injected open failure");
  }
  std::unique_ptr<WritableFile> file;
  RRQ_RETURN_IF_ERROR(base_->NewAppendableFile(fname, &file));
  *result = std::make_unique<CountingWritableFile>(std::move(file), fname,
                                                  this);
  return Status::OK();
}

bool FaultyEnv::FileExists(const std::string& fname) {
  return base_->FileExists(fname);
}

Status FaultyEnv::GetChildren(const std::string& dir,
                              std::vector<std::string>* result) {
  return base_->GetChildren(dir, result);
}

Status FaultyEnv::RemoveFile(const std::string& fname) {
  if (ShouldFail(config_.remove_failure_one_in)) {
    return Status::IOError("injected remove failure");
  }
  return base_->RemoveFile(fname);
}

Status FaultyEnv::CreateDirIfMissing(const std::string& dirname) {
  return base_->CreateDirIfMissing(dirname);
}

Status FaultyEnv::RemoveDir(const std::string& dirname) {
  return base_->RemoveDir(dirname);
}

Status FaultyEnv::GetFileSize(const std::string& fname, uint64_t* size) {
  return base_->GetFileSize(fname, size);
}

Status FaultyEnv::RenameFile(const std::string& src,
                             const std::string& target) {
  return base_->RenameFile(src, target);
}

}  // namespace rrq::env
