// A counting, timing Env for the WAL and checkpoint layers.
//
// Delegates every call to Env::Default() and counts what crosses the
// seam: bytes appended, bytes read, and Sync calls, with the duration
// of each Sync.  Passed to the service and to the durable shard
// replicas through DurabilityOptions::env.  While an attached Tracer is
// enabled, each Append and Sync is also recorded as a leaf span
// (env.append, env.sync) under the caller's current span.

#ifndef PERFBENCH_COUNTING_ENV_H_
#define PERFBENCH_COUNTING_ENV_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/storage/env.h"
#include "tracer.h"

namespace perfbench {

class CountingEnv final : public pmi::Env {
 public:
  struct Counts {
    uint64_t bytes_appended = 0;
    uint64_t bytes_read = 0;
    uint64_t syncs = 0;
  };

  /// `tracer` may be null; it must outlive the env.
  explicit CountingEnv(Tracer* tracer = nullptr)
      : base_(pmi::Env::Default()), tracer_(tracer) {}

  Counts counts() const {
    return {appended_.load(), read_.load(), syncs_.load()};
  }
  /// Durations of every Sync so far, in ms, in completion order.
  std::vector<double> sync_ms() const {
    std::lock_guard<std::mutex> lock(mu_);
    return sync_ms_;
  }

  pmi::StatusOr<std::unique_ptr<pmi::WritableFile>> NewWritableFile(
      const std::string& path) override;
  pmi::Status CreateExclusive(const std::string& path,
                              std::string_view contents) override;
  pmi::StatusOr<std::unique_ptr<pmi::FileLock>> LockFile(
      const std::string& path) override {
    return base_->LockFile(path);
  }
  pmi::StatusOr<std::unique_ptr<pmi::RandomAccessFile>> NewRandomAccessFile(
      const std::string& path) override;
  pmi::StatusOr<uint64_t> FileSize(const std::string& path) override {
    return base_->FileSize(path);
  }
  bool FileExists(const std::string& path) override {
    return base_->FileExists(path);
  }
  pmi::StatusOr<std::vector<std::string>> ListDir(
      const std::string& dir) override {
    return base_->ListDir(dir);
  }
  pmi::Status CreateDir(const std::string& dir) override {
    return base_->CreateDir(dir);
  }
  pmi::Status RemoveFile(const std::string& path) override {
    return base_->RemoveFile(path);
  }
  pmi::Status RenameFile(const std::string& from,
                         const std::string& to) override {
    return base_->RenameFile(from, to);
  }
  pmi::Status SyncDir(const std::string& dir) override;
  pmi::Status TruncateFile(const std::string& path, uint64_t size) override {
    return base_->TruncateFile(path, size);
  }

 private:
  friend class CountingWritableFile;
  friend class CountingReadFile;

  bool Tracing() const { return tracer_ != nullptr && tracer_->enabled(); }

  /// Counts one Sync-like barrier that took `ms`.
  void NoteSync(double ms) {
    syncs_.fetch_add(1);
    std::lock_guard<std::mutex> lock(mu_);
    sync_ms_.push_back(ms);
  }

  pmi::Env* base_;
  Tracer* tracer_;
  std::atomic<uint64_t> appended_{0};
  std::atomic<uint64_t> read_{0};
  std::atomic<uint64_t> syncs_{0};
  mutable std::mutex mu_;
  std::vector<double> sync_ms_;
};

}  // namespace perfbench

#endif  // PERFBENCH_COUNTING_ENV_H_
