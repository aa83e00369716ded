#include "counting_env.h"

#include <chrono>
#include <optional>

namespace perfbench {
namespace {

double MsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

class CountingWritableFile final : public pmi::WritableFile {
 public:
  CountingWritableFile(CountingEnv* env, std::unique_ptr<pmi::WritableFile> f)
      : env_(env), inner_(std::move(f)) {}

  pmi::Status Append(std::string_view data) override {
    std::optional<ScopedSpan> span;
    if (env_->Tracing()) span.emplace(env_->tracer_, "env.append", true);
    env_->appended_.fetch_add(data.size());
    return inner_->Append(data);
  }

  pmi::Status Sync() override {
    std::optional<ScopedSpan> span;
    if (env_->Tracing()) span.emplace(env_->tracer_, "env.sync", true);
    const auto t0 = std::chrono::steady_clock::now();
    pmi::Status s = inner_->Sync();
    env_->NoteSync(MsSince(t0));
    return s;
  }

  pmi::Status Close() override { return inner_->Close(); }

 private:
  CountingEnv* env_;
  std::unique_ptr<pmi::WritableFile> inner_;
};

class CountingReadFile final : public pmi::RandomAccessFile {
 public:
  CountingReadFile(CountingEnv* env, std::unique_ptr<pmi::RandomAccessFile> f)
      : env_(env), inner_(std::move(f)) {}

  pmi::Status Read(uint64_t offset, size_t n, std::string* out) const override {
    pmi::Status s = inner_->Read(offset, n, out);
    env_->read_.fetch_add(out->size());
    return s;
  }

 private:
  CountingEnv* env_;
  std::unique_ptr<pmi::RandomAccessFile> inner_;
};

pmi::StatusOr<std::unique_ptr<pmi::WritableFile>> CountingEnv::NewWritableFile(
    const std::string& path) {
  pmi::StatusOr<std::unique_ptr<pmi::WritableFile>> f =
      base_->NewWritableFile(path);
  if (!f.ok()) return f.status();
  return std::unique_ptr<pmi::WritableFile>(
      new CountingWritableFile(this, std::move(*f)));
}

pmi::Status CountingEnv::CreateExclusive(const std::string& path,
                                         std::string_view contents) {
  const auto t0 = std::chrono::steady_clock::now();
  pmi::Status s = base_->CreateExclusive(path, contents);
  appended_.fetch_add(contents.size());
  NoteSync(MsSince(t0));
  return s;
}

pmi::StatusOr<std::unique_ptr<pmi::RandomAccessFile>>
CountingEnv::NewRandomAccessFile(const std::string& path) {
  pmi::StatusOr<std::unique_ptr<pmi::RandomAccessFile>> f =
      base_->NewRandomAccessFile(path);
  if (!f.ok()) return f.status();
  return std::unique_ptr<pmi::RandomAccessFile>(
      new CountingReadFile(this, std::move(*f)));
}

pmi::Status CountingEnv::SyncDir(const std::string& dir) {
  std::optional<ScopedSpan> span;
  if (Tracing()) span.emplace(tracer_, "env.sync", true);
  const auto t0 = std::chrono::steady_clock::now();
  pmi::Status s = base_->SyncDir(dir);
  NoteSync(MsSince(t0));
  return s;
}

}  // namespace perfbench
