#include "sync_fs.h"

#include <cstdio>
#include <filesystem>
#include <utility>

namespace perfbench {

namespace persist = dphist::persist;
using dphist::Result;
using dphist::Status;

namespace {

std::string BaseName(const std::string& path) {
  const size_t slash = path.rfind('/');
  return slash == std::string::npos ? path : path.substr(slash + 1);
}

bool StartsWith(const std::string& s, const char* prefix) {
  return s.rfind(prefix, 0) == 0;
}

}  // namespace

/// Forwards to the real file and reports appended byte counts and
/// successful syncs back to the tracking filesystem.
class TrackedFile : public persist::WritableFile {
 public:
  TrackedFile(SyncTrackingFileSystem* fs, std::string path,
              std::unique_ptr<persist::WritableFile> base)
      : fs_(fs), path_(std::move(path)), base_(std::move(base)) {}

  Status Append(std::span<const uint8_t> data) override {
    Status status = base_->Append(data);
    if (status.ok()) fs_->OnAppend(path_, data.size());
    return status;
  }
  Status Sync() override {
    Status status = base_->Sync();
    if (status.ok()) fs_->OnSync(path_);
    return status;
  }
  Status Close() override { return base_->Close(); }

 private:
  SyncTrackingFileSystem* fs_;
  std::string path_;
  std::unique_ptr<persist::WritableFile> base_;
};

SyncTrackingFileSystem::SyncTrackingFileSystem()
    : base_(persist::PosixFileSystem()) {}

Result<SyncTrackingFileSystem::WritablePtr> SyncTrackingFileSystem::Track(
    const std::string& path, Result<WritablePtr> file,
    uint64_t initial_length) {
  if (!file.ok()) return file.status();
  {
    std::lock_guard<std::mutex> lock(mu_);
    FileState& state = files_[path];
    state.length = initial_length;
    if (initial_length < state.synced) state.synced = initial_length;
  }
  return WritablePtr(new TrackedFile(this, path, std::move(file).value()));
}

Result<SyncTrackingFileSystem::WritablePtr> SyncTrackingFileSystem::Create(
    const std::string& path) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    files_[path] = FileState{};
  }
  return Track(path, base_->Create(path), 0);
}

Result<SyncTrackingFileSystem::WritablePtr>
SyncTrackingFileSystem::OpenForAppend(const std::string& path) {
  std::error_code ec;
  const uint64_t existing =
      std::filesystem::exists(path, ec) ? std::filesystem::file_size(path, ec)
                                        : 0;
  return Track(path, base_->OpenForAppend(path), ec ? 0 : existing);
}

Result<std::vector<uint8_t>> SyncTrackingFileSystem::ReadAll(
    const std::string& path) const {
  return base_->ReadAll(path);
}

Status SyncTrackingFileSystem::Rename(const std::string& from,
                                      const std::string& to) {
  Status status = base_->Rename(from, to);
  if (status.ok()) {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = files_.find(from);
    if (it != files_.end()) {
      files_[to] = it->second;
      files_.erase(from);
    } else {
      files_.erase(to);
    }
  }
  return status;
}

Status SyncTrackingFileSystem::Remove(const std::string& path) {
  Status status = base_->Remove(path);
  if (status.ok()) {
    std::lock_guard<std::mutex> lock(mu_);
    files_.erase(path);
  }
  return status;
}

Result<std::vector<std::string>> SyncTrackingFileSystem::List(
    const std::string& dir) const {
  return base_->List(dir);
}

bool SyncTrackingFileSystem::Exists(const std::string& path) const {
  return base_->Exists(path);
}

Status SyncTrackingFileSystem::CreateDir(const std::string& dir) {
  return base_->CreateDir(dir);
}

Status SyncTrackingFileSystem::SyncDir(const std::string& dir) {
  return base_->SyncDir(dir);
}

void SyncTrackingFileSystem::OnAppend(const std::string& path,
                                      uint64_t bytes) {
  std::lock_guard<std::mutex> lock(mu_);
  files_[path].length += bytes;
  const std::string name = BaseName(path);
  if (StartsWith(name, "wal-")) {
    wal_bytes_ += bytes;
  } else if (StartsWith(name, "snapshot-")) {
    snapshot_bytes_ += bytes;
  }
}

void SyncTrackingFileSystem::OnSync(const std::string& path) {
  std::lock_guard<std::mutex> lock(mu_);
  FileState& state = files_[path];
  state.synced = state.length;
  state.ever_synced = true;
}

Result<uint64_t> SyncTrackingFileSystem::BuildCrashImage(
    const std::string& dir, const std::string& image_dir) const {
  std::error_code ec;
  std::filesystem::remove_all(image_dir, ec);
  std::filesystem::create_directories(image_dir, ec);
  if (ec) return Status::Internal("cannot create " + image_dir);
  std::map<std::string, FileState> files;
  {
    std::lock_guard<std::mutex> lock(mu_);
    files = files_;
  }
  uint64_t copied = 0;
  const std::string prefix = dir + "/";
  for (const auto& [path, state] : files) {
    if (!StartsWith(path, prefix.c_str()) || !state.ever_synced) continue;
    Result<std::vector<uint8_t>> bytes = base_->ReadAll(path);
    if (!bytes.ok()) return bytes.status();
    if (bytes->size() < state.synced) {
      return Status::Internal(path + " is shorter than its synced length");
    }
    const std::string out_path = image_dir + "/" + BaseName(path);
    std::FILE* out = std::fopen(out_path.c_str(), "wb");
    if (out == nullptr) return Status::Internal("cannot write " + out_path);
    const size_t wrote = std::fwrite(bytes->data(), 1, state.synced, out);
    const bool closed = std::fclose(out) == 0;
    if (wrote != state.synced || !closed) {
      return Status::Internal("short write to " + out_path);
    }
    ++copied;
  }
  return copied;
}

uint64_t SyncTrackingFileSystem::wal_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return wal_bytes_;
}

uint64_t SyncTrackingFileSystem::snapshot_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return snapshot_bytes_;
}

template <typename Fn>
void TimedSink::Timed(Fn&& fn) {
  const uint64_t checkpoints_before = manager_->counters().checkpoints;
  Stopwatch watch;
  {
    Tracer::Span span(tracer_, "persist", "RecoveryManager sink");
    fn();
  }
  const double seconds = watch.Seconds();
  ++calls_;
  if (manager_->counters().checkpoints != checkpoints_before) {
    checkpoint_seconds_.Add(seconds);
  } else {
    append_seconds_.Add(seconds);
  }
}

void TimedSink::OnStatsInstalled(const std::string& table, size_t column,
                                 const dphist::db::ColumnStats& stats) {
  Timed([&] { manager_->OnStatsInstalled(table, column, stats); });
}

void TimedSink::OnDataVersionBump(const std::string& table,
                                  uint64_t version) {
  Timed([&] { manager_->OnDataVersionBump(table, version); });
}

}  // namespace perfbench
