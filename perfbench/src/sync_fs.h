#ifndef PERFBENCH_SYNC_FS_H_
#define PERFBENCH_SYNC_FS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "db/stats.h"
#include "persist/io.h"
#include "persist/recovery.h"
#include "stats.h"
#include "trace.h"

namespace perfbench {

/// A persist::FileSystem that forwards to the POSIX one and records, for
/// every file, how many bytes it held at its last Sync. That is all a
/// crash is guaranteed to leave behind, so BuildCrashImage copies exactly
/// those bytes (files never synced are left out): recovering from the
/// image proves that what the program acknowledged was really made
/// durable, which killing the process would not (the OS page cache
/// survives a process kill). Also counts bytes written, by file kind.
class SyncTrackingFileSystem : public dphist::persist::FileSystem {
 public:
  SyncTrackingFileSystem();

  using WritablePtr = std::unique_ptr<dphist::persist::WritableFile>;
  dphist::Result<WritablePtr> Create(const std::string& path) override;
  dphist::Result<WritablePtr> OpenForAppend(const std::string& path) override;
  dphist::Result<std::vector<uint8_t>> ReadAll(
      const std::string& path) const override;
  dphist::Status Rename(const std::string& from,
                        const std::string& to) override;
  dphist::Status Remove(const std::string& path) override;
  dphist::Result<std::vector<std::string>> List(
      const std::string& dir) const override;
  bool Exists(const std::string& path) const override;
  dphist::Status CreateDir(const std::string& dir) override;
  dphist::Status SyncDir(const std::string& dir) override;

  /// Writes the synced prefix of every live file under `dir` into
  /// `image_dir` (same file names). Returns the number of files copied.
  dphist::Result<uint64_t> BuildCrashImage(const std::string& dir,
                                           const std::string& image_dir) const;

  uint64_t wal_bytes() const;
  uint64_t snapshot_bytes() const;

 private:
  friend class TrackedFile;
  struct FileState {
    uint64_t length = 0;  ///< bytes appended through this process
    uint64_t synced = 0;  ///< length at the last successful Sync
    bool ever_synced = false;
  };
  void OnAppend(const std::string& path, uint64_t bytes);
  void OnSync(const std::string& path);
  dphist::Result<WritablePtr> Track(const std::string& path,
                                    dphist::Result<WritablePtr> file,
                                    uint64_t initial_length);

  dphist::persist::FileSystem* base_;
  mutable std::mutex mu_;
  std::map<std::string, FileState> files_;  ///< guarded by mu_
  uint64_t wal_bytes_ = 0;                  ///< guarded by mu_
  uint64_t snapshot_bytes_ = 0;             ///< guarded by mu_
};

/// Forwarding db::StatsEventSink around a RecoveryManager: times every
/// sink call, classifies it as a plain WAL append or as one that also
/// checkpointed (the manager's checkpoint counter moved), and opens a
/// "persist" span around it in the traced run.
class TimedSink : public dphist::db::StatsEventSink {
 public:
  TimedSink(dphist::persist::RecoveryManager* manager, Tracer* tracer)
      : manager_(manager), tracer_(tracer) {}

  void OnStatsInstalled(const std::string& table, size_t column,
                        const dphist::db::ColumnStats& stats) override;
  void OnDataVersionBump(const std::string& table, uint64_t version) override;

  uint64_t calls() const { return calls_; }
  const Samples& append_seconds() const { return append_seconds_; }
  const Samples& checkpoint_seconds() const { return checkpoint_seconds_; }

 private:
  template <typename Fn>
  void Timed(Fn&& fn);

  dphist::persist::RecoveryManager* manager_;
  Tracer* tracer_;
  uint64_t calls_ = 0;
  Samples append_seconds_;
  Samples checkpoint_seconds_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SYNC_FS_H_
