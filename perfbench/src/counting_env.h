#ifndef PERFBENCH_COUNTING_ENV_H_
#define PERFBENCH_COUNTING_ENV_H_

// An io::Env decorator that counts every byte, call and nanosecond the
// program spends in its files, split by which file family the path belongs
// to. The benchmark passes it as both the engine env and the WAL env, so
// the counts cover the data WAL, the monitor log, checkpoint snapshots and
// manifests, and the disk-resident sequence store.

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "io/env.h"

namespace perfbench {

enum class FileKind : int { kWal = 0, kMonitor, kCheckpoint, kStore, kCount };

/// Plain-value snapshot of one file family's counters.
struct IoCounts {
  uint64_t read_ops = 0;
  uint64_t read_bytes = 0;
  uint64_t read_ns = 0;
  uint64_t write_ops = 0;
  uint64_t write_bytes = 0;
  uint64_t write_ns = 0;
  uint64_t syncs = 0;
  uint64_t sync_ns = 0;

  IoCounts operator-(const IoCounts& o) const;
  IoCounts& operator+=(const IoCounts& o);
};

class CountingEnv : public s2::io::Env {
 public:
  /// `wal_path` names the WAL base path; everything else is the store.
  CountingEnv(s2::io::Env* base, std::string wal_path);

  CountingEnv(const CountingEnv&) = delete;
  CountingEnv& operator=(const CountingEnv&) = delete;

  s2::Result<std::unique_ptr<s2::io::File>> Open(const std::string& path,
                                                 s2::io::OpenMode mode) override;
  s2::Status Rename(const std::string& from, const std::string& to) override;
  s2::Status Remove(const std::string& path) override;
  s2::Status SyncDir(const std::string& path) override;
  bool FileExists(const std::string& path) override;
  s2::Result<std::vector<std::string>> ListPrefix(
      const std::string& prefix) override;

  FileKind Classify(const std::string& path) const;
  IoCounts counts(FileKind kind) const;

  /// Live counters of one family (updated by the wrapped files).
  struct Counters {
    std::atomic<uint64_t> read_ops{0}, read_bytes{0}, read_ns{0};
    std::atomic<uint64_t> write_ops{0}, write_bytes{0}, write_ns{0};
    std::atomic<uint64_t> syncs{0}, sync_ns{0};
  };

 private:
  s2::io::Env* base_;
  std::string wal_path_;
  std::array<Counters, static_cast<size_t>(FileKind::kCount)> counters_;
};

}  // namespace perfbench

#endif  // PERFBENCH_COUNTING_ENV_H_
