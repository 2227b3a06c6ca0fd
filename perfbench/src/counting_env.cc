#include "counting_env.h"

#include <chrono>
#include <utility>

namespace perfbench {
namespace {

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

void Add(std::atomic<uint64_t>& counter, uint64_t n) {
  counter.fetch_add(n, std::memory_order_relaxed);
}

class CountingFile : public s2::io::File {
 public:
  CountingFile(std::unique_ptr<s2::io::File> base, CountingEnv::Counters* c)
      : base_(std::move(base)), c_(c) {}

  s2::Result<size_t> Read(void* buf, size_t n) override {
    const uint64_t start = NowNs();
    return CountRead(base_->Read(buf, n), start);
  }
  s2::Result<size_t> ReadAt(void* buf, size_t n, uint64_t offset) override {
    const uint64_t start = NowNs();
    return CountRead(base_->ReadAt(buf, n, offset), start);
  }
  s2::Result<size_t> Write(const void* buf, size_t n) override {
    const uint64_t start = NowNs();
    return CountWrite(base_->Write(buf, n), start);
  }
  s2::Result<size_t> WriteAt(const void* buf, size_t n,
                             uint64_t offset) override {
    const uint64_t start = NowNs();
    return CountWrite(base_->WriteAt(buf, n, offset), start);
  }
  s2::Status Seek(uint64_t offset) override { return base_->Seek(offset); }
  s2::Result<uint64_t> Size() override { return base_->Size(); }
  s2::Status Sync() override {
    const uint64_t start = NowNs();
    s2::Status status = base_->Sync();
    Add(c_->syncs, 1);
    Add(c_->sync_ns, NowNs() - start);
    return status;
  }

 private:
  s2::Result<size_t> CountRead(s2::Result<size_t> r, uint64_t start) {
    Add(c_->read_ops, 1);
    Add(c_->read_ns, NowNs() - start);
    if (r.ok()) Add(c_->read_bytes, *r);
    return r;
  }
  s2::Result<size_t> CountWrite(s2::Result<size_t> r, uint64_t start) {
    Add(c_->write_ops, 1);
    Add(c_->write_ns, NowNs() - start);
    if (r.ok()) Add(c_->write_bytes, *r);
    return r;
  }

  std::unique_ptr<s2::io::File> base_;
  CountingEnv::Counters* c_;
};

}  // namespace

IoCounts IoCounts::operator-(const IoCounts& o) const {
  IoCounts d;
  d.read_ops = read_ops - o.read_ops;
  d.read_bytes = read_bytes - o.read_bytes;
  d.read_ns = read_ns - o.read_ns;
  d.write_ops = write_ops - o.write_ops;
  d.write_bytes = write_bytes - o.write_bytes;
  d.write_ns = write_ns - o.write_ns;
  d.syncs = syncs - o.syncs;
  d.sync_ns = sync_ns - o.sync_ns;
  return d;
}

IoCounts& IoCounts::operator+=(const IoCounts& o) {
  read_ops += o.read_ops;
  read_bytes += o.read_bytes;
  read_ns += o.read_ns;
  write_ops += o.write_ops;
  write_bytes += o.write_bytes;
  write_ns += o.write_ns;
  syncs += o.syncs;
  sync_ns += o.sync_ns;
  return *this;
}

CountingEnv::CountingEnv(s2::io::Env* base, std::string wal_path)
    : base_(base), wal_path_(std::move(wal_path)) {}

FileKind CountingEnv::Classify(const std::string& path) const {
  if (path.compare(0, wal_path_.size(), wal_path_) != 0) return FileKind::kStore;
  const std::string rest = path.substr(wal_path_.size());
  if (rest.find(".monitor") != std::string::npos) return FileKind::kMonitor;
  if (rest.find(".ckpt") != std::string::npos ||
      rest.find(".manifest") != std::string::npos) {
    return FileKind::kCheckpoint;
  }
  return FileKind::kWal;
}

s2::Result<std::unique_ptr<s2::io::File>> CountingEnv::Open(
    const std::string& path, s2::io::OpenMode mode) {
  S2_ASSIGN_OR_RETURN(std::unique_ptr<s2::io::File> file,
                      base_->Open(path, mode));
  Counters* c = &counters_[static_cast<size_t>(Classify(path))];
  return std::unique_ptr<s2::io::File>(
      std::make_unique<CountingFile>(std::move(file), c));
}

s2::Status CountingEnv::Rename(const std::string& from, const std::string& to) {
  return base_->Rename(from, to);
}

s2::Status CountingEnv::Remove(const std::string& path) {
  return base_->Remove(path);
}

s2::Status CountingEnv::SyncDir(const std::string& path) {
  Counters& c = counters_[static_cast<size_t>(Classify(path))];
  const uint64_t start = NowNs();
  s2::Status status = base_->SyncDir(path);
  Add(c.syncs, 1);
  Add(c.sync_ns, NowNs() - start);
  return status;
}

bool CountingEnv::FileExists(const std::string& path) {
  return base_->FileExists(path);
}

s2::Result<std::vector<std::string>> CountingEnv::ListPrefix(
    const std::string& prefix) {
  return base_->ListPrefix(prefix);
}

IoCounts CountingEnv::counts(FileKind kind) const {
  const Counters& c = counters_[static_cast<size_t>(kind)];
  IoCounts out;
  out.read_ops = c.read_ops.load(std::memory_order_relaxed);
  out.read_bytes = c.read_bytes.load(std::memory_order_relaxed);
  out.read_ns = c.read_ns.load(std::memory_order_relaxed);
  out.write_ops = c.write_ops.load(std::memory_order_relaxed);
  out.write_bytes = c.write_bytes.load(std::memory_order_relaxed);
  out.write_ns = c.write_ns.load(std::memory_order_relaxed);
  out.syncs = c.syncs.load(std::memory_order_relaxed);
  out.sync_ns = c.sync_ns.load(std::memory_order_relaxed);
  return out;
}

}  // namespace perfbench
