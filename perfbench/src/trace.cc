#include "trace.h"

#include <cstdio>

namespace perfbench {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int64_t Tracer::Record(const Span& span) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(span);
  return static_cast<int64_t>(spans_.size()) - 1;
}

std::vector<Span> Tracer::Named(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Span> out;
  for (const Span& s : spans_) {
    if (name == s.name) out.push_back(s);
  }
  return out;
}

bool Tracer::WriteJsonl(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"id\":%zu,\"name\":\"%s\",\"request\":%llu,\"parent\":%lld,"
                 "\"start_ns\":%lld,\"end_ns\":%lld,\"counts\":[%.17g,%.17g,"
                 "%.17g,%.17g]}\n",
                 i, s.name, static_cast<unsigned long long>(s.request),
                 static_cast<long long>(s.parent),
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns), s.counts[0], s.counts[1],
                 s.counts[2], s.counts[3]);
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
