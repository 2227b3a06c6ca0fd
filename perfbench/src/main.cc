// End-to-end benchmark of S2Server.
//
//   s2_perfbench --workload explore|ingest --seed N --seconds S --trace 0|1
//                --run-dir DIR [--trace-out FILE]
//
// Builds the seeded inputs, starts a server over them, drives the workload's
// fixed operation sequences through it from closed-loop clients, checks a
// sample of the timed answers against the benchmark's own reference
// computations, restarts the server from its checkpoint and WAL, and prints
// every metric as `metric <name> <value> <unit>`. The last line of standard
// output is one JSON object: end-to-end metrics with --trace 0, per-layer
// metrics (from the spans of the traced run) with --trace 1.

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <memory>
#include <shared_mutex>
#include <string>
#include <thread>
#include <vector>

#include "burst/burst_detector.h"
#include "burst/burst_table.h"
#include "ckpt/checkpoint_store.h"
#include "counting_env.h"
#include "dsp/stats.h"
#include "io/env.h"
#include "oracle.h"
#include "repr/compressed.h"
#include "repr/half_spectrum.h"
#include "service/s2_server.h"
#include "simd/simd.h"
#include "trace.h"
#include "workload.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;
using s2::service::QueryRequest;
using s2::service::QueryResponse;
using s2::service::RequestKind;
using s2::service::S2Server;

// Taken during static initialisation, before main: set-up time counts from
// here, less the time the benchmark spends making its own inputs.
const Clock::time_point kProcessStart = Clock::now();

constexpr size_t kVerbs = s2::service::kNumRequestKinds;
constexpr size_t kK = 10;
constexpr double kDistanceTol = 1e-9;
constexpr double kPowerTol = 1e-8;
// Every 4th request of each verb (and every 4th append) is probed layer by
// layer in the traced run.
constexpr size_t kProbeStride = 4;
// host.ref_us: timed once every this many operations of client 0.
constexpr size_t kHostRefEvery = 64;

double Seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double Micros(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

[[noreturn]] void Die(const std::string& what) {
  std::fprintf(stderr, "s2_perfbench: %s\n", what.c_str());
  std::exit(2);
}

void Require(const s2::Status& status, const std::string& what) {
  if (!status.ok()) Die(what + ": " + status.ToString());
}

size_t VerbIndex(RequestKind kind) { return static_cast<size_t>(kind); }

// --- Statistics ------------------------------------------------------------

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

/// The highest of p95, p90 and p75 with at least ten samples beyond it;
/// the median when there are fewer than forty samples. p95 is the ceiling:
/// further out, a run's tail on a shared host follows the host's slow
/// stretches (fsync stalls) more than the program.
double TailPercentile(size_t n) {
  static const double kLadder[] = {95.0, 90.0, 75.0};
  for (double p : kLadder) {
    if (static_cast<double>(n) * (100.0 - p) / 100.0 >= 10.0) return p;
  }
  return 50.0;
}

/// A run's tail, robust to the host's slow stretches: each client's samples
/// (in the order they were taken) are cut into kTailBlocks consecutive
/// blocks, block b of every client is pooled, and the reported tail is the
/// median over blocks of each block's percentile `p`. The program's own
/// stalls recur evenly through the fixed operation sequence and show in
/// every block; a slow host stretch over less than half the run shows in a
/// minority of blocks and drops out.
constexpr size_t kTailBlocks = 8;

double BlockTail(const std::vector<const std::vector<double>*>& per_client, double p) {
  std::vector<double> tails;
  for (size_t b = 0; b < kTailBlocks; ++b) {
    std::vector<double> block;
    for (const std::vector<double>* v : per_client) {
      const size_t n = v->size();
      block.insert(block.end(), v->begin() + static_cast<long>(n * b / kTailBlocks),
                   v->begin() + static_cast<long>(n * (b + 1) / kTailBlocks));
    }
    if (!block.empty()) tails.push_back(Quantile(block, p));
  }
  return Median(tails);
}

// --- Run state -------------------------------------------------------------

struct CheckItem {
  Op op;
  size_t appends = 0;  ///< Appends applied before the read, none during it.
  QueryResponse response;
};

struct ClientResult {
  std::vector<double> latency_us[kVerbs];
  std::vector<double> append_us, compact_us, checkpoint_us, host_ref_us;
  std::vector<double> queue_wait_us, cache_dropped;
  size_t reads[kVerbs] = {};
  size_t cache_hits[kVerbs] = {};
  size_t attempted = 0, failed = 0, reads_done = 0, appends_done = 0;
  size_t approx_answers = 0, approx_exact = 0;
  std::vector<uint64_t> alert_seqs;
  std::vector<CheckItem> checks;
  std::vector<std::string> errors;
};

// Which timed answers the run checks: every `stride`-th read of a verb, at
// most `cap` per client.
struct CheckPlan {
  size_t stride;
  size_t cap;
};
constexpr CheckPlan kCheckPlan[kVerbs] = {
    {64, 8},   // kSimilarTo
    {16, 2},   // kSimilarToDtw
    {64, 16},  // kPeriodsOf
    {64, 16},  // kBurstsOf
    {64, 4},   // kQueryByBurst
    {64, 8},   // kApproxKnn
};

// --- Layer probes (traced run) -----------------------------------------------

// Calls each layer's public functions directly, between the server's own
// requests, and records one span per call with the stats the layer returns.
class Prober {
 public:
  Prober(S2Server* server, Tracer* tracer, CountingEnv* env, const Inputs* in,
         const s2::core::S2Engine::Options& engine_options)
      : server_(server), tracer_(tracer), env_(env), in_(in),
        engine_options_(engine_options),
        long_detector_(engine_options.long_burst) {
    // A standalone burst table holding the workload's long-term bursts, for
    // timing one series' replacement in isolation.
    for (size_t s = 0; s < in->corpus.size(); ++s) {
      const s2::ts::TimeSeries& series = in->corpus.at(static_cast<uint32_t>(s));
      auto regions = long_detector_.Detect(series.values);
      if (regions.ok()) {
        table_.Insert(static_cast<uint32_t>(s), *regions, series.start_day);
      }
    }
  }

  void Read(const Op& op, uint64_t request, int64_t parent) {
    switch (op.verb) {
      case RequestKind::kSimilarTo:
        Knn(op.series, request, parent);
        break;
      case RequestKind::kSimilarToDtw:
        Dtw(op.series, request, parent);
        break;
      case RequestKind::kApproxKnn:
        Approx(op.series, request, parent);
        break;
      case RequestKind::kQueryByBurst: {
        const auto horizon = Horizon(op);
        ScopedSpan span(tracer_, "burst.qbb", request, parent);
        const bool ok = server_->is_sharded()
                            ? server_->sharded().QueryByBurst(op.series, kK, horizon).ok()
                            : server_->engine().QueryByBurst(op.series, kK, horizon).ok();
        span.Finish({ok ? 1.0 : 0.0});
        break;
      }
      case RequestKind::kPeriodsOf: {
        const Place p = PlaceOf(op.series);
        ScopedSpan span(tracer_, "period.find", request, parent);
        auto hits = Shard(p.shard).FindPeriods(p.local);
        span.Finish({hits.ok() ? static_cast<double>(hits->size()) : 0.0});
        break;
      }
      case RequestKind::kBurstsOf:
        break;
    }
  }

  /// Re-featurisation and burst-table replacement of one appended series,
  /// timed on the benchmark's own copy of its new window.
  void Append(uint32_t s, size_t appends_after, uint64_t request, int64_t parent) {
    const std::vector<double> window =
        in_->Window(s, appends_after, in_->corpus.at(s).values.size());
    const int32_t start_day =
        in_->corpus.at(s).start_day + static_cast<int32_t>(in_->AppendsTo(s, appends_after));
    {
      ScopedSpan span(tracer_, "dsp.refeature", request, parent);
      const std::vector<double> z = s2::dsp::Standardize(window);
      auto spectrum = s2::repr::HalfSpectrum::FromSeries(z);
      bool ok = spectrum.ok();
      if (ok) {
        ok = s2::repr::CompressedSpectrum::Compress(
                 *spectrum, s2::repr::ReprKind::kBestKError,
                 engine_options_.index.budget_c)
                 .ok();
      }
      span.Finish({ok ? 1.0 : 0.0});
    }
    auto regions = long_detector_.Detect(window);
    if (!regions.ok()) return;
    ScopedSpan span(tracer_, "burst.table_replace", request, parent);
    const size_t erased = table_.EraseSeries(s);
    table_.Insert(s, *regions, start_day);
    span.Finish({static_cast<double>(erased), static_cast<double>(table_.size())});
  }

 private:
  struct Place {
    size_t shard = 0;
    uint32_t local = 0;
  };

  size_t NumShards() const {
    return server_->is_sharded() ? server_->sharded().num_shards() : 1;
  }
  const s2::core::S2Engine& Shard(size_t i) const {
    return server_->is_sharded() ? server_->sharded().shard(i) : server_->engine();
  }
  Place PlaceOf(uint32_t id) const {
    if (!server_->is_sharded()) return {0, id};
    auto p = server_->sharded().PlacementOf(id);
    if (!p.ok()) Die("placement of series " + std::to_string(id));
    return {p->shard, p->local};
  }
  uint32_t Global(size_t shard, uint32_t local) const {
    return server_->is_sharded() ? server_->sharded().GlobalId(shard, local) : local;
  }
  static s2::core::BurstHorizon Horizon(const Op& op) {
    return op.short_horizon ? s2::core::BurstHorizon::kShortTerm
                            : s2::core::BurstHorizon::kLongTerm;
  }
  uint32_t Exclude(size_t shard, const Place& owner) const {
    return shard == owner.shard ? owner.local : s2::ts::kInvalidSeriesId;
  }

  void Knn(uint32_t id, uint64_t request, int64_t parent) {
    // Shard layer: the fan-out call with its per-shard wall times.
    {
      ScopedSpan span(tracer_, "shard.search", request, parent);
      double slowest = 0, fastest = 0, mean = 0, prunes = 0;
      if (server_->is_sharded()) {
        s2::shard::ShardedEngine::QueryStats qs;
        if (!server_->sharded().SimilarTo(id, kK, &qs).ok()) Die("probe knn");
        if (!qs.shard_latencies.empty()) {
          fastest = 1e300;
          for (auto us : qs.shard_latencies) {
            const double v = static_cast<double>(us.count());
            slowest = std::max(slowest, v);
            fastest = std::min(fastest, v);
            mean += v;
          }
          mean /= static_cast<double>(qs.shard_latencies.size());
        }
        prunes = static_cast<double>(qs.shared_radius_prunes);
        span.Finish({slowest, fastest, mean, prunes});
      } else {
        const int64_t t0 = NowNs();
        if (!server_->engine().SimilarTo(id, kK).ok()) Die("probe knn");
        const double us = static_cast<double>(NowNs() - t0) / 1e3;
        span.Finish({us, us, us, 0.0});
      }
    }
    // Index layer: each shard's VP-tree search over the same standardized
    // row, under one shared radius, with the storage reads it made.
    const Place owner = PlaceOf(id);
    const std::vector<double>& z = Shard(owner.shard).standardized(owner.local);
    s2::index::SharedRadius shared;
    s2::index::VpTreeIndex::SearchStats st;
    const IoCounts io_before = env_->counts(FileKind::kStore);
    const int64_t t0 = NowNs();
    {
      ScopedSpan span(tracer_, "index.search", request, parent);
      for (size_t s = 0; s < NumShards(); ++s) {
        if (!Shard(s).SimilarToStandardized(z, kK, Exclude(s, owner), &st, &shared).ok()) {
          Die("probe index search");
        }
      }
      span.Finish({static_cast<double>(st.nodes_visited),
                   static_cast<double>(st.bound_computations),
                   static_cast<double>(st.full_retrievals),
                   static_cast<double>(server_->stream_info().delta_size)});
    }
    const IoCounts io = env_->counts(FileKind::kStore) - io_before;
    Span storage;
    storage.name = "storage.knn_reads";
    storage.request = request;
    storage.parent = parent;
    storage.start_ns = t0;
    storage.end_ns = t0 + static_cast<int64_t>(io.read_ns);
    storage.counts = {static_cast<double>(io.read_ops),
                      static_cast<double>(io.read_bytes), 0, 0};
    tracer_->Record(storage);
  }

  void Dtw(uint32_t id, uint64_t request, int64_t parent) {
    const Place owner = PlaceOf(id);
    const std::vector<double>& z = Shard(owner.shard).standardized(owner.local);
    s2::index::SharedRadius shared;
    s2::dtw::DtwKnnSearch::SearchStats st;
    ScopedSpan span(tracer_, "dtw.search", request, parent);
    for (size_t s = 0; s < NumShards(); ++s) {
      if (!Shard(s).SimilarToDtwStandardized(z, kK, Exclude(s, owner), &st, &shared).ok()) {
        Die("probe dtw search");
      }
    }
    span.Finish({static_cast<double>(st.lb_keogh_computed),
                 static_cast<double>(st.lb_keogh_skips),
                 static_cast<double>(st.dtw_computed), 0.0});
  }

  void Approx(uint32_t id, uint64_t request, int64_t parent) {
    const Place owner = PlaceOf(id);
    const s2::core::S2Engine& home = Shard(owner.shard);
    const std::vector<double>& z = home.standardized(owner.local);
    s2::approx::QueryParams params;
    params.k = kK;
    const size_t population = in_->corpus.size() - 1;
    const size_t c = s2::approx::ResolveCandidates(
        params, population, home.options().approx.summary);
    auto proj = home.ApproxProject(z);
    if (!proj.ok()) Die("probe approx project");

    // Summary scan on every shard, merged by (lb_sq, global id) and cut to
    // the global candidate budget.
    struct Cand {
      double lb_sq;
      uint32_t global;
      size_t shard;
      s2::approx::SummaryIndex::Candidate local;
    };
    std::vector<Cand> merged;
    s2::approx::ScanStats scan;
    {
      ScopedSpan span(tracer_, "approx.scan", request, parent);
      for (size_t s = 0; s < NumShards(); ++s) {
        auto cands = Shard(s).ApproxCandidates(*proj, c, Exclude(s, owner), &scan);
        if (!cands.ok()) Die("probe approx scan");
        for (const auto& cd : *cands) merged.push_back({cd.lb_sq, Global(s, cd.id), s, cd});
      }
      std::sort(merged.begin(), merged.end(), [](const Cand& a, const Cand& b) {
        return a.lb_sq != b.lb_sq ? a.lb_sq < b.lb_sq : a.global < b.global;
      });
      if (merged.size() > c) merged.resize(c);
      span.Finish({static_cast<double>(scan.rows_scanned)});
    }
    // Exact verification where the rows live, under one shared radius.
    s2::index::SharedRadius shared;
    ScopedSpan span(tracer_, "approx.verify", request, parent);
    for (size_t s = 0; s < NumShards(); ++s) {
      std::vector<s2::approx::SummaryIndex::Candidate> mine;
      for (const Cand& cd : merged) {
        if (cd.shard == s) mine.push_back(cd.local);
      }
      if (!Shard(s).ApproxVerify(z, mine, kK, &scan, &shared).ok()) {
        Die("probe approx verify");
      }
    }
    span.Finish({static_cast<double>(scan.candidates),
                 static_cast<double>(scan.verified)});
  }

  S2Server* server_;
  Tracer* tracer_;
  CountingEnv* env_;
  const Inputs* in_;
  s2::core::S2Engine::Options engine_options_;
  s2::burst::BurstDetector long_detector_;
  s2::burst::BurstTable table_;
};

// --- Clients -----------------------------------------------------------------

struct Shared {
  S2Server* server = nullptr;
  const Inputs* in = nullptr;
  Tracer* tracer = nullptr;  ///< Null in the untraced run.
  Prober* prober = nullptr;
  std::atomic<uint64_t> appends_started{0};
  std::atomic<uint64_t> appends_done{0};
  std::atomic<uint64_t> next_request{1};
  /// Writers (append, compaction, checkpoint) hold it exclusively; layer
  /// probes, which call the engines directly, hold it shared.
  std::shared_mutex writer_mu;
};

// Keeps the reference computation from being optimised away.
volatile double g_host_sink = 0.0;

double HostReference() {
  // A fixed computation owned by the benchmark: 64 squared distances over
  // 256 values. Slow host stretches show in it as in the program.
  static std::vector<double> data = [] {
    std::vector<double> d(65 * 256);
    for (size_t i = 0; i < d.size(); ++i) d[i] = std::sin(0.001 * static_cast<double>(i));
    return d;
  }();
  const Clock::time_point t0 = Clock::now();
  double best = 1e300;
  for (size_t r = 1; r < 65; ++r) {
    double s = 0.0;
    for (size_t j = 0; j < 256; ++j) {
      const double x = data[r * 256 + j] - data[j];
      s += x * x;
    }
    best = std::min(best, s);
  }
  const double us = Micros(t0, Clock::now());
  g_host_sink = best;
  return us;
}

void RunClient(Shared* sh, size_t client, ClientResult* out) {
  S2Server* server = sh->server;
  const std::vector<Op>& ops = sh->in->streams[client];
  size_t probe_count[kVerbs] = {};
  size_t check_seen[kVerbs] = {};
  bool check_pending[kVerbs] = {};
  size_t checked[kVerbs] = {};
  size_t appends_probed = 0;
  for (size_t i = 0; i < ops.size(); ++i) {
    const Op& op = ops[i];
    if (client == 0 && i % kHostRefEvery == 0) out->host_ref_us.push_back(HostReference());
    ++out->attempted;
    const uint64_t request = sh->next_request.fetch_add(1, std::memory_order_relaxed);
    switch (op.kind) {
      case OpKind::kRead: {
        QueryRequest req;
        req.kind = op.verb;
        req.id = op.series;
        req.k = kK;
        req.horizon = op.short_horizon ? s2::core::BurstHorizon::kShortTerm
                                       : s2::core::BurstHorizon::kLongTerm;
        const size_t v = VerbIndex(op.verb);
        const uint64_t done_before = sh->appends_done.load();
        const Clock::time_point t0 = Clock::now();
        auto ticket = server->Submit(req);
        if (!ticket.ok()) {
          ++out->failed;
          out->errors.push_back("submit: " + ticket.status().ToString());
          break;
        }
        QueryResponse resp = ticket->Get();
        const Clock::time_point t1 = Clock::now();
        const uint64_t started_after = sh->appends_started.load();
        if (!resp.status.ok()) {
          ++out->failed;
          out->errors.push_back("read: " + resp.status.ToString());
          break;
        }
        ++out->reads_done;
        const double us = Micros(t0, t1);
        out->latency_us[v].push_back(us);
        out->queue_wait_us.push_back(us - static_cast<double>(resp.latency.count()));
        ++out->reads[v];
        if (resp.cache_hit) ++out->cache_hits[v];
        if (op.verb == RequestKind::kApproxKnn) {
          ++out->approx_answers;
          if (resp.quality.guaranteed_exact) ++out->approx_exact;
        }
        if (check_seen[v]++ % kCheckPlan[v].stride == 0) check_pending[v] = true;
        // Only answers no append overlapped have one corpus state to check
        // against.
        if (check_pending[v] && started_after == done_before &&
            checked[v] < kCheckPlan[v].cap) {
          out->checks.push_back({op, done_before, resp});
          check_pending[v] = false;
          ++checked[v];
        }
        if (sh->tracer != nullptr && probe_count[v]++ % kProbeStride == 0) {
          Span root;
          root.name = "service.request";
          root.request = request;
          root.start_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                              t0.time_since_epoch()).count();
          root.end_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                            t1.time_since_epoch()).count();
          root.counts = {static_cast<double>(v), resp.cache_hit ? 1.0 : 0.0,
                         static_cast<double>(resp.latency.count())};
          const int64_t parent = sh->tracer->Record(root);
          std::shared_lock<std::shared_mutex> lock(sh->writer_mu);
          sh->prober->Read(op, request, parent);
        }
        break;
      }
      case OpKind::kAppend: {
        std::unique_lock<std::shared_mutex> lock(sh->writer_mu);
        const size_t j = sh->appends_started.fetch_add(1);
        const uint32_t s = sh->in->AppendSeries(j);
        const size_t cache_before = sh->tracer != nullptr ? server->cache().size() : 0;
        const Clock::time_point t0 = Clock::now();
        const s2::Status st = server->AppendPoint(s, sh->in->AppendValue(j));
        const Clock::time_point t1 = Clock::now();
        if (sh->tracer != nullptr) {
          const size_t cache_after = server->cache().size();
          out->cache_dropped.push_back(
              static_cast<double>(cache_before > cache_after ? cache_before - cache_after : 0));
        }
        sh->appends_done.fetch_add(1);
        lock.unlock();
        if (!st.ok()) {
          ++out->failed;
          out->errors.push_back("append: " + st.ToString());
          break;
        }
        ++out->appends_done;
        out->append_us.push_back(Micros(t0, t1));
        if (sh->tracer != nullptr && appends_probed++ % kProbeStride == 0) {
          sh->prober->Append(s, j + 1, request, -1);
        }
        break;
      }
      case OpKind::kCompact:
      case OpKind::kCheckpoint: {
        std::unique_lock<std::shared_mutex> lock(sh->writer_mu);
        const Clock::time_point t0 = Clock::now();
        const s2::Status st = op.kind == OpKind::kCompact ? server->Compact()
                                                         : server->Checkpoint();
        const Clock::time_point t1 = Clock::now();
        lock.unlock();
        if (!st.ok()) {
          ++out->failed;
          out->errors.push_back("maintenance: " + st.ToString());
          break;
        }
        (op.kind == OpKind::kCompact ? out->compact_us : out->checkpoint_us)
            .push_back(Micros(t0, t1));
        break;
      }
      case OpKind::kPoll: {
        const std::vector<s2::monitor::Alert> alerts = server->PollAlerts(4096);
        // Every delivered seq is kept, so a duplicate or a gap fails the
        // gapless check.
        for (const auto& a : alerts) out->alert_seqs.push_back(a.seq);
        if (!alerts.empty()) {
          const s2::Status st = server->AckAlerts(alerts.back().seq);
          if (!st.ok()) {
            ++out->failed;
            out->errors.push_back("ack: " + st.ToString());
          }
        }
        break;
      }
    }
  }
}

// --- Answer checks -------------------------------------------------------------

struct CheckTally {
  size_t checked = 0;
  size_t skipped_borderline = 0;
  double max_rel_err = 0.0;
  std::vector<std::string> failures;

  void Add(const std::string& what, const oracle::Verdict& v) {
    ++checked;
    max_rel_err = std::max(max_rel_err, v.max_rel_err);
    if (!v.ok) failures.push_back(what + ": " + v.why);
  }
};

std::vector<oracle::Hit> ToHits(const std::vector<s2::index::Neighbor>& ns) {
  std::vector<oracle::Hit> out;
  for (const auto& n : ns) out.push_back({n.id, n.distance});
  return out;
}

void CheckAnswers(const Workload& w, const Inputs& in,
                  const s2::core::S2Engine::Options& eo,
                  std::vector<CheckItem> items, CheckTally* tally) {
  std::sort(items.begin(), items.end(),
            [](const CheckItem& a, const CheckItem& b) { return a.appends < b.appends; });
  std::vector<std::vector<double>> z;  // z-rows at state `state`
  size_t state = static_cast<size_t>(-1);
  // Every series' bursts at state `bursts_state` on one horizon.
  std::vector<std::vector<oracle::Region>> bursts;
  std::vector<size_t> bursts_borderline;
  size_t bursts_state = static_cast<size_t>(-1);
  bool bursts_short = false;
  for (const CheckItem& item : items) {
    const uint32_t q = item.op.series;
    const std::string what = std::string(s2::service::RequestKindToString(item.op.verb)) +
                             "(" + std::to_string(q) + ")@" + std::to_string(item.appends);
    const bool needs_rows = item.op.verb == RequestKind::kSimilarTo ||
                            item.op.verb == RequestKind::kSimilarToDtw ||
                            item.op.verb == RequestKind::kApproxKnn;
    if (needs_rows && state != item.appends) {
      state = item.appends;
      z.assign(w.series, {});
      for (uint32_t s = 0; s < w.series; ++s) {
        z[s] = oracle::ZNormalize(in.Window(s, state, w.days));
      }
    }
    const size_t expected = std::min(kK, w.series - 1);
    switch (item.op.verb) {
      case RequestKind::kSimilarTo: {
        auto dist = [&](uint32_t id) { return oracle::Euclidean(z[q], z[id]); };
        const auto truth = oracle::BruteForceKnn(w.series, q, kK, dist);
        tally->Add(what, oracle::CheckExactKnn(ToHits(item.response.neighbors), truth,
                                               q, expected, dist, kDistanceTol));
        break;
      }
      case RequestKind::kSimilarToDtw: {
        auto dist = [&](uint32_t id) { return oracle::BandedDtw(z[q], z[id], eo.dtw_window); };
        std::vector<double> all(w.series);
        for (uint32_t id = 0; id < w.series; ++id) all[id] = id == q ? 0.0 : dist(id);
        auto cached = [&](uint32_t id) { return all[id]; };
        const auto truth = oracle::BruteForceKnn(w.series, q, kK, cached);
        tally->Add(what, oracle::CheckExactKnn(ToHits(item.response.neighbors), truth,
                                               q, expected, cached, kDistanceTol));
        break;
      }
      case RequestKind::kApproxKnn: {
        auto dist = [&](uint32_t id) { return oracle::Euclidean(z[q], z[id]); };
        const auto truth = oracle::BruteForceKnn(w.series, q, kK, dist);
        tally->Add(what, oracle::CheckApproxKnn(
                             ToHits(item.response.neighbors), truth, q, expected, dist,
                             item.response.quality.guaranteed_exact,
                             item.response.quality.epsilon, kDistanceTol));
        break;
      }
      case RequestKind::kPeriodsOf: {
        size_t borderline = 0;
        const auto mine = oracle::DirectPeriods(
            in.Window(q, item.appends, w.days), eo.period.false_alarm_probability,
            eo.period.max_period_fraction, &borderline);
        if (borderline > 0) {
          ++tally->skipped_borderline;
          break;
        }
        std::vector<oracle::Period> answer;
        for (const auto& h : item.response.periods) answer.push_back({h.bin, h.power});
        tally->Add(what, oracle::CheckPeriods(answer, mine, kPowerTol));
        break;
      }
      case RequestKind::kBurstsOf: {
        const auto& opts = item.op.short_horizon ? eo.short_burst : eo.long_burst;
        size_t borderline = 0;
        const int32_t offset = in.corpus.at(q).start_day +
                               static_cast<int32_t>(in.AppendsTo(q, item.appends));
        const auto mine = oracle::MovingAverageBursts(
            in.Window(q, item.appends, w.days), opts.window, opts.cutoff_stds,
            opts.min_avg_value, offset, &borderline);
        if (borderline > 0) {
          ++tally->skipped_borderline;
          break;
        }
        std::vector<oracle::Region> answer;
        for (const auto& r : item.response.bursts) answer.push_back({r.start, r.end, r.avg_value});
        tally->Add(what, oracle::CheckBursts(answer, mine, kPowerTol));
        break;
      }
      case RequestKind::kQueryByBurst: {
        const bool shortterm = item.op.short_horizon;
        if (bursts_state != item.appends || bursts_short != shortterm) {
          bursts_state = item.appends;
          bursts_short = shortterm;
          const auto& opts = shortterm ? eo.short_burst : eo.long_burst;
          bursts.assign(w.series, {});
          bursts_borderline.assign(w.series, 0);
          for (uint32_t s = 0; s < w.series; ++s) {
            const int32_t offset = in.corpus.at(s).start_day +
                                   static_cast<int32_t>(in.AppendsTo(s, item.appends));
            bursts[s] = oracle::MovingAverageBursts(in.Window(s, item.appends, w.days),
                                                    opts.window, opts.cutoff_stds,
                                                    opts.min_avg_value, offset,
                                                    &bursts_borderline[s]);
          }
        }
        auto score = [&](uint32_t id) { return oracle::BurstSimilarity(bursts[q], bursts[id]); };
        std::vector<oracle::Match> answer;
        for (const auto& m : item.response.burst_matches) answer.push_back({m.series_id, m.bsim});
        // A series with a day within rounding of its cutoff may hold other
        // bursts in the program; skip answers such a series could change.
        bool borderline = bursts_borderline[q] > 0;
        for (uint32_t s = 0; s < w.series && !borderline; ++s) {
          borderline = bursts_borderline[s] > 0 && s != q && score(s) > 0.0;
        }
        for (const auto& m : answer) {
          if (m.id < w.series && bursts_borderline[m.id] > 0) borderline = true;
        }
        if (borderline) {
          ++tally->skipped_borderline;
          break;
        }
        const auto truth = oracle::BruteForceQueryByBurst(w.series, q, kK, score);
        tally->Add(what, oracle::CheckQueryByBurst(answer, truth, q, score, kDistanceTol));
        break;
      }
    }
  }
}

// --- Output ----------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void PrintMetric(const Metric& m) {
  std::printf("metric %s %.9g %s\n", m.name.c_str(), m.value, m.unit.c_str());
}

std::string Json(bool correct, size_t attempted, size_t failed,
                 const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", metrics[i].value);
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " + buf + ", \"unit\": \"" +
           metrics[i].unit + "\"}";
  }
  out += "}}";
  return out;
}

double PeakRssMb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string run_dir;
  std::string trace_out;
};

Args ParseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::stoull(v);
    else if (k == "--seconds") a.seconds = std::stod(v);
    else if (k == "--trace") a.trace = v == "1";
    else if (k == "--run-dir") a.run_dir = v;
    else if (k == "--trace-out") a.trace_out = v;
    else Die("unknown argument " + k);
  }
  if (FindWorkload(a.workload) == nullptr) Die("unknown workload '" + a.workload + "'");
  if (a.run_dir.empty()) Die("--run-dir is required");
  if (!(a.seconds > 0)) Die("--seconds must be positive");
  return a;
}

int Main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  const Workload& w = *FindWorkload(args.workload);
  std::filesystem::remove_all(args.run_dir);
  std::filesystem::create_directories(args.run_dir);

  // --- Set-up: inputs, server, WAL, subscriptions. -------------------------
  // setup_s is the process's cold start up to a serving server, without the
  // benchmark's own input generation.
  const Clock::time_point inputs_start = Clock::now();
  const Inputs in = MakeInputs(w, args.seed, args.seconds);
  const double inputs_s = Seconds(inputs_start, Clock::now());
  const std::string wal_path = args.run_dir + "/wal";
  CountingEnv env(s2::io::Env::Default(), wal_path);

  s2::core::S2Engine::Options eo;
  eo.env = &env;
  if (w.disk) eo.disk_store_path = args.run_dir + "/store";
  S2Server::Options so;
  so.scheduler.threads = w.clients;
  so.scheduler.queue_capacity = 64;
  so.cache_capacity = w.cache_capacity;
  so.shards = w.shards;
  so.wal_path = wal_path;
  so.wal_env = &env;
  so.wal_sync_every = 1;
  so.compaction_threshold = 0;  // compactions run at fixed points instead
  so.checkpoint_enabled = true;
  so.wal_rotate_bytes = 64 << 10;
  so.alert_queue_capacity = 4096;

  auto built = S2Server::Build(in.corpus, eo, so);
  if (!built.ok()) Die("server build: " + built.status().ToString());
  std::unique_ptr<S2Server> server = std::move(built).ValueOrDie();
  for (const s2::monitor::Subscription& sub : in.subscriptions) {
    auto id = server->Subscribe(sub);
    if (!id.ok()) Die("subscribe: " + id.status().ToString());
  }
  const double setup_s = Seconds(kProcessStart, Clock::now()) - inputs_s;

  Tracer tracer;
  std::unique_ptr<Prober> prober;
  if (args.trace) prober = std::make_unique<Prober>(server.get(), &tracer, &env, &in, eo);

  // --- Timed phase. ----------------------------------------------------------
  Shared sh;
  sh.server = server.get();
  sh.in = &in;
  sh.tracer = args.trace ? &tracer : nullptr;
  sh.prober = prober.get();
  std::vector<ClientResult> results(w.clients);
  IoCounts io_before[static_cast<size_t>(FileKind::kCount)];
  for (int k = 0; k < static_cast<int>(FileKind::kCount); ++k) {
    io_before[k] = env.counts(static_cast<FileKind>(k));
  }
  const Clock::time_point start = Clock::now();
  {
    std::vector<std::thread> threads;
    for (size_t c = 0; c < w.clients; ++c) {
      threads.emplace_back(RunClient, &sh, c, &results[c]);
    }
    for (std::thread& t : threads) t.join();
  }
  const double timed_s = Seconds(start, Clock::now());
  // Read before the checks build their own rows.
  const double peak_rss_mb = PeakRssMb();
  // I/O of the timed phase only, per file family.
  const auto timed_io = [&](FileKind kind) {
    return env.counts(kind) - io_before[static_cast<size_t>(kind)];
  };
  const IoCounts wal_io = timed_io(FileKind::kWal);
  const IoCounts store_io = timed_io(FileKind::kStore);
  const IoCounts ckpt_io = timed_io(FileKind::kCheckpoint);
  IoCounts io_timed;
  for (int k = 0; k < static_cast<int>(FileKind::kCount); ++k) {
    io_timed += timed_io(static_cast<FileKind>(k));
  }

  ClientResult all;
  for (ClientResult& r : results) {
    for (size_t v = 0; v < kVerbs; ++v) {
      all.latency_us[v].insert(all.latency_us[v].end(), r.latency_us[v].begin(),
                               r.latency_us[v].end());
      all.reads[v] += r.reads[v];
      all.cache_hits[v] += r.cache_hits[v];
    }
    for (auto [dst, src] : {std::pair{&all.append_us, &r.append_us},
                            {&all.compact_us, &r.compact_us},
                            {&all.checkpoint_us, &r.checkpoint_us},
                            {&all.host_ref_us, &r.host_ref_us},
                            {&all.queue_wait_us, &r.queue_wait_us},
                            {&all.cache_dropped, &r.cache_dropped}}) {
      dst->insert(dst->end(), src->begin(), src->end());
    }
    all.attempted += r.attempted;
    all.failed += r.failed;
    all.reads_done += r.reads_done;
    all.appends_done += r.appends_done;
    all.approx_answers += r.approx_answers;
    all.approx_exact += r.approx_exact;
    all.alert_seqs.insert(all.alert_seqs.end(), r.alert_seqs.begin(), r.alert_seqs.end());
    all.checks.insert(all.checks.end(), r.checks.begin(), r.checks.end());
    all.errors.insert(all.errors.end(), r.errors.begin(), r.errors.end());
  }

  // --- Checks: counters, alerts, answers. -------------------------------------
  CheckTally tally;
  s2::service::MetricsRegistry& reg = server->metrics();
  tally.Add("completed requests", oracle::CheckEqual("server_completed",
                                                     reg.counter("server_completed")->value(),
                                                     all.reads_done));
  tally.Add("appends", oracle::CheckEqual("stream_appends",
                                          reg.counter("stream_appends")->value(),
                                          all.appends_done));
  // Alerts fired after the last timed poll are drained here, untimed.
  for (const s2::monitor::Alert& a : server->PollAlerts(1 << 20)) {
    all.alert_seqs.push_back(a.seq);
  }
  if (!all.alert_seqs.empty()) {
    Require(server->AckAlerts(all.alert_seqs.back()), "final ack");
  }
  const S2Server::MonitorInfo mon = server->monitor_info();
  tally.Add("alerts", oracle::CheckGapless(all.alert_seqs, 0));
  tally.Add("alerts dropped", oracle::CheckEqual("alerts_dropped", mon.alerts_dropped, 0));
  tally.Add("alerts polled", oracle::CheckEqual("alerts_fired", mon.alerts_fired,
                                                all.alert_seqs.size()));
  const S2Server::StreamInfo stream = server->stream_info();
  const double monitor_eval_us =
      static_cast<double>(reg.histogram("monitor_eval_latency")->sum_micros()) /
      std::max<double>(1.0, static_cast<double>(reg.histogram("monitor_eval_latency")->count()));
  const Clock::time_point c0 = Clock::now();
  CheckAnswers(w, in, eo, all.checks, &tally);
  const double check_s = Seconds(c0, Clock::now());

  // --- Restart from the run's own checkpoint + WAL tail. ------------------------
  const size_t subs_before = mon.active_subscriptions;
  server->Shutdown();
  server.reset();
  double load_ms = 0.0;
  if (args.trace) {
    s2::ckpt::CheckpointStore store(&env, wal_path);
    const Clock::time_point t0 = Clock::now();
    auto loaded = store.Load();
    load_ms = Micros(t0, Clock::now()) / 1e3;
    if (!loaded.ok()) Die("checkpoint load: " + loaded.status().ToString());
  }
  // Seven restarts from the same files; recover_s is their median.
  std::vector<double> restarts;
  for (int attempt = 0; attempt < 7; ++attempt) {
    if (server != nullptr) {
      server->Shutdown();
      server.reset();
    }
    const Clock::time_point r0 = Clock::now();
    auto recovered = S2Server::Recover(in.corpus, eo, so);
    if (!recovered.ok()) Die("recover: " + recovered.status().ToString());
    server = std::move(recovered).ValueOrDie();
    QueryRequest probe;
    probe.kind = RequestKind::kPeriodsOf;
    probe.id = 0;
    Require(server->Execute(probe).status, "first request after restart");
    restarts.push_back(Seconds(r0, Clock::now()));

  }
  const double recover_s = Median(restarts);
  const double replay_ms =
      static_cast<double>(server->stream_info().replay_time.count()) / 1e3;
  {
    const S2Server::CheckpointInfo ci = server->checkpoint_info();
    if (!all.checkpoint_us.empty() && !ci.recovered_from_checkpoint) {
      tally.failures.push_back("restart did not use the run's checkpoint");
    }
    const S2Server::MonitorInfo after = server->monitor_info();
    tally.Add("restart subscriptions",
              oracle::CheckEqual("active_subscriptions", after.active_subscriptions, subs_before));
    tally.Add("restart alert seq", oracle::CheckEqual("next_seq", after.next_seq, mon.next_seq));
    size_t bad_windows = 0;
    for (uint32_t s = 0; s < w.series; ++s) {
      const s2::ts::TimeSeries* series =
          server->is_sharded() ? *server->sharded().Series(s) : &server->engine().corpus().at(s);
      const oracle::Verdict v = oracle::CheckWindow(
          series->values, in.Window(s, all.appends_done, w.days), series->start_day,
          in.corpus.at(s).start_day + static_cast<int32_t>(in.AppendsTo(s, all.appends_done)));
      if (!v.ok && bad_windows++ == 0) tally.failures.push_back("restart series " + std::to_string(s) + ": " + v.why);
    }
    ++tally.checked;
  }
  server->Shutdown();
  server.reset();

  // --- Metrics. ------------------------------------------------------------------
  const auto lat = [&](RequestKind k) { return all.latency_us[VerbIndex(k)]; };
  std::vector<double> lookups = lat(RequestKind::kPeriodsOf);
  for (double x : lat(RequestKind::kBurstsOf)) lookups.push_back(x);
  const std::vector<double> knn = lat(RequestKind::kSimilarTo);
  const double knn_tail_p = TailPercentile(knn.size());
  const double append_tail_p = TailPercentile(all.append_us.size());
  const double appends = std::max<double>(1.0, static_cast<double>(all.appends_done));
  std::vector<const std::vector<double>*> knn_by_client, append_by_client;
  for (const ClientResult& r : results) {
    knn_by_client.push_back(&r.latency_us[VerbIndex(RequestKind::kSimilarTo)]);
    append_by_client.push_back(&r.append_us);
  }

  std::vector<Metric> e2e = {
      {"setup_s", setup_s, "s"},
      {"ops_per_s", static_cast<double>(all.attempted - all.failed) / timed_s, "ops/s"},
      {"knn_p50_ms", Median(knn) / 1e3, "ms"},
      {"knn_tail_ms", BlockTail(knn_by_client, knn_tail_p / 100.0) / 1e3, "ms"},
      {"approx_p50_us", Median(lat(RequestKind::kApproxKnn)), "us"},
      {"dtw_p50_ms", Median(lat(RequestKind::kSimilarToDtw)) / 1e3, "ms"},
      {"qbb_p50_us", Median(lat(RequestKind::kQueryByBurst)), "us"},
      {"lookup_p50_us", Median(lookups), "us"},
      {"append_p50_us", Median(all.append_us), "us"},
      {"append_tail_us", BlockTail(append_by_client, append_tail_p / 100.0), "us"},
      {"recover_s", recover_s, "s"},
      {"peak_rss_mb", peak_rss_mb, "MB"},
      {"bytes_written_per_append", static_cast<double>(io_timed.write_bytes) / appends, "B"},
  };

  // Per-layer metrics, from the traced run's spans.
  std::vector<Metric> layers;
  if (args.trace) {
    auto spans = [&](const char* name) { return tracer.Named(name); };
    auto mean_us = [&](const char* name) {
      std::vector<double> d;
      for (const Span& s : spans(name)) d.push_back(s.micros());
      return Mean(d);
    };
    auto mean_count = [&](const char* name, size_t i) {
      std::vector<double> d;
      for (const Span& s : spans(name)) d.push_back(s.counts[i]);
      return Mean(d);
    };
    const std::vector<Span> shard = spans("shard.search");
    std::vector<double> straggler, merge;
    for (const Span& s : shard) {
      straggler.push_back(s.counts[0] - s.counts[1]);
      merge.push_back(std::max(0.0, s.micros() - s.counts[0]));
    }
    size_t reads = 0, hits = 0;
    for (size_t v = 0; v < kVerbs; ++v) {
      reads += all.reads[v];
      hits += all.cache_hits[v];
    }
    const size_t knn_v = VerbIndex(RequestKind::kSimilarTo);
    std::vector<double> storage_us;
    for (const Span& s : spans("storage.knn_reads")) storage_us.push_back(s.micros());
    layers = {
        {"service.queue_wait_us", Median(all.queue_wait_us), "us"},
        {"service.cache_hit_ratio", static_cast<double>(hits) / std::max<size_t>(1, reads), "ratio"},
        {"service.knn_cache_hit_ratio",
         static_cast<double>(all.cache_hits[knn_v]) / std::max<size_t>(1, all.reads[knn_v]), "ratio"},
        {"service.cache_dropped_per_append", Mean(all.cache_dropped), "entries"},
        {"shard.search_us", mean_count("shard.search", 2), "us"},
        {"shard.straggler_us", Mean(straggler), "us"},
        {"shard.merge_us", Mean(merge), "us"},
        {"shard.radius_prunes_per_query", mean_count("shard.search", 3), "count"},
        {"index.nodes_per_knn", mean_count("index.search", 0), "count"},
        {"index.bounds_per_knn", mean_count("index.search", 1), "count"},
        {"index.retrievals_per_knn", mean_count("index.search", 2), "count"},
        {"index.search_us", mean_us("index.search"), "us"},
        {"approx.rows_scanned_per_query", mean_count("approx.scan", 0), "count"},
        {"approx.candidates_per_query", mean_count("approx.verify", 0), "count"},
        {"approx.verified_per_query", mean_count("approx.verify", 1), "count"},
        {"approx.exact_share",
         static_cast<double>(all.approx_exact) / std::max<size_t>(1, all.approx_answers), "ratio"},
        {"approx.scan_us", mean_us("approx.scan"), "us"},
        {"approx.verify_us", mean_us("approx.verify"), "us"},
        {"dtw.lb_keogh_per_query", mean_count("dtw.search", 0), "count"},
        {"dtw.lb_skips_per_query", mean_count("dtw.search", 1), "count"},
        {"dtw.dtw_computed_per_query", mean_count("dtw.search", 2), "count"},
        {"dtw.search_us", mean_us("dtw.search"), "us"},
        {"period.find_us", mean_us("period.find"), "us"},
        {"burst.qbb_us", mean_us("burst.qbb"), "us"},
        {"burst.table_replace_us", mean_us("burst.table_replace"), "us"},
        {"dsp.refeature_us", mean_us("dsp.refeature"), "us"},
        {"stream.wal_us_per_append",
         static_cast<double>(wal_io.write_ns + wal_io.sync_ns) / 1e3 / appends, "us"},
        {"stream.syncs_per_append", static_cast<double>(wal_io.syncs) / appends, "count"},
        {"stream.delta_size", mean_count("index.search", 3), "series"},
        {"stream.compact_ms", Median(all.compact_us) / 1e3, "ms"},
        {"stream.compactions", static_cast<double>(stream.compaction_count), "count"},
        {"monitor.eval_us_per_append", monitor_eval_us, "us"},
        {"monitor.alerts_per_1k_appends",
         1000.0 * static_cast<double>(all.alert_seqs.size()) / appends, "count"},
        {"ckpt.checkpoint_ms", Median(all.checkpoint_us) / 1e3, "ms"},
        {"ckpt.snapshot_bytes",
         static_cast<double>(ckpt_io.write_bytes) /
             std::max<double>(1.0, static_cast<double>(all.checkpoint_us.size())), "B"},
        {"ckpt.checkpoints", static_cast<double>(all.checkpoint_us.size()), "count"},
        {"ckpt.load_ms", load_ms, "ms"},
        {"ckpt.replay_ms", replay_ms, "ms"},
        {"storage.reads_per_knn", mean_count("storage.knn_reads", 0), "count"},
        {"storage.read_bytes_per_knn", mean_count("storage.knn_reads", 1), "B"},
        {"storage.read_us_per_knn", Mean(storage_us), "us"},
        {"storage.write_bytes_per_append", static_cast<double>(store_io.write_bytes) / appends, "B"},
        {"host.ref_us", Median(all.host_ref_us), "us"},
    };
    if (!args.trace_out.empty() && !tracer.WriteJsonl(args.trace_out)) {
      Die("cannot write " + args.trace_out);
    }
  }

  // --- Report. -------------------------------------------------------------------
  std::printf("workload %s seed %llu seconds %g trace %d simd %s\n", w.name.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds, args.trace ? 1 : 0,
              s2::simd::IsaName(s2::simd::ActiveIsa()));
  std::printf("inputs series %zu days %zu shards %zu clients %zu subscriptions %zu "
              "appends %zu ops %zu\n",
              w.series, w.days, w.shards, w.clients, in.subscriptions.size(),
              in.total_appends, all.attempted);
  std::printf("samples knn %zu (tail p%g) dtw %zu approx %zu qbb %zu lookup %zu "
              "append %zu (tail p%g)\n",
              knn.size(), knn_tail_p, lat(RequestKind::kSimilarToDtw).size(),
              lat(RequestKind::kApproxKnn).size(), lat(RequestKind::kQueryByBurst).size(),
              lookups.size(), all.append_us.size(), append_tail_p);
  std::printf("counts compactions %llu checkpoints %zu alerts %zu timed_s %.3f host_ref_us %.3f\n",
              static_cast<unsigned long long>(stream.compaction_count),
              all.checkpoint_us.size(), all.alert_seqs.size(), timed_s,
              Median(all.host_ref_us));
  std::printf("phases setup_s %.3f timed_s %.3f check_s %.3f recover_s %.3f\n", setup_s,
              timed_s, check_s, recover_s);
  std::printf("checks %zu passed %zu failed %zu skipped_borderline %zu max_rel_err %.3g\n",
              tally.checked, tally.checked - std::min(tally.checked, tally.failures.size()),
              tally.failures.size(), tally.skipped_borderline, tally.max_rel_err);
  for (const std::string& f : tally.failures) std::printf("CHECK FAILED %s\n", f.c_str());
  for (size_t i = 0; i < std::min<size_t>(all.errors.size(), 10); ++i) {
    std::printf("OP FAILED %s\n", all.errors[i].c_str());
  }
  for (const Metric& m : e2e) PrintMetric(m);
  for (const Metric& m : layers) PrintMetric(m);
  // No operation of these workloads may fail: a failed one is a fault.
  const bool correct = tally.failures.empty() && all.failed == 0;
  std::printf("%s\n", Json(correct, all.attempted, all.failed, args.trace ? layers : e2e).c_str());
  std::fflush(stdout);
  std::filesystem::remove_all(args.run_dir);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
