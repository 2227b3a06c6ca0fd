#include "workload.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "querylog/corpus_generator.h"

namespace perfbench {
namespace {

using s2::service::RequestKind;

constexpr uint64_t kCorpusSeed = 20040613;
constexpr uint64_t kTrafficSeed = 0x5eedf00dULL;

// Workload definitions. The comments give the reason for each choice; the
// README's tables repeat the numbers.
const Workload kWorkloads[] = {
    {
        // Analyst traffic: nearly all reads over the six verbs, hot keys,
        // a trickle of appends. RAM-resident, 2 shards, result cache on,
        // 2 closed-loop clients. Time goes to index, approx, dtw, shard
        // fan-out/merge and the cache.
        .name = "explore",
        .series = 8192,
        .days = 256,
        .shards = 2,
        .disk = false,
        .clients = 2,
        .cache_capacity = 1024,
        .subscriptions = 64,
        .mix = {.knn = 20, .dtw = 2, .approx = 20, .qbb = 15, .periods = 21,
                .bursts = 22},
        .hot_keys = 64,
        .hot_share = 0.8,
        .append_every = 20,
        .compact_every_appends = 32,
        .checkpoint_every_appends = 64,
        .poll_every_appends = 16,
        .ops_per_second = 280,
    },
    {
        // The daily-count feed: one feeder appends day by day across every
        // series (fsync per append), subscriptions are polled and acked,
        // one operation in ten is a read. Disk-resident, 1 shard. Time goes
        // to the append path and to storage reads.
        .name = "ingest",
        .series = 2048,
        .days = 256,
        .shards = 1,
        .disk = true,
        .clients = 1,
        .cache_capacity = 1024,
        .subscriptions = 256,
        .mix = {.knn = 25, .dtw = 10, .approx = 20, .qbb = 15, .periods = 15,
                .bursts = 15},
        .hot_keys = 64,
        .hot_share = 0.8,
        .append_every = 10,
        .compact_every_appends = 64,
        .checkpoint_every_appends = 1024,
        .poll_every_appends = 32,
        .ops_per_second = 400,
    },
};

double Unit(uint64_t bits) {
  return static_cast<double>(bits >> 11) * (1.0 / 9007199254740992.0);
}

std::vector<uint32_t> Permutation(size_t n, uint64_t seed) {
  std::vector<uint32_t> p(n);
  for (size_t i = 0; i < n; ++i) p[i] = static_cast<uint32_t>(i);
  for (size_t i = n; i > 1; --i) {
    const size_t j = Mix64(seed + i) % i;
    std::swap(p[i - 1], p[j]);
  }
  return p;
}

// The read traffic of a client is a fixed panel: how many reads of each verb
// it makes (exact shares of the mix) and the key and horizon of the i-th
// read of each verb depend only on the workload and the read count. The run
// seed only shuffles the order they arrive in. Per-query cost depends
// strongly on the key (DTW pruning, burst overlap), so seeded keys made the
// run-to-run spread of the medians mostly a key-sample spread.
class ReadPanel {
 public:
  explicit ReadPanel(const Workload& w)
      : w_(w), hot_(Permutation(w.series, kTrafficSeed)) {}

  std::vector<Op> Reads(size_t client, size_t count, uint64_t seed) const {
    static const RequestKind kVerbs[6] = {
        RequestKind::kSimilarTo,   RequestKind::kSimilarToDtw,
        RequestKind::kApproxKnn,   RequestKind::kQueryByBurst,
        RequestKind::kPeriodsOf,   RequestKind::kBurstsOf};
    const VerbMix& m = w_.mix;
    const double weights[6] = {m.knn, m.dtw, m.approx, m.qbb, m.periods, m.bursts};
    double total = 0.0;
    for (double x : weights) total += x;
    // Largest-remainder rounding, so the counts add up to `count`.
    size_t counts[6];
    double rest[6];
    size_t given = 0;
    for (int v = 0; v < 6; ++v) {
      const double exact = static_cast<double>(count) * weights[v] / total;
      counts[v] = static_cast<size_t>(exact);
      rest[v] = exact - static_cast<double>(counts[v]);
      given += counts[v];
    }
    while (given < count) {
      int best = 0;
      for (int v = 1; v < 6; ++v) {
        if (rest[v] > rest[best]) best = v;
      }
      ++counts[best];
      rest[best] = -1.0;
      ++given;
    }
    std::vector<Op> reads;
    reads.reserve(count);
    for (int v = 0; v < 6; ++v) {
      for (size_t i = 0; i < counts[v]; ++i) {
        const uint64_t r = Mix64(kTrafficSeed ^ Mix64((client * 8 + v + 1) * 0x9e3779b97f4a7c15ULL + i));
        const size_t range = Unit(r) < w_.hot_share ? std::min(w_.hot_keys, w_.series)
                                                    : w_.series;
        Op op;
        op.kind = OpKind::kRead;
        op.verb = kVerbs[v];
        op.series = hot_[Mix64(r + 1) % range];
        op.short_horizon = (Mix64(r + 2) & 1) != 0;
        reads.push_back(op);
      }
    }
    for (size_t i = reads.size(); i > 1; --i) {
      std::swap(reads[i - 1], reads[Mix64(seed ^ Mix64(client * 0x51ed27ULL + i)) % i]);
    }
    return reads;
  }

 private:
  const Workload& w_;
  std::vector<uint32_t> hot_;  ///< The first `hot_keys` entries are the hot set.
};

// Appends one append plus the maintenance ops its count triggers.
void PushAppend(const Workload& w, size_t* appends, std::vector<Op>* out) {
  out->push_back({OpKind::kAppend});
  ++*appends;
  if (*appends % w.poll_every_appends == 0) out->push_back({OpKind::kPoll});
  if (*appends % w.compact_every_appends == 0) out->push_back({OpKind::kCompact});
  // Checkpoints sit a sixteenth of an interval before the round numbers, so
  // a run whose append count is a whole number of intervals still ends with
  // a WAL tail for the restart to replay.
  if ((*appends + w.checkpoint_every_appends / 16) % w.checkpoint_every_appends == 0) {
    out->push_back({OpKind::kCheckpoint});
  }
}

}  // namespace

const Workload* FindWorkload(const std::string& name) {
  for (const Workload& w : kWorkloads) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

double Inputs::AppendValue(size_t j) const {
  const uint32_t s = AppendSeries(j);
  const size_t round = j / append_order.size();
  return history[s][corpus.at(s).values.size() + round];
}

size_t Inputs::AppendsTo(uint32_t s, size_t appends) const {
  const size_t n = append_order.size();
  return appends / n + (append_pos[s] < appends % n ? 1 : 0);
}

std::vector<double> Inputs::Window(uint32_t s, size_t appends, size_t days) const {
  const size_t shift = AppendsTo(s, appends);
  return std::vector<double>(history[s].begin() + static_cast<long>(shift),
                             history[s].begin() + static_cast<long>(shift + days));
}

Inputs MakeInputs(const Workload& w, uint64_t seed, double seconds) {
  Inputs in;
  // The standing subscriptions watch a fixed set of series, and the append
  // order walks that set first, then the rest, each part in seeded order.
  // Every watched series then receives the same values in every run, so
  // every seed fires the same alerts.
  const std::vector<uint32_t> fixed = Permutation(w.series, kTrafficSeed ^ 0xa99e7dULL);
  const size_t watched = std::min(w.subscriptions, w.series);
  for (auto [begin, end] : {std::pair{size_t{0}, watched}, {watched, w.series}}) {
    const std::vector<uint32_t> p = Permutation(end - begin, seed ^ (0xa99e7dULL + begin));
    for (size_t i = 0; i < end - begin; ++i) in.append_order.push_back(fixed[begin + p[i]]);
  }
  in.append_pos.resize(w.series);
  for (size_t i = 0; i < w.series; ++i) in.append_pos[in.append_order[i]] = static_cast<uint32_t>(i);

  // Operation sequences first: they fix how many appends the run makes,
  // and so how many days of continuation each series needs.
  const ReadPanel panel(w);
  in.streams.resize(w.clients);
  size_t appends = 0;
  if (w.clients > 1) {
    const size_t per_client =
        std::max<size_t>(1, static_cast<size_t>(std::llround(seconds * w.ops_per_second)));
    for (size_t c = 0; c < w.clients; ++c) {
      // Only client 0 appends, so the append order (and with it every
      // alert and its sequence number) is fixed by the seed.
      const size_t own_appends = c == 0 ? per_client / w.append_every : 0;
      const std::vector<Op> reads = panel.Reads(c, per_client - own_appends, seed);
      size_t next = 0;
      for (size_t j = 0; j < per_client; ++j) {
        if (c == 0 && (j + 1) % w.append_every == 0) {
          PushAppend(w, &appends, &in.streams[c]);
        } else {
          in.streams[c].push_back(reads[next++]);
        }
      }
    }
  } else {
    // Whole days: every series gets the same number of appends.
    const size_t days = std::max<size_t>(
        1, static_cast<size_t>(std::llround(seconds * w.ops_per_second /
                                            static_cast<double>(w.series))));
    const std::vector<Op> reads = panel.Reads(0, days * w.series / (w.append_every - 1), seed);
    size_t next = 0;
    while (appends < days * w.series) {
      PushAppend(w, &appends, &in.streams[0]);
      if (appends % (w.append_every - 1) == 0) in.streams[0].push_back(reads[next++]);
    }
  }
  in.total_appends = appends;

  const size_t extra_days = appends / w.series + 2;
  s2::qlog::CorpusSpec spec;
  spec.num_series = w.series;
  spec.n_days = w.days + extra_days;
  // The corpus is the same for every seed, like a fixed query log; the
  // seed drives the traffic over it (the order of the panel's reads, the
  // append order, which series the subscriptions watch). Per-query cost depends strongly on the
  // corpus, so a seeded corpus would make run-to-run spread mostly
  // corpus-to-corpus spread.
  spec.seed = kCorpusSeed;
  auto generated = s2::qlog::GenerateCorpus(spec);
  if (!generated.ok()) {
    std::fprintf(stderr, "corpus generation failed: %s\n",
                 generated.status().ToString().c_str());
    std::exit(2);
  }
  in.history.reserve(w.series);
  for (const s2::ts::TimeSeries& full : generated->series()) {
    in.history.push_back(full.values);
    s2::ts::TimeSeries served = full;
    served.values.resize(w.days);
    in.corpus.Add(std::move(served));
  }

  // Kinds rotate burst / periodicity / similarity over the watched set.
  for (size_t i = 0; i < w.subscriptions; ++i) {
    s2::monitor::Subscription sub;
    sub.series = fixed[i % w.series];
    switch (i % 3) {
      case 0:
        sub.kind = s2::monitor::SubscriptionKind::kBurstThreshold;
        sub.burst = {7, 1.5, 1.2};
        break;
      case 1:
        sub.kind = s2::monitor::SubscriptionKind::kPeriodicityChange;
        break;
      default: {
        // Watch for the series reaching its own window one append ahead:
        // the first append brings the distance to 0 and fires an enter.
        sub.kind = s2::monitor::SubscriptionKind::kSimilarityWatch;
        const std::vector<double>& h = in.history[sub.series];
        sub.similarity.query.assign(h.begin() + 1, h.begin() + 1 + static_cast<long>(w.days));
        sub.similarity.radius = 1.0;
        break;
      }
    }
    in.subscriptions.push_back(sub);
  }
  return in;
}

}  // namespace perfbench
