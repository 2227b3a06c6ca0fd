#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

// Workload definitions and seeded input generation. Everything the program
// receives is made here: the corpus and the continuation every append draws
// from (fixed, like a recorded query log), the read panel (fixed: how many
// reads of each verb, on which keys), and from the seed the order those
// reads arrive in, the append order and the standing subscriptions.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "monitor/subscription.h"
#include "service/scheduler.h"
#include "timeseries/time_series.h"

namespace perfbench {

enum class OpKind : uint8_t {
  kRead,        ///< One QueryRequest through Submit -> Get.
  kAppend,      ///< AppendPoint of the next value of the append sequence.
  kCompact,     ///< Compact(), at a fixed point of the sequence.
  kCheckpoint,  ///< Checkpoint(), at a fixed point of the sequence.
  kPoll,        ///< PollAlerts + AckAlerts.
};

struct Op {
  OpKind kind = OpKind::kRead;
  s2::service::RequestKind verb = s2::service::RequestKind::kSimilarTo;
  uint32_t series = 0;
  bool short_horizon = false;
};

/// Relative weights of the six read verbs.
struct VerbMix {
  double knn = 0, dtw = 0, approx = 0, qbb = 0, periods = 0, bursts = 0;
};

struct Workload {
  std::string name;
  size_t series = 0;
  size_t days = 0;        ///< Served window length.
  size_t shards = 1;
  bool disk = false;      ///< Disk-resident sequence store.
  size_t clients = 1;
  size_t cache_capacity = 0;
  size_t subscriptions = 0;
  VerbMix mix;
  /// Hot-key skew of read keys: `hot_share` of the reads go to `hot_keys`
  /// keys, the rest uniformly to the whole corpus.
  size_t hot_keys = 0;
  double hot_share = 0.0;
  /// Explore: client 0 appends once every `append_every` operations.
  /// Ingest: one read after every `append_every - 1` appends.
  size_t append_every = 0;
  size_t compact_every_appends = 0;
  size_t checkpoint_every_appends = 0;
  size_t poll_every_appends = 0;
  /// Fixed operation count per run second, so a run's operation sequence
  /// (and with it every compaction, checkpoint and alert) depends only on
  /// the seed and --seconds, never on how fast the host ran.
  double ops_per_second = 0.0;
};

const Workload* FindWorkload(const std::string& name);

/// Deterministic counter-based generator (splitmix64).
uint64_t Mix64(uint64_t x);

struct Inputs {
  s2::ts::Corpus corpus;                  ///< The served windows.
  std::vector<std::vector<double>> history;  ///< Window + continuation.
  std::vector<uint32_t> append_order;
  std::vector<uint32_t> append_pos;       ///< Position of a series in append_order.
  std::vector<std::vector<Op>> streams;   ///< One operation sequence per client.
  std::vector<s2::monitor::Subscription> subscriptions;
  size_t total_appends = 0;

  /// Series of the `j`-th append of the run.
  uint32_t AppendSeries(size_t j) const {
    return append_order[j % append_order.size()];
  }
  /// Value of the `j`-th append: the next day of that series' continuation.
  double AppendValue(size_t j) const;
  /// Appends series `s` has received after the first `appends` appends.
  size_t AppendsTo(uint32_t s, size_t appends) const;
  /// The window of series `s` after the first `appends` appends.
  std::vector<double> Window(uint32_t s, size_t appends, size_t days) const;
};

/// Builds every input of a run. `seconds` fixes the operation count.
Inputs MakeInputs(const Workload& w, uint64_t seed, double seconds);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_
