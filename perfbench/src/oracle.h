#ifndef PERFBENCH_ORACLE_H_
#define PERFBENCH_ORACLE_H_

// The benchmark's own reference computations and answer checks. Nothing
// here calls into the program under test: z-normalisation, Euclidean and
// banded-DTW distances, moving-average bursts and the direct-DFT
// periodogram are written out from their definitions, so a fault shared by
// every configuration of the program still shows.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace perfbench::oracle {

struct Hit {
  uint32_t id = 0;
  double distance = 0.0;
};

struct Region {
  int32_t start = 0;  ///< Absolute day, inclusive.
  int32_t end = 0;    ///< Absolute day, inclusive.
  double avg = 0.0;   ///< Mean z-normalised value over the region.
};

struct Period {
  size_t bin = 0;
  double power = 0.0;
};

/// One query-by-burst match: a series and its burst similarity score.
struct Match {
  uint32_t id = 0;
  double score = 0.0;
};

/// Outcome of one check. `max_rel_err` is the largest relative distance or
/// power difference seen between the answer and the reference.
struct Verdict {
  bool ok = true;
  std::string why;
  double max_rel_err = 0.0;

  void Fail(std::string reason) {
    if (ok) why = std::move(reason);
    ok = false;
  }
};

/// (x - mean) / population standard deviation; all zeros for a flat row.
std::vector<double> ZNormalize(const std::vector<double>& x);

double Euclidean(const std::vector<double>& a, const std::vector<double>& b);

/// sqrt of the cheapest monotone alignment cost, sum of squared point
/// differences, over paths with |i - j| <= window.
double BandedDtw(const std::vector<double>& a, const std::vector<double>& b,
                 size_t window);

/// The `k` nearest rows to row `query` (itself excluded), ascending by
/// (distance, id).
std::vector<Hit> BruteForceKnn(size_t population, uint32_t query, size_t k,
                               const std::function<double(uint32_t)>& distance);

/// Exact kNN answer against the brute-force truth: right length, distinct
/// ids, query excluded, every reported distance equal to the true distance
/// of that id, and rank by rank equal to the true k nearest distances.
Verdict CheckExactKnn(const std::vector<Hit>& answer,
                      const std::vector<Hit>& truth, uint32_t query,
                      size_t expected_size,
                      const std::function<double(uint32_t)>& distance,
                      double tol);

/// Approximate kNN answer against its quality bound: right length, every
/// distance the true one, k-th distance <= (1 + epsilon) * true k-th, and
/// equal to the truth when the bound claims exactness.
Verdict CheckApproxKnn(const std::vector<Hit>& answer,
                       const std::vector<Hit>& truth, uint32_t query,
                       size_t expected_size,
                       const std::function<double(uint32_t)>& distance,
                       bool guaranteed_exact, double epsilon, double tol);

/// Moving-average bursts: z-normalise, trailing mean over `window` days,
/// cutoff = mean + cutoff_stds * std of that mean, consecutive days above
/// the cutoff compacted into regions, regions with mean below `min_avg`
/// dropped. Days within a rounding margin of the cutoff are counted in
/// `borderline` (their side of the cutoff is not decidable).
std::vector<Region> MovingAverageBursts(const std::vector<double>& raw,
                                        size_t window, double cutoff_stds,
                                        double min_avg, int32_t offset,
                                        size_t* borderline);

Verdict CheckBursts(const std::vector<Region>& answer,
                    const std::vector<Region>& reference, double tol);

/// Burst similarity of two burst sets: over every pair of overlapping
/// bursts, the mean of the overlap's share of each burst's length (days
/// inclusive) times 1 / (1 + |difference of their mean heights|), summed.
double BurstSimilarity(const std::vector<Region>& a, const std::vector<Region>& b);

/// Query-by-burst by brute force: every row but `query` scored, rows with a
/// positive score kept, the top `k` by descending score, then id.
std::vector<Match> BruteForceQueryByBurst(size_t population, uint32_t query, size_t k,
                                          const std::function<double(uint32_t)>& score);

/// Query-by-burst answer against the brute-force truth: right length,
/// distinct ids, query excluded, every reported score the true score of that
/// id, and rank by rank equal to the true top scores.
Verdict CheckQueryByBurst(const std::vector<Match>& answer,
                          const std::vector<Match>& truth, uint32_t query,
                          const std::function<double(uint32_t)>& score, double tol);

/// Significant periods: direct DFT of the z-normalised series scaled by
/// 1/sqrt(N), power |X_k|^2 for k = 1..N/2, exponential threshold
/// -mean(power) * ln(p), periods longer than max_period_fraction * N
/// dropped, descending power.
std::vector<Period> DirectPeriods(const std::vector<double>& raw, double p,
                                  double max_period_fraction,
                                  size_t* borderline);

Verdict CheckPeriods(const std::vector<Period>& answer,
                     const std::vector<Period>& reference, double tol);

/// Alert sequence numbers continue `expected_next` with no gap.
Verdict CheckGapless(const std::vector<uint64_t>& seqs, uint64_t expected_next);

/// A recovered window equals the benchmark's shadow copy bit for bit.
Verdict CheckWindow(const std::vector<double>& recovered,
                    const std::vector<double>& shadow, int32_t recovered_start,
                    int32_t shadow_start);

Verdict CheckEqual(const std::string& what, uint64_t program, uint64_t mine);

}  // namespace perfbench::oracle

#endif  // PERFBENCH_ORACLE_H_
