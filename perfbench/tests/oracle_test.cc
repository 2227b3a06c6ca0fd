// Each answer check of the benchmark, fed a right answer (must pass) and one
// wrong answer (must fail). The burst and period references are also
// compared with the program's own detectors on a synthetic series.
//
//   python3 perfbench/run.py --selftest

#include <cmath>
#include <cstdio>
#include <vector>

#include "burst/burst_detector.h"
#include "burst/burst_table.h"
#include "oracle.h"
#include "period/period_detector.h"

namespace {

int failures = 0;

#define EXPECT(cond)                                                   \
  do {                                                                 \
    if (!(cond)) {                                                     \
      std::printf("FAILED %s:%d: %s\n", __FILE__, __LINE__, #cond);    \
      ++failures;                                                      \
    }                                                                  \
  } while (0)

using namespace perfbench::oracle;

std::vector<std::vector<double>> Rows(size_t n, size_t len) {
  std::vector<std::vector<double>> rows(n, std::vector<double>(len));
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < len; ++j) {
      rows[i][j] = std::sin(0.37 * static_cast<double>(j) * (1.0 + 0.013 * i)) +
                   0.1 * std::cos(static_cast<double>(i * j % 17));
    }
    rows[i] = ZNormalize(rows[i]);
  }
  return rows;
}

// A year of weekly demand with one burst in the middle.
std::vector<double> Demand(size_t len) {
  std::vector<double> x(len);
  for (size_t i = 0; i < len; ++i) {
    x[i] = 100 + 30 * std::sin(2 * M_PI * static_cast<double>(i) / 7.0) +
           5 * std::cos(0.3 * static_cast<double>(i * i % 11));
    if (i >= 120 && i < 140) x[i] += 150;
  }
  return x;
}

void TestExactKnn() {
  const auto rows = Rows(200, 64);
  const uint32_t q = 7;
  auto dist = [&](uint32_t id) { return Euclidean(rows[q], rows[id]); };
  const auto truth = BruteForceKnn(rows.size(), q, 10, dist);
  EXPECT(CheckExactKnn(truth, truth, q, 10, dist, 1e-9).ok);

  auto wrong_id = truth;  // the 11th nearest in place of the 10th
  const auto eleven = BruteForceKnn(rows.size(), q, 11, dist);
  wrong_id.back() = eleven.back();
  EXPECT(!CheckExactKnn(wrong_id, truth, q, 10, dist, 1e-9).ok);

  auto wrong_distance = truth;
  wrong_distance[3].distance *= 1 + 1e-6;
  EXPECT(!CheckExactKnn(wrong_distance, truth, q, 10, dist, 1e-9).ok);

  auto self = truth;
  self[0] = {q, 0.0};
  EXPECT(!CheckExactKnn(self, truth, q, 10, dist, 1e-9).ok);

  auto short_answer = truth;
  short_answer.pop_back();
  EXPECT(!CheckExactKnn(short_answer, truth, q, 10, dist, 1e-9).ok);
}

void TestDtw() {
  const std::vector<double> a = {0, 1, 2, 3, 2, 1, 0, 0};
  const std::vector<double> b = {0, 0, 1, 2, 3, 2, 1, 0};
  EXPECT(BandedDtw(a, a, 2) == 0.0);
  EXPECT(BandedDtw(a, b, 1) == 0.0);  // b is a shifted by one day
  EXPECT(BandedDtw(a, b, 0) == Euclidean(a, b));
  EXPECT(BandedDtw(a, b, 0) > 0.0);

  const auto rows = Rows(120, 48);
  const uint32_t q = 3;
  auto dist = [&](uint32_t id) { return BandedDtw(rows[q], rows[id], 4); };
  const auto truth = BruteForceKnn(rows.size(), q, 5, dist);
  EXPECT(CheckExactKnn(truth, truth, q, 5, dist, 1e-9).ok);
  auto euclid = truth;  // Euclidean distances reported as DTW ones
  for (auto& h : euclid) h.distance = Euclidean(rows[q], rows[h.id]);
  EXPECT(!CheckExactKnn(euclid, truth, q, 5, dist, 1e-9).ok);
}

void TestApproxKnn() {
  const auto rows = Rows(200, 64);
  const uint32_t q = 11;
  auto dist = [&](uint32_t id) { return Euclidean(rows[q], rows[id]); };
  const auto truth = BruteForceKnn(rows.size(), q, 10, dist);
  EXPECT(CheckApproxKnn(truth, truth, q, 10, dist, true, 0.0, 1e-9).ok);

  auto miss = truth;  // the true 10th replaced by the 12th
  miss.back() = BruteForceKnn(rows.size(), q, 12, dist).back();
  const double eps = miss.back().distance / truth.back().distance - 1.0;
  EXPECT(CheckApproxKnn(miss, truth, q, 10, dist, false, eps, 1e-9).ok);
  EXPECT(!CheckApproxKnn(miss, truth, q, 10, dist, false, eps / 2, 1e-9).ok);
  EXPECT(!CheckApproxKnn(miss, truth, q, 10, dist, true, eps, 1e-9).ok);

  auto wrong_distance = truth;
  wrong_distance[0].distance *= 0.5;
  EXPECT(!CheckApproxKnn(wrong_distance, truth, q, 10, dist, false, 1.0, 1e-9).ok);
}

void TestBursts() {
  const std::vector<double> x = Demand(256);
  const s2::burst::BurstDetector::Options opts{30, 1.5, true};
  auto program = s2::burst::BurstDetector(opts).Detect(x);
  EXPECT(program.ok());
  size_t borderline = 0;
  const auto mine = MovingAverageBursts(x, opts.window, opts.cutoff_stds,
                                        opts.min_avg_value, 5, &borderline);
  EXPECT(borderline == 0);
  EXPECT(!mine.empty());
  std::vector<Region> answer;
  for (const auto& r : *program) answer.push_back({r.start + 5, r.end + 5, r.avg_value});
  EXPECT(CheckBursts(answer, mine, 1e-8).ok);

  auto shifted = answer;
  shifted[0].end += 1;
  EXPECT(!CheckBursts(shifted, mine, 1e-8).ok);
  auto taller = answer;
  taller[0].avg *= 1.001;
  EXPECT(!CheckBursts(taller, mine, 1e-8).ok);
  auto dropped = answer;
  dropped.pop_back();
  EXPECT(!CheckBursts(dropped, mine, 1e-8).ok);
}

void TestQueryByBurst() {
  // Twelve series sharing one demand shape, each with its own burst
  // shifted by a few days, so the overlaps (and scores) differ.
  std::vector<std::vector<Region>> bursts;
  for (int s = 0; s < 12; ++s) {
    std::vector<double> x = Demand(256);
    for (int i = 0; i < 20; ++i) x[static_cast<size_t>(60 + 3 * s + i)] += 120 + 5 * s;
    bursts.push_back(MovingAverageBursts(x, 7, 1.5, 1.2, 0, nullptr));
  }
  const uint32_t q = 4;
  auto score = [&](uint32_t id) { return BurstSimilarity(bursts[q], bursts[id]); };
  EXPECT(BurstSimilarity({{10, 19, 2.0}}, {{10, 19, 2.0}}) == 1.0);
  EXPECT(BurstSimilarity({{10, 19, 2.0}}, {{20, 29, 2.0}}) == 0.0);
  EXPECT(BurstSimilarity({{10, 19, 2.0}}, {{15, 19, 3.0}}) == 0.75 * 0.5);

  // The program's own table answers the same query.
  s2::burst::BurstTable table;
  for (uint32_t s = 0; s < bursts.size(); ++s) {
    std::vector<s2::burst::BurstRegion> regions;
    for (const Region& r : bursts[s]) regions.push_back({r.start, r.end, r.avg});
    table.Insert(s, regions, 0);
  }
  std::vector<s2::burst::BurstRegion> query;
  for (const Region& r : bursts[q]) query.push_back({r.start, r.end, r.avg});
  std::vector<Match> answer;
  for (const auto& m : table.QueryByBurst(query, 5, q)) answer.push_back({m.series_id, m.bsim});
  const auto truth = BruteForceQueryByBurst(bursts.size(), q, 5, score);
  EXPECT(truth.size() == 5);
  const Verdict ok = CheckQueryByBurst(answer, truth, q, score, 1e-9);
  EXPECT(ok.ok);
  EXPECT(ok.max_rel_err < 1e-12);

  auto swapped = answer;  // ranks 0 and 1 exchanged
  std::swap(swapped[0], swapped[1]);
  EXPECT(!CheckQueryByBurst(swapped, truth, q, score, 1e-9).ok);
  auto wrong_score = answer;
  wrong_score[2].score *= 1.001;
  EXPECT(!CheckQueryByBurst(wrong_score, truth, q, score, 1e-9).ok);
  auto self = answer;
  self[0] = {q, score(answer[0].id)};
  EXPECT(!CheckQueryByBurst(self, truth, q, score, 1e-9).ok);
  auto empty = answer;
  empty.clear();
  EXPECT(!CheckQueryByBurst(empty, truth, q, score, 1e-9).ok);
}

void TestPeriods() {
  const std::vector<double> x = Demand(256);
  const s2::period::PeriodDetector detector;
  auto program = detector.Detect(x);
  EXPECT(program.ok());
  size_t borderline = 0;
  const auto mine = DirectPeriods(x, detector.options().false_alarm_probability,
                                  detector.options().max_period_fraction, &borderline);
  EXPECT(borderline == 0);
  EXPECT(!mine.empty());
  std::vector<Period> answer;
  for (const auto& h : *program) answer.push_back({h.bin, h.power});
  const Verdict ok = CheckPeriods(answer, mine, 1e-8);
  EXPECT(ok.ok);
  EXPECT(ok.max_rel_err < 1e-10);

  auto wrong_bin = answer;
  wrong_bin[0].bin += 1;
  EXPECT(!CheckPeriods(wrong_bin, mine, 1e-8).ok);
  auto wrong_power = answer;
  wrong_power[0].power *= 1.0001;
  EXPECT(!CheckPeriods(wrong_power, mine, 1e-8).ok);
  auto extra = answer;
  extra.push_back({3, 1.0});
  EXPECT(!CheckPeriods(extra, mine, 1e-8).ok);
}

void TestRestartAndCounters() {
  EXPECT(CheckGapless({0, 1, 2, 3}, 0).ok);
  EXPECT(CheckGapless({}, 0).ok);
  EXPECT(!CheckGapless({0, 1, 3}, 0).ok);
  EXPECT(!CheckGapless({1, 2}, 0).ok);
  EXPECT(!CheckGapless({0, 1, 1, 2}, 0).ok);  // a duplicate delivery

  const std::vector<double> w = {1, 2, 3, 4};
  EXPECT(CheckWindow(w, w, 9, 9).ok);
  EXPECT(!CheckWindow({1, 2, 3, 5}, w, 9, 9).ok);
  EXPECT(!CheckWindow(w, w, 8, 9).ok);

  EXPECT(CheckEqual("appends", 10, 10).ok);
  EXPECT(!CheckEqual("appends", 9, 10).ok);
}

}  // namespace

int main() {
  TestExactKnn();
  TestDtw();
  TestApproxKnn();
  TestBursts();
  TestQueryByBurst();
  TestPeriods();
  TestRestartAndCounters();
  std::printf("oracle_test: %s (%d failures)\n", failures == 0 ? "PASS" : "FAIL",
              failures);
  return failures == 0 ? 0 : 1;
}
