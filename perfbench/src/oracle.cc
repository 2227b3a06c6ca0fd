#include "oracle.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <set>
#include <sstream>

namespace perfbench::oracle {
namespace {

double RelErr(double a, double b) {
  return std::abs(a - b) / std::max(1.0, std::abs(b));
}

std::string Str(double v) {
  std::ostringstream os;
  os.precision(17);
  os << v;
  return os.str();
}

bool ByDistanceThenId(const Hit& a, const Hit& b) {
  if (a.distance != b.distance) return a.distance < b.distance;
  return a.id < b.id;
}

// Length, distinct ids, query excluded, reported distances true.
void CheckShape(const std::vector<Hit>& answer, uint32_t query,
                size_t expected_size,
                const std::function<double(uint32_t)>& distance, double tol,
                Verdict* v) {
  if (answer.size() != expected_size) {
    v->Fail("answer has " + std::to_string(answer.size()) + " neighbors, want " +
            std::to_string(expected_size));
    return;
  }
  std::set<uint32_t> seen;
  for (size_t r = 0; r < answer.size(); ++r) {
    const Hit& h = answer[r];
    if (h.id == query) v->Fail("answer contains the query itself");
    if (!seen.insert(h.id).second) {
      v->Fail("id " + std::to_string(h.id) + " returned twice");
    }
    const double truth = distance(h.id);
    const double err = RelErr(h.distance, truth);
    v->max_rel_err = std::max(v->max_rel_err, err);
    if (err > tol) {
      v->Fail("id " + std::to_string(h.id) + " reported at " + Str(h.distance) +
              ", true distance " + Str(truth));
    }
    if (r > 0 && answer[r].distance < answer[r - 1].distance * (1 - tol)) {
      v->Fail("answer not in ascending distance order");
    }
  }
}

}  // namespace

std::vector<double> ZNormalize(const std::vector<double>& x) {
  const double n = static_cast<double>(x.size());
  double mean = 0.0;
  for (double v : x) mean += v;
  mean /= n;
  double var = 0.0;
  for (double v : x) var += (v - mean) * (v - mean);
  const double sd = std::sqrt(var / n);
  std::vector<double> z(x.size(), 0.0);
  if (sd == 0.0) return z;
  for (size_t i = 0; i < x.size(); ++i) z[i] = (x[i] - mean) / sd;
  return z;
}

double Euclidean(const std::vector<double>& a, const std::vector<double>& b) {
  double sum = 0.0;
  for (size_t i = 0; i < a.size(); ++i) {
    const double d = a[i] - b[i];
    sum += d * d;
  }
  return std::sqrt(sum);
}

double BandedDtw(const std::vector<double>& a, const std::vector<double>& b,
                 size_t window) {
  const size_t n = a.size();
  const double inf = std::numeric_limits<double>::infinity();
  // cost[i][j] over the full matrix, cells outside the band stay infinite.
  std::vector<double> prev(n + 1, inf);
  std::vector<double> cur(n + 1, inf);
  prev[0] = 0.0;
  for (size_t i = 1; i <= n; ++i) {
    std::fill(cur.begin(), cur.end(), inf);
    const size_t lo = i > window ? i - window : 1;
    const size_t hi = std::min(n, i + window);
    for (size_t j = lo; j <= hi; ++j) {
      const double d = a[i - 1] - b[j - 1];
      const double best = std::min({prev[j - 1], prev[j], cur[j - 1]});
      cur[j] = d * d + best;
    }
    std::swap(prev, cur);
  }
  return std::sqrt(prev[n]);
}

std::vector<Hit> BruteForceKnn(size_t population, uint32_t query, size_t k,
                               const std::function<double(uint32_t)>& distance) {
  std::vector<Hit> all;
  all.reserve(population);
  for (uint32_t id = 0; id < population; ++id) {
    if (id == query) continue;
    all.push_back({id, distance(id)});
  }
  const size_t keep = std::min(k, all.size());
  std::partial_sort(all.begin(), all.begin() + static_cast<long>(keep),
                    all.end(), ByDistanceThenId);
  all.resize(keep);
  return all;
}

Verdict CheckExactKnn(const std::vector<Hit>& answer,
                      const std::vector<Hit>& truth, uint32_t query,
                      size_t expected_size,
                      const std::function<double(uint32_t)>& distance,
                      double tol) {
  Verdict v;
  CheckShape(answer, query, expected_size, distance, tol, &v);
  if (!v.ok) return v;
  for (size_t r = 0; r < answer.size(); ++r) {
    const double err = RelErr(answer[r].distance, truth[r].distance);
    v.max_rel_err = std::max(v.max_rel_err, err);
    if (err > tol) {
      v.Fail("rank " + std::to_string(r) + " distance " +
             Str(answer[r].distance) + ", brute force " +
             Str(truth[r].distance));
    }
  }
  return v;
}

Verdict CheckApproxKnn(const std::vector<Hit>& answer,
                       const std::vector<Hit>& truth, uint32_t query,
                       size_t expected_size,
                       const std::function<double(uint32_t)>& distance,
                       bool guaranteed_exact, double epsilon, double tol) {
  Verdict v;
  CheckShape(answer, query, expected_size, distance, tol, &v);
  if (!v.ok || answer.empty()) return v;
  const double kth = answer.back().distance;
  const double true_kth = truth.back().distance;
  if (kth > (1.0 + epsilon) * true_kth * (1.0 + tol) + tol) {
    v.Fail("k-th distance " + Str(kth) + " exceeds (1 + " + Str(epsilon) +
           ") * true k-th " + Str(true_kth));
  }
  if (guaranteed_exact) {
    for (size_t r = 0; r < answer.size(); ++r) {
      if (RelErr(answer[r].distance, truth[r].distance) > tol) {
        v.Fail("bound claims exact but rank " + std::to_string(r) + " is " +
               Str(answer[r].distance) + ", brute force " +
               Str(truth[r].distance));
      }
    }
  }
  return v;
}

std::vector<Region> MovingAverageBursts(const std::vector<double>& raw,
                                        size_t window, double cutoff_stds,
                                        double min_avg, int32_t offset,
                                        size_t* borderline) {
  const std::vector<double> z = ZNormalize(raw);
  const size_t n = z.size();
  std::vector<double> ma(n);
  for (size_t i = 0; i < n; ++i) {
    const size_t lo = i + 1 >= window ? i + 1 - window : 0;
    double sum = 0.0;
    for (size_t j = lo; j <= i; ++j) sum += z[j];
    ma[i] = sum / static_cast<double>(i - lo + 1);
  }
  double mean = 0.0;
  for (double v : ma) mean += v;
  mean /= static_cast<double>(n);
  double var = 0.0;
  for (double v : ma) var += (v - mean) * (v - mean);
  const double cutoff = mean + cutoff_stds * std::sqrt(var / static_cast<double>(n));
  const double margin = 1e-9 * (1.0 + std::abs(cutoff));

  std::vector<Region> out;
  size_t start = n;
  double sum = 0.0;
  auto flush = [&](size_t end) {
    if (start == n) return;
    Region r;
    r.start = offset + static_cast<int32_t>(start);
    r.end = offset + static_cast<int32_t>(end);
    r.avg = sum / static_cast<double>(end - start + 1);
    if (r.avg >= min_avg) out.push_back(r);
    start = n;
    sum = 0.0;
  };
  for (size_t i = 0; i < n; ++i) {
    if (std::abs(ma[i] - cutoff) <= margin && borderline != nullptr) {
      ++*borderline;
    }
    if (ma[i] > cutoff) {
      if (start == n) start = i;
      sum += z[i];
    } else if (start != n) {
      flush(i - 1);
    }
  }
  if (start != n) flush(n - 1);
  return out;
}

Verdict CheckBursts(const std::vector<Region>& answer,
                    const std::vector<Region>& reference, double tol) {
  Verdict v;
  if (answer.size() != reference.size()) {
    v.Fail("answer has " + std::to_string(answer.size()) + " bursts, want " +
           std::to_string(reference.size()));
    return v;
  }
  for (size_t i = 0; i < answer.size(); ++i) {
    const Region& a = answer[i];
    const Region& r = reference[i];
    if (a.start != r.start || a.end != r.end) {
      v.Fail("burst " + std::to_string(i) + " spans [" + std::to_string(a.start) +
             "," + std::to_string(a.end) + "], want [" + std::to_string(r.start) +
             "," + std::to_string(r.end) + "]");
    }
    const double err = RelErr(a.avg, r.avg);
    v.max_rel_err = std::max(v.max_rel_err, err);
    if (err > tol) {
      v.Fail("burst " + std::to_string(i) + " height " + Str(a.avg) + ", want " +
             Str(r.avg));
    }
  }
  return v;
}

double BurstSimilarity(const std::vector<Region>& a, const std::vector<Region>& b) {
  double total = 0.0;
  for (const Region& x : a) {
    for (const Region& y : b) {
      const int32_t overlap = std::min(x.end, y.end) - std::max(x.start, y.start) + 1;
      if (overlap <= 0) continue;
      const double share = 0.5 * (static_cast<double>(overlap) / (x.end - x.start + 1) +
                                  static_cast<double>(overlap) / (y.end - y.start + 1));
      total += share / (1.0 + std::abs(x.avg - y.avg));
    }
  }
  return total;
}

std::vector<Match> BruteForceQueryByBurst(size_t population, uint32_t query, size_t k,
                                          const std::function<double(uint32_t)>& score) {
  std::vector<Match> all;
  for (uint32_t id = 0; id < population; ++id) {
    if (id == query) continue;
    const double s = score(id);
    if (s > 0.0) all.push_back({id, s});
  }
  std::sort(all.begin(), all.end(), [](const Match& a, const Match& b) {
    return a.score != b.score ? a.score > b.score : a.id < b.id;
  });
  if (all.size() > k) all.resize(k);
  return all;
}

Verdict CheckQueryByBurst(const std::vector<Match>& answer,
                          const std::vector<Match>& truth, uint32_t query,
                          const std::function<double(uint32_t)>& score, double tol) {
  Verdict v;
  if (answer.size() != truth.size()) {
    v.Fail("answer has " + std::to_string(answer.size()) + " matches, want " +
           std::to_string(truth.size()));
    return v;
  }
  std::set<uint32_t> seen;
  for (size_t r = 0; r < answer.size(); ++r) {
    const Match& m = answer[r];
    if (m.id == query) v.Fail("answer contains the query itself");
    if (!seen.insert(m.id).second) v.Fail("id " + std::to_string(m.id) + " returned twice");
    const double mine = score(m.id);
    const double err = std::max(RelErr(m.score, mine), RelErr(m.score, truth[r].score));
    v.max_rel_err = std::max(v.max_rel_err, err);
    if (RelErr(m.score, mine) > tol) {
      v.Fail("id " + std::to_string(m.id) + " scored " + Str(m.score) + ", true score " +
             Str(mine));
    }
    if (RelErr(m.score, truth[r].score) > tol) {
      v.Fail("rank " + std::to_string(r) + " score " + Str(m.score) + ", brute force " +
             Str(truth[r].score));
    }
  }
  return v;
}

std::vector<Period> DirectPeriods(const std::vector<double>& raw, double p,
                                  double max_period_fraction,
                                  size_t* borderline) {
  const std::vector<double> z = ZNormalize(raw);
  const size_t n = z.size();
  const double pi = std::acos(-1.0);
  std::vector<double> cos_t(n), sin_t(n);
  for (size_t m = 0; m < n; ++m) {
    const double angle = 2.0 * pi * static_cast<double>(m) / static_cast<double>(n);
    cos_t[m] = std::cos(angle);
    sin_t[m] = std::sin(angle);
  }
  const size_t bins = n / 2 + 1;
  std::vector<double> power(bins, 0.0);
  for (size_t k = 0; k < bins; ++k) {
    double re = 0.0, im = 0.0;
    for (size_t i = 0; i < n; ++i) {
      const size_t m = (k * i) % n;
      re += z[i] * cos_t[m];
      im -= z[i] * sin_t[m];
    }
    power[k] = (re * re + im * im) / static_cast<double>(n);
  }
  double mu = 0.0;
  for (size_t k = 1; k < bins; ++k) mu += power[k];
  mu /= static_cast<double>(bins - 1);
  const double threshold = -mu * std::log(p);
  const double max_period = max_period_fraction * static_cast<double>(n);
  std::vector<Period> out;
  for (size_t k = 1; k < bins; ++k) {
    if (borderline != nullptr &&
        std::abs(power[k] - threshold) <= 1e-8 * threshold) {
      ++*borderline;
    }
    if (power[k] <= threshold) continue;
    const double period = static_cast<double>(n) / static_cast<double>(k);
    if (max_period > 0.0 && period > max_period) continue;
    out.push_back({k, power[k]});
  }
  std::stable_sort(out.begin(), out.end(), [](const Period& a, const Period& b) {
    return a.power > b.power;
  });
  return out;
}

Verdict CheckPeriods(const std::vector<Period>& answer,
                     const std::vector<Period>& reference, double tol) {
  Verdict v;
  if (answer.size() != reference.size()) {
    v.Fail("answer has " + std::to_string(answer.size()) + " periods, want " +
           std::to_string(reference.size()));
    return v;
  }
  for (size_t i = 0; i < answer.size(); ++i) {
    if (answer[i].bin != reference[i].bin) {
      v.Fail("period " + std::to_string(i) + " at bin " +
             std::to_string(answer[i].bin) + ", want bin " +
             std::to_string(reference[i].bin));
    }
    const double err = RelErr(answer[i].power, reference[i].power);
    v.max_rel_err = std::max(v.max_rel_err, err);
    if (err > tol) {
      v.Fail("period " + std::to_string(i) + " power " + Str(answer[i].power) +
             ", want " + Str(reference[i].power));
    }
  }
  return v;
}

Verdict CheckGapless(const std::vector<uint64_t>& seqs, uint64_t expected_next) {
  Verdict v;
  for (uint64_t seq : seqs) {
    if (seq != expected_next) {
      v.Fail("alert seq " + std::to_string(seq) + ", want " +
             std::to_string(expected_next));
      return v;
    }
    ++expected_next;
  }
  return v;
}

Verdict CheckWindow(const std::vector<double>& recovered,
                    const std::vector<double>& shadow, int32_t recovered_start,
                    int32_t shadow_start) {
  Verdict v;
  if (recovered_start != shadow_start) {
    v.Fail("window starts on day " + std::to_string(recovered_start) +
           ", want " + std::to_string(shadow_start));
  } else if (recovered != shadow) {
    v.Fail("window values differ from the acknowledged appends");
  }
  return v;
}

Verdict CheckEqual(const std::string& what, uint64_t program, uint64_t mine) {
  Verdict v;
  if (program != mine) {
    v.Fail(what + ": program counts " + std::to_string(program) +
           ", benchmark counts " + std::to_string(mine));
  }
  return v;
}

}  // namespace perfbench::oracle
