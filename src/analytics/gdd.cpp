#include "analytics/gdd.hpp"

#include <algorithm>
#include <cmath>

namespace fascia::analytics {

GddHistogram gdd_histogram(const std::vector<double>& degrees) {
  // Sort the positive rounded keys once, then append each run of equal
  // keys at the map's end: one hinted O(1) insert per distinct degree
  // instead of a tree descent per vertex.
  std::vector<std::int64_t> keys;
  keys.reserve(degrees.size());
  for (double degree : degrees) {
    const auto j = static_cast<std::int64_t>(std::llround(degree));
    if (j > 0) keys.push_back(j);
  }
  std::sort(keys.begin(), keys.end());
  GddHistogram hist;
  for (std::size_t i = 0; i < keys.size();) {
    std::size_t end = i + 1;
    while (end < keys.size() && keys[end] == keys[i]) ++end;
    hist.emplace_hint(hist.end(), keys[i], static_cast<double>(end - i));
    i = end;
  }
  return hist;
}

namespace {

/// N(j) = (d(j)/j) / Σ_i d(i)/i, sparse.
GddHistogram normalize(const GddHistogram& hist) {
  GddHistogram scaled;
  double total = 0.0;
  for (const auto& [degree, count] : hist) {
    const double s = count / static_cast<double>(degree);
    scaled[degree] = s;
    total += s;
  }
  if (total > 0.0) {
    for (auto& [degree, value] : scaled) value /= total;
  }
  return scaled;
}

}  // namespace

double gdd_agreement_from_histograms(const GddHistogram& hist_a,
                                     const GddHistogram& hist_b) {
  const GddHistogram normalized_a = normalize(hist_a);
  const GddHistogram normalized_b = normalize(hist_b);

  // L2 over the union of occurring degrees (absent = 0).
  double sum_sq = 0.0;
  auto it_a = normalized_a.begin();
  auto it_b = normalized_b.begin();
  while (it_a != normalized_a.end() || it_b != normalized_b.end()) {
    double diff = 0.0;
    if (it_b == normalized_b.end() ||
        (it_a != normalized_a.end() && it_a->first < it_b->first)) {
      diff = it_a->second;
      ++it_a;
    } else if (it_a == normalized_a.end() || it_b->first < it_a->first) {
      diff = it_b->second;
      ++it_b;
    } else {
      diff = it_a->second - it_b->second;
      ++it_a;
      ++it_b;
    }
    sum_sq += diff * diff;
  }
  return 1.0 - std::sqrt(sum_sq) / std::sqrt(2.0);
}

double gdd_agreement(const std::vector<double>& degrees_a,
                     const std::vector<double>& degrees_b) {
  return gdd_agreement_from_histograms(gdd_histogram(degrees_a),
                                       gdd_histogram(degrees_b));
}

}  // namespace fascia::analytics
