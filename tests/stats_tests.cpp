#include "stats_tests.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace aetr {

double chi_square(const std::vector<double>& observed,
                  const std::vector<double>& expected) {
  assert(observed.size() == expected.size());
  double stat = 0.0;
  for (std::size_t i = 0; i < observed.size(); ++i) {
    if (expected[i] <= 0.0) continue;
    const double d = observed[i] - expected[i];
    stat += d * d / expected[i];
  }
  return stat;
}

double chi_square_uniform(const std::vector<double>& counts) {
  double total = 0.0;
  for (double c : counts) total += c;
  const std::vector<double> expected(counts.size(),
                                     total / static_cast<double>(counts.size()));
  return chi_square(counts, expected);
}

double chi_square_critical_999(std::size_t dof) {
  // Wilson–Hilferty: chi2_q(k) ~ k * (1 - 2/(9k) + z_q * sqrt(2/(9k)))^3,
  // z_0.999 = 3.0902.
  const auto k = static_cast<double>(dof);
  const double z = 3.0902;
  const double t = 1.0 - 2.0 / (9.0 * k) + z * std::sqrt(2.0 / (9.0 * k));
  return k * t * t * t;
}

double ks_exponential(std::vector<double> samples, double mean) {
  assert(!samples.empty() && mean > 0.0);
  std::sort(samples.begin(), samples.end());
  const auto n = static_cast<double>(samples.size());
  double d = 0.0;
  for (std::size_t i = 0; i < samples.size(); ++i) {
    const double cdf = 1.0 - std::exp(-samples[i] / mean);
    const double hi = (static_cast<double>(i) + 1.0) / n - cdf;
    const double lo = cdf - static_cast<double>(i) / n;
    d = std::max({d, hi, lo});
  }
  return d;
}

double ks_critical_999(std::size_t n) {
  // c(alpha) / sqrt(n) with c(0.001) = 1.95.
  return 1.95 / std::sqrt(static_cast<double>(n));
}

}  // namespace aetr
