#include "common/stats.h"

#include <algorithm>
#include <cstdio>

namespace mpq {

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  if (values.size() == 1) return values[0];
  const double clamped = std::clamp(p, 0.0, 100.0);
  const double rank =
      clamped / 100.0 * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double Median(std::vector<double> values) {
  return Percentile(std::move(values), 50.0);
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

std::vector<CdfPoint> EmpiricalCdf(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  std::vector<CdfPoint> cdf;
  cdf.reserve(values.size());
  const double n = static_cast<double>(values.size());
  for (std::size_t i = 0; i < values.size(); ++i) {
    cdf.push_back({values[i], static_cast<double>(i + 1) / n});
  }
  return cdf;
}

double FractionAbove(const std::vector<double>& values, double threshold) {
  if (values.empty()) return 0.0;
  std::size_t count = 0;
  for (double v : values)
    if (v > threshold) ++count;
  return static_cast<double>(count) / static_cast<double>(values.size());
}

Summary Summarize(const std::vector<double>& values) {
  Summary s;
  s.count = values.size();
  if (values.empty()) return s;
  std::vector<double> sorted = values;
  std::sort(sorted.begin(), sorted.end());
  s.min = sorted.front();
  s.max = sorted.back();
  s.p25 = Percentile(sorted, 25.0);
  s.median = Percentile(sorted, 50.0);
  s.p75 = Percentile(sorted, 75.0);
  s.mean = Mean(sorted);
  return s;
}

std::string FormatSummary(const Summary& s) {
  char buf[192];
  std::snprintf(buf, sizeof(buf),
                "n=%zu min=%.3f p25=%.3f med=%.3f p75=%.3f max=%.3f "
                "mean=%.3f",
                s.count, s.min, s.p25, s.median, s.p75, s.max, s.mean);
  return buf;
}

}  // namespace mpq
