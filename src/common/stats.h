// Small statistics toolkit used by the experiment harness: medians,
// percentiles, empirical CDFs and five-number summaries. These back the
// figure reproductions (CDF plots of completion-time ratios, aggregation
// benefit box plots).
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace mpq {

/// Interpolated percentile of a sample, p in [0, 100]. The input need not
/// be sorted. Returns 0 for an empty sample (callers guard, tests assert).
double Percentile(std::vector<double> values, double p);

/// Median (50th percentile).
double Median(std::vector<double> values);

double Mean(const std::vector<double>& values);

/// One point of an empirical CDF.
struct CdfPoint {
  double value = 0.0;
  double cumulative_probability = 0.0;  // in (0, 1]
};

/// Empirical CDF of the sample (sorted values, each with its cumulative
/// probability i/n). This is exactly what the paper's CDF figures plot.
std::vector<CdfPoint> EmpiricalCdf(std::vector<double> values);

/// Fraction of values strictly greater than `threshold` — used for claims
/// like "MPQUIC outperforms MPTCP in 89% of scenarios" (ratio > 1).
double FractionAbove(const std::vector<double>& values, double threshold);

/// Five-number summary + mean, the data behind a box plot.
struct Summary {
  std::size_t count = 0;
  double min = 0.0;
  double p25 = 0.0;
  double median = 0.0;
  double p75 = 0.0;
  double max = 0.0;
  double mean = 0.0;
};

Summary Summarize(const std::vector<double>& values);

/// Render a summary as one human-readable row (used by bench binaries).
std::string FormatSummary(const Summary& s);

}  // namespace mpq
