#include "expdesign/wsp.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <span>
#include <stdexcept>

namespace mpq::expdesign {

namespace {

// Summed in coordinate order: every design depends on these exact bits.
double Distance2(const double* a, const double* b, std::size_t dims) {
  double sum = 0.0;
  for (std::size_t i = 0; i < dims; ++i) {
    const double d = a[i] - b[i];
    sum += d * d;
  }
  return sum;
}

/// The candidate closest to the centre of the cube: every pass's first
/// pick, whatever its dmin.
std::size_t CentreMost(std::span<const double> coords, std::size_t dims) {
  const std::vector<double> centre(dims, 0.5);
  std::size_t seed = 0;
  double best = std::numeric_limits<double>::max();
  for (std::size_t i = 0; i * dims < coords.size(); ++i) {
    const double d2 =
        Distance2(coords.data() + i * dims, centre.data(), dims);
    if (d2 < best) {
      best = d2;
      seed = i;
    }
  }
  return seed;
}

/// One selection pass from `seed` into `selected`; `survivors` is scratch,
/// so repeated passes allocate nothing.
void SelectFrom(std::span<const double> coords, std::size_t dims,
                std::size_t seed, double dmin, std::size_t max_picks,
                std::vector<std::size_t>& selected,
                std::vector<std::size_t>& survivors) {
  const std::size_t n = coords.size() / dims;
  selected.clear();
  if (n == 0 || max_picks == 0) return;
  const double dmin2 = dmin * dmin;
  survivors.resize(n);
  std::iota(survivors.begin(), survivors.end(), std::size_t{0});
  std::size_t current = seed;
  for (;;) {
    selected.push_back(current);
    if (selected.size() == max_picks) break;
    // Drop the pick and everything within dmin of it; hop to the nearest
    // of the rest.
    const double* picked = coords.data() + current * dims;
    double nearest = std::numeric_limits<double>::max();
    std::size_t next = n;
    std::size_t kept = 0;
    for (const std::size_t i : survivors) {
      if (i == current) continue;
      const double d2 = Distance2(coords.data() + i * dims, picked, dims);
      if (d2 < dmin2) continue;
      survivors[kept++] = i;
      if (d2 < nearest) {
        nearest = d2;
        next = i;
      }
    }
    survivors.resize(kept);
    if (next == n) break;  // exhausted
    current = next;
  }
}

}  // namespace

std::vector<std::size_t> WspSelect(const std::vector<Point>& candidates,
                                   double dmin) {
  if (candidates.empty()) return {};
  const std::size_t dims = candidates[0].size();
  if (dims == 0) {
    throw std::invalid_argument("WspSelect: candidates have no coordinates");
  }
  std::vector<double> coords;
  coords.reserve(candidates.size() * dims);
  for (const Point& point : candidates) {
    if (point.size() != dims) {
      throw std::invalid_argument("WspSelect: candidates differ in dims");
    }
    coords.insert(coords.end(), point.begin(), point.end());
  }
  std::vector<std::size_t> selected;
  std::vector<std::size_t> survivors;
  SelectFrom(coords, dims, CentreMost(coords, dims), dmin,
             std::numeric_limits<std::size_t>::max(), selected, survivors);
  return selected;
}

std::vector<Point> WspDesign(std::size_t dims, std::size_t count,
                             std::uint64_t seed,
                             std::size_t candidate_count) {
  if (dims == 0 || count == 0) {
    throw std::invalid_argument("WspDesign: dims and count must be > 0");
  }
  if (candidate_count < 2 * count) candidate_count = 2 * count;

  Rng rng(seed);
  std::vector<double> coords(candidate_count * dims);
  for (auto& coordinate : coords) coordinate = rng.NextDouble();
  const std::size_t first = CentreMost(coords, dims);
  std::vector<std::size_t> selection;
  std::vector<std::size_t> survivors;

  // Bisection on dmin: larger dmin -> fewer selected points (monotone).
  double lo = 0.0;                       // selects everything
  double hi = std::sqrt(static_cast<double>(dims));  // selects ~1 point
  for (int iter = 0; iter < 60; ++iter) {
    const double mid = (lo + hi) / 2.0;
    SelectFrom(coords, dims, first, mid, count + 1, selection, survivors);
    if (selection.size() == count) break;
    if (selection.size() > count) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  // The bisection may land slightly above `count`; keep the first `count`
  // points in selection order (they satisfy the distance constraint).
  SelectFrom(coords, dims, first, lo, count, selection, survivors);
  if (selection.size() < count) {
    throw std::runtime_error("WspDesign: candidate set too small");
  }

  std::vector<Point> design;
  design.reserve(count);
  for (std::size_t index : selection) {
    const double* point = coords.data() + index * dims;
    design.emplace_back(point, point + dims);
  }
  return design;
}

double MinPairwiseDistance(const std::vector<Point>& points) {
  double best = std::numeric_limits<double>::max();
  for (std::size_t i = 0; i < points.size(); ++i) {
    for (std::size_t j = i + 1; j < points.size(); ++j) {
      best = std::min(best, Distance2(points[i].data(), points[j].data(),
                                      points[i].size()));
    }
  }
  return points.size() < 2 ? 0.0 : std::sqrt(best);
}

}  // namespace mpq::expdesign
