// Tests for the WSP experimental design and the Table-1 scenario
// generator: determinism, space-filling properties, range mapping, and
// class parameterisation.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <stdexcept>
#include <utility>

#include "expdesign/scenarios.h"
#include "expdesign/wsp.h"

namespace mpq::expdesign {
namespace {

// The reference model: WspSelect and WspDesign as they were before the
// selection pass became one shrinking scan per pick, copied verbatim (two
// full scans per pick over an alive bitmap, every pass run to exhaustion,
// candidates as one vector per point). The production code must pick the
// same indices in the same order.
double Distance2(const Point& a, const Point& b) {
  double sum = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double d = a[i] - b[i];
    sum += d * d;
  }
  return sum;
}

std::vector<std::size_t> ModelWspSelect(const std::vector<Point>& candidates,
                                        double dmin) {
  const double dmin2 = dmin * dmin;
  const std::size_t n = candidates.size();
  std::vector<bool> alive(n, true);
  std::vector<std::size_t> selected;
  if (n == 0) return selected;

  // Seed: the candidate closest to the centre of the cube.
  Point centre(candidates[0].size(), 0.5);
  std::size_t current = 0;
  double best = std::numeric_limits<double>::max();
  for (std::size_t i = 0; i < n; ++i) {
    const double d2 = Distance2(candidates[i], centre);
    if (d2 < best) {
      best = d2;
      current = i;
    }
  }

  for (;;) {
    selected.push_back(current);
    alive[current] = false;
    // Discard everything within dmin of the newly selected point.
    for (std::size_t i = 0; i < n; ++i) {
      if (alive[i] && Distance2(candidates[i], candidates[current]) < dmin2) {
        alive[i] = false;
      }
    }
    // Hop to the nearest survivor.
    double nearest = std::numeric_limits<double>::max();
    std::size_t next = n;
    for (std::size_t i = 0; i < n; ++i) {
      if (!alive[i]) continue;
      const double d2 = Distance2(candidates[i], candidates[current]);
      if (d2 < nearest) {
        nearest = d2;
        next = i;
      }
    }
    if (next == n) break;  // exhausted
    current = next;
  }
  return selected;
}

std::vector<Point> ModelWspDesign(std::size_t dims, std::size_t count,
                                  std::uint64_t seed,
                                  std::size_t candidate_count = 4096) {
  if (dims == 0 || count == 0) {
    throw std::invalid_argument("WspDesign: dims and count must be > 0");
  }
  if (candidate_count < 2 * count) candidate_count = 2 * count;

  Rng rng(seed);
  std::vector<Point> candidates(candidate_count);
  for (auto& point : candidates) {
    point.resize(dims);
    for (auto& coordinate : point) coordinate = rng.NextDouble();
  }

  // Bisection on dmin: larger dmin -> fewer selected points (monotone).
  double lo = 0.0;                       // selects everything
  double hi = std::sqrt(static_cast<double>(dims));  // selects ~1 point
  std::vector<std::size_t> selection;
  for (int iter = 0; iter < 60; ++iter) {
    const double mid = (lo + hi) / 2.0;
    selection = ModelWspSelect(candidates, mid);
    if (selection.size() == count) break;
    if (selection.size() > count) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  // The bisection may land slightly above `count`; keep the first `count`
  // points in selection order (they satisfy the distance constraint).
  selection = ModelWspSelect(candidates, lo);
  if (selection.size() < count) {
    throw std::runtime_error("WspDesign: candidate set too small");
  }
  selection.resize(count);

  std::vector<Point> design;
  design.reserve(count);
  for (std::size_t index : selection) {
    design.push_back(candidates[index]);
  }
  return design;
}

TEST(Wsp, SelectRespectsMinimumDistance) {
  std::vector<Point> candidates = {
      {0.5, 0.5}, {0.52, 0.5}, {0.9, 0.9}, {0.1, 0.1}, {0.5, 0.9}};
  const auto selected = WspSelect(candidates, 0.1);
  // The two nearly-identical points must not both be selected.
  int close_pair = 0;
  for (std::size_t i : selected) {
    if (i == 0 || i == 1) ++close_pair;
  }
  EXPECT_EQ(close_pair, 1);
}

TEST(Wsp, ZeroDistanceSelectsEverything) {
  std::vector<Point> candidates = {{0.1, 0.1}, {0.2, 0.2}, {0.3, 0.3}};
  EXPECT_EQ(WspSelect(candidates, 0.0).size(), 3u);
}

TEST(Wsp, HugeDistanceSelectsOne) {
  std::vector<Point> candidates = {{0.1, 0.1}, {0.2, 0.2}, {0.9, 0.9}};
  EXPECT_EQ(WspSelect(candidates, 10.0).size(), 1u);
}

TEST(Wsp, SelectMatchesReferenceModel) {
  Rng rng(2012);
  // Random candidate sets: distinct distances almost surely. dmin leans
  // small so that long passes are common; every tenth set uses 0.
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t dims = 1 + rng.NextBounded(8);
    const std::size_t n = 1 + rng.NextBounded(512);
    std::vector<Point> candidates(n, Point(dims));
    for (Point& point : candidates) {
      for (double& x : point) x = rng.NextDouble();
    }
    const double u = rng.NextDouble();
    const double dmin =
        trial % 10 == 0 ? 0.0 : u * u * std::sqrt(static_cast<double>(dims));
    SCOPED_TRACE(::testing::Message() << "random trial " << trial << ": dims "
                                      << dims << ", n " << n << ", dmin "
                                      << dmin);
    EXPECT_EQ(WspSelect(candidates, dmin), ModelWspSelect(candidates, dmin));
  }

  // Lattice sets in shuffled order, some points duplicated: many exactly
  // equal distances, so hops tie between equidistant neighbours and
  // between duplicates and must go to the lowest index, and dmin equal to
  // the spacing keeps the neighbours on the boundary (strict <).
  for (std::size_t dims = 1; dims <= 4; ++dims) {
    std::vector<Point> candidates(1);
    for (std::size_t axis = 0; axis < dims; ++axis) {
      std::vector<Point> grown;
      for (const Point& point : candidates) {
        for (int step = 0; step <= 4; ++step) {
          grown.push_back(point);
          grown.back().push_back(0.25 * step);
        }
      }
      candidates = std::move(grown);
    }
    for (std::size_t i = 0; i < candidates.size(); i += 7) {
      candidates.push_back(candidates[i]);
    }
    for (std::size_t i = candidates.size() - 1; i > 0; --i) {
      std::swap(candidates[i], candidates[rng.NextBounded(i + 1)]);
    }
    for (const double dmin : {0.0, 0.25, 0.3, 0.25 * std::sqrt(2.0), 0.5,
                              0.6, 1.0}) {
      SCOPED_TRACE(::testing::Message() << "lattice dims " << dims
                                        << ", dmin " << dmin);
      EXPECT_EQ(WspSelect(candidates, dmin), ModelWspSelect(candidates, dmin));
    }
  }

  // WspDesign: bisection passes stopped at count + 1 picks and the final
  // pass at count, against the model's passes run to exhaustion. Five of
  // these (among them 8 dims, 3 points, seed 0) end the bisection without
  // an exact hit.
  for (const std::size_t dims : {2u, 8u}) {
    for (const std::size_t count : {1u, 3u, 4u, 17u}) {
      for (std::uint64_t seed = 0; seed < 4; ++seed) {
        EXPECT_EQ(WspDesign(dims, count, seed, 512),
                  ModelWspDesign(dims, count, seed, 512))
            << dims << " dims, " << count << " points, seed " << seed;
      }
    }
  }
}

TEST(Wsp, SelectRejectsMixedDimensions) {
  EXPECT_THROW(WspSelect({{0.1, 0.1}, {0.2}}, 0.1), std::invalid_argument);
  EXPECT_THROW(WspSelect({{}, {}}, 0.1), std::invalid_argument);
}

TEST(Wsp, DesignHasExactCountAndIsDeterministic) {
  const auto a = WspDesign(4, 100, 42);
  const auto b = WspDesign(4, 100, 42);
  ASSERT_EQ(a.size(), 100u);
  EXPECT_EQ(a, b);
  const auto c = WspDesign(4, 100, 43);
  EXPECT_NE(a, c);
}

TEST(Wsp, DesignCoordinatesInUnitCube) {
  const auto design = WspDesign(6, 253, 7);
  for (const Point& p : design) {
    ASSERT_EQ(p.size(), 6u);
    for (double x : p) {
      ASSERT_GE(x, 0.0);
      ASSERT_LT(x, 1.0);
    }
  }
}

TEST(Wsp, SpaceFillingBeatsRandomSubset) {
  // The WSP design's minimum pairwise distance must comfortably exceed
  // that of a plain random sample of the same size (the whole point of
  // the algorithm).
  const auto design = WspDesign(4, 64, 11);
  Rng rng(11);
  std::vector<Point> random(64, Point(4));
  for (auto& p : random) {
    for (auto& x : p) x = rng.NextDouble();
  }
  EXPECT_GT(MinPairwiseDistance(design),
            2.0 * MinPairwiseDistance(random));
}

TEST(Wsp, InvalidArgumentsThrow) {
  EXPECT_THROW(WspDesign(0, 10, 1), std::invalid_argument);
  EXPECT_THROW(WspDesign(3, 0, 1), std::invalid_argument);
}

TEST(Scenarios, RangesMatchTable1) {
  const FactorRanges low = RangesFor(ScenarioClass::kLowBdpNoLoss);
  EXPECT_DOUBLE_EQ(low.capacity_min_mbps, 0.1);
  EXPECT_DOUBLE_EQ(low.capacity_max_mbps, 100.0);
  EXPECT_EQ(low.rtt_max, 50 * kMillisecond);
  EXPECT_EQ(low.queue_max, 100 * kMillisecond);
  EXPECT_FALSE(low.lossy);

  const FactorRanges high = RangesFor(ScenarioClass::kHighBdpLosses);
  EXPECT_EQ(high.rtt_max, 400 * kMillisecond);
  EXPECT_EQ(high.queue_max, 2000 * kMillisecond);
  EXPECT_TRUE(high.lossy);
  EXPECT_DOUBLE_EQ(high.loss_max, 0.025);
}

class ScenarioClassSweep : public ::testing::TestWithParam<ScenarioClass> {};

TEST_P(ScenarioClassSweep, GeneratedScenariosWithinRanges) {
  const FactorRanges ranges = RangesFor(GetParam());
  const auto scenarios = GenerateScenarios(GetParam(), 100, 5);
  ASSERT_EQ(scenarios.size(), 100u);
  for (const auto& scenario : scenarios) {
    for (const auto& path : scenario.paths) {
      EXPECT_GE(path.capacity_mbps, ranges.capacity_min_mbps);
      EXPECT_LE(path.capacity_mbps, ranges.capacity_max_mbps);
      EXPECT_GE(path.rtt, ranges.rtt_min);
      EXPECT_LE(path.rtt, ranges.rtt_max);
      EXPECT_GE(path.max_queue_delay, ranges.queue_min);
      EXPECT_LE(path.max_queue_delay, ranges.queue_max);
      if (ranges.lossy) {
        EXPECT_LE(path.random_loss_rate, ranges.loss_max);
      } else {
        EXPECT_DOUBLE_EQ(path.random_loss_rate, 0.0);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllClasses, ScenarioClassSweep,
                         ::testing::Values(ScenarioClass::kLowBdpNoLoss,
                                           ScenarioClass::kLowBdpLosses,
                                           ScenarioClass::kHighBdpNoLoss,
                                           ScenarioClass::kHighBdpLosses));

TEST(Scenarios, CapacityIsLogDistributed) {
  // Log-uniform sampling: roughly a third of capacities in each decade.
  const auto scenarios =
      GenerateScenarios(ScenarioClass::kLowBdpNoLoss, 253, 5);
  int below_1 = 0, below_10 = 0, total = 0;
  for (const auto& scenario : scenarios) {
    for (const auto& path : scenario.paths) {
      ++total;
      if (path.capacity_mbps < 1.0) ++below_1;
      if (path.capacity_mbps < 10.0) ++below_10;
    }
  }
  EXPECT_NEAR(static_cast<double>(below_1) / total, 1.0 / 3.0, 0.12);
  EXPECT_NEAR(static_cast<double>(below_10) / total, 2.0 / 3.0, 0.12);
}

TEST(Scenarios, PathsAreIndependentlyParameterised) {
  const auto scenarios =
      GenerateScenarios(ScenarioClass::kLowBdpNoLoss, 50, 5);
  int different = 0;
  for (const auto& scenario : scenarios) {
    if (std::abs(scenario.paths[0].capacity_mbps -
                 scenario.paths[1].capacity_mbps) > 1e-9) {
      ++different;
    }
  }
  EXPECT_GT(different, 45);  // virtually always heterogeneous
}

TEST(Scenarios, ClassNamesRoundTrip) {
  EXPECT_EQ(ToString(ScenarioClass::kLowBdpNoLoss), "low-BDP-no-loss");
  EXPECT_EQ(ToString(ScenarioClass::kHighBdpLosses), "high-BDP-losses");
}

}  // namespace
}  // namespace mpq::expdesign
