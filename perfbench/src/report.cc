#include "report.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ctime>

namespace perfbench {

std::uint64_t DeriveSeed(std::uint64_t seed, std::uint64_t stream,
                         std::uint64_t index) {
  std::uint64_t x = seed * 0x9E3779B97F4A7C15ULL + stream * 0xD1B54A32D192ED03ULL +
                    index * 0x8CB92BA72F3D8DD7ULL;
  x ^= x >> 30;
  x *= 0xBF58476D1CE4E5B9ULL;
  x ^= x >> 27;
  x *= 0x94D049BB133111EBULL;
  x ^= x >> 31;
  return x;
}

std::uint64_t SumJsonCounters(const std::string& json, const std::string& key) {
  std::uint64_t sum = 0;
  for (std::size_t at = json.find(key); at != std::string::npos;
       at = json.find(key, at + key.size())) {
    sum += std::strtoull(json.c_str() + at + key.size(), nullptr, 10);
  }
  return sum;
}

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double rank =
      std::ceil(p / 100.0 * static_cast<double>(values.size()) - 1e-9);
  const std::size_t index =
      static_cast<std::size_t>(std::clamp(rank, 1.0, double(values.size()))) - 1;
  return values[index];
}

Tail TailPercentile(const std::vector<double>& values) {
  static constexpr struct {
    double p;
    const char* label;
  } kCandidates[] = {{99.9, "p999"}, {99, "p99"}, {90, "p90"}, {50, "p50"}};
  const double n = static_cast<double>(values.size());
  for (const auto& c : kCandidates) {
    // The epsilon keeps 0.999 * 10000 from rounding up past 9990.
    if (n - std::ceil(c.p / 100.0 * n - 1e-9) >= 10) {
      return {Percentile(values, c.p), c.label};
    }
  }
  return {Percentile(values, 100), "max"};
}

SetupTimer::SetupTimer(std::function<void()> setup) : setup_(std::move(setup)) {
  RunOnce();
}

void SetupTimer::RunOnce() {
  const auto start = Clock::now();
  setup_();
  times_.push_back(SecondsSince(start));
}

void SetupTimer::MaybeRepeat(double elapsed_s, double budget_s) {
  const double due = budget_s * static_cast<double>(times_.size()) / kReps;
  if (static_cast<int>(times_.size()) < kReps && elapsed_s >= due) RunOnce();
}

double SetupTimer::Fastest() {
  while (static_cast<int>(times_.size()) < kReps) RunOnce();
  return *std::min_element(times_.begin(), times_.end());
}

std::vector<UnitTime> RepeatUnits(double budget_s, int min_units,
                                  const std::function<UnitTime()>& unit,
                                  SetupTimer* setup) {
  std::vector<UnitTime> units;
  const auto start = Clock::now();
  while (static_cast<int>(units.size()) < min_units ||
         SecondsSince(start) < budget_s) {
    units.push_back(unit());
    if (setup != nullptr) setup->MaybeRepeat(SecondsSince(start), budget_s);
  }
  return units;
}

UnitTime FastestUnit(const std::vector<UnitTime>& units) {
  return *std::min_element(units.begin(), units.end(),
                           [](const UnitTime& a, const UnitTime& b) {
                             return a.wall_s < b.wall_s;
                           });
}

UnitTime QuietPassTime(const std::vector<std::vector<UnitTime>>& units) {
  double median_sum = 0;
  double best_ratio = 0;
  double best_cpu_share = 0;
  for (const std::vector<UnitTime>& input : units) {
    std::vector<double> walls;
    for (const UnitTime& u : input) walls.push_back(u.wall_s);
    const double median = Median(walls);
    median_sum += median;
    for (const UnitTime& u : input) {
      const double ratio = u.wall_s / median;
      if (best_ratio == 0 || ratio < best_ratio) {
        best_ratio = ratio;
        best_cpu_share = u.cpu_s / u.wall_s;
      }
    }
  }
  const double wall_s = median_sum * best_ratio;
  return {wall_s, wall_s * best_cpu_share};
}

int SpanRecorder::Define() {
  if (kinds_ == kMaxKinds) std::abort();  // a benchmark bug, not a result
  return kinds_++;
}

void Report::Add(const std::string& name, double value,
                 const std::string& unit) {
  if (!std::isfinite(value)) {
    Fail("metric " + name + " is not a finite number");
    value = 0;
  }
  entries_.push_back({name, value, unit});
}

void Report::Note(const std::string& text) { notes_.push_back(text); }

void Report::NoteUnits(const char* what, const std::vector<UnitTime>& units) {
  std::vector<double> walls;
  for (const UnitTime& p : units) walls.push_back(p.wall_s);
  char line[160];
  std::snprintf(line, sizeof line,
                "%s: %zu units, wall s min %.4f p25 %.4f median %.4f p75 %.4f max %.4f",
                what, walls.size(), Percentile(walls, 0), Percentile(walls, 25),
                Median(walls), Percentile(walls, 75), Percentile(walls, 100));
  Note(line);
}

void Report::Fail(const std::string& what) {
  ++attempted_;
  ++failed_;
  notes_.push_back("FAILED: " + what);
}

int Report::Print(const Args& args) {
  std::printf("# perfbench workload=%s seed=%llu seconds=%g trace=%d\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0);
  for (const std::string& note : notes_) std::printf("# %s\n", note.c_str());
  const double fail_frac =
      attempted_ == 0 ? 1.0
                      : static_cast<double>(failed_) /
                            static_cast<double>(attempted_);
  std::printf("%-40s %.6g %s\n", "fail_frac", fail_frac, "frac");
  for (const Entry& e : entries_) {
    std::printf("%-40s %.6g %s\n", e.name.c_str(), e.value, e.unit.c_str());
  }

  std::string json = "{\"correct\": ";
  json += correct() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted_);
  json += ", \"failed\": " + std::to_string(failed_);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    const Entry& e = entries_[i];
    char value[64];
    std::snprintf(value, sizeof value, "%.17g", e.value);  // every digit
    if (i > 0) json += ", ";
    json += "\"" + e.name + "\": {\"value\": " + value + ", \"unit\": \"" +
            e.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return correct() ? 0 : 1;
}

}  // namespace perfbench
