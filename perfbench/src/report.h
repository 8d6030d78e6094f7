// Shared plumbing for the benchmark's workloads: arguments, host clocks,
// order statistics, the timed-unit loop, the span recorder used by traced
// runs, and the result report (a readable table, then one JSON line).
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace perfbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Directory for the files a traced run writes and removes again.
  std::string work_dir = ".";
};

/// Seed for input `index` of stream `stream`, derived from the run seed
/// (SplitMix64 finalizer, so neighbouring seeds give unrelated inputs).
std::uint64_t DeriveSeed(std::uint64_t seed, std::uint64_t stream,
                         std::uint64_t index = 0);

// -- host clocks -------------------------------------------------------------

using Clock = std::chrono::steady_clock;
double SecondsSince(Clock::time_point start);
/// CPU time of the whole process (all threads), seconds.
double ProcessCpuSeconds();
/// Peak resident set size of the process so far, MB.
double PeakRssMb();

/// Sum of the unsigned values that follow each occurrence of `key` (a
/// quoted JSON key with its colon, e.g. "\"packets_sent\":") in `json`.
std::uint64_t SumJsonCounters(const std::string& json, const std::string& key);

// -- order statistics ----------------------------------------------------------

double Median(std::vector<double> values);
/// Nearest-rank percentile, p in [0, 100].
double Percentile(std::vector<double> values, double p);

/// The highest of p99.9 / p99 / p90 / p50 that leaves at least ten samples
/// beyond it (the largest sample when there are fewer than ten).
struct Tail {
  double value = 0;
  std::string label;  // "p999", "p99", "p90", "p50" or "max"
};
Tail TailPercentile(const std::vector<double>& values);

// -- timed units --------------------------------------------------------------

struct UnitTime {
  double wall_s = 0;
  double cpu_s = 0;
};

/// Times the benchmark's set-up: the first of kReps repetitions right
/// away (it builds the inputs), the others spread over the untraced timed
/// units by RepeatUnits. Speed on a shared machine drifts over seconds, so
/// repetitions spread over the run see its fast moments too.
class SetupTimer {
 public:
  static constexpr int kReps = 15;

  explicit SetupTimer(std::function<void()> setup);
  /// Run a repetition if the schedule over `budget_s` says one is due.
  void MaybeRepeat(double elapsed_s, double budget_s);
  /// Run any repetitions still owed; return the fastest, seconds.
  double Fastest();

 private:
  void RunOnce();
  std::function<void()> setup_;
  std::vector<double> times_;
};

/// Run `unit` back to back, at least `min_units` times and until
/// `budget_s` of wall time has gone by, repeating `setup` (when given)
/// between units. `unit` times its own timed region (so the set-up it does
/// per unit stays out of the figure) and returns it.
std::vector<UnitTime> RepeatUnits(double budget_s, int min_units,
                                  const std::function<UnitTime()>& unit,
                                  SetupTimer* setup = nullptr);

/// The fastest unit (least wall time) of a set. Other tenants of a shared
/// machine only ever add time, and their load drifts over seconds, so the
/// fastest unit is the steadiest estimate of what the code costs; the
/// table also prints the quartiles.
UnitTime FastestUnit(const std::vector<UnitTime>& units);

/// Host time of one pass over several inputs, `units[i]` being input i's
/// timed units, at the run's quietest moment. Each input's median unit
/// gives its cost relative to the others (every input's units see the same
/// mix of busy and quiet moments), and the fastest unit relative to its
/// input's median gives the quietest moment's speed: the result is the sum
/// of the medians scaled by that ratio, with the CPU time of that unit
/// scaled alike. Unlike a sum of each input's fastest unit, it needs only
/// one quiet moment in the whole run rather than one per input.
UnitTime QuietPassTime(const std::vector<std::vector<UnitTime>>& units);

/// Wall and process-CPU stopwatch for a timed region.
class Stopwatch {
 public:
  Stopwatch() : wall_(Clock::now()), cpu_(ProcessCpuSeconds()) {}
  UnitTime Elapsed() const {
    return {SecondsSince(wall_), ProcessCpuSeconds() - cpu_};
  }

 private:
  Clock::time_point wall_;
  double cpu_;
};

// -- spans ---------------------------------------------------------------------

/// Nested host-time spans recorded from the benchmark's own files around
/// calls into the program. Each span kind accumulates its count, total
/// time and the time covered by its direct children, so self time is
/// total minus children. Fixed-size storage: recording never allocates.
class SpanRecorder {
 public:
  static constexpr int kMaxKinds = 16;
  static constexpr int kMaxDepth = 16;

  /// Register a span kind; returns its id. Call before recording.
  int Define();

  void Begin(int kind) {
    if (depth_ < kMaxDepth) {
      stack_[depth_] = {kind, Clock::now(), 0};
    }
    ++depth_;
  }
  void End() {
    --depth_;
    if (depth_ >= kMaxDepth) return;
    const Open& open = stack_[depth_];
    const std::int64_t ns =
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                             open.start)
            .count();
    Totals& t = totals_[open.kind];
    ++t.count;
    t.total_ns += ns;
    t.child_ns += open.child_ns;
    if (depth_ > 0) stack_[depth_ - 1].child_ns += ns;
  }

  struct Totals {
    std::uint64_t count = 0;
    std::int64_t total_ns = 0;
    std::int64_t child_ns = 0;
    double self_ns() const { return static_cast<double>(total_ns - child_ns); }
  };
  const Totals& totals(int kind) const { return totals_[kind]; }

 private:
  struct Open {
    int kind = 0;
    Clock::time_point start;
    std::int64_t child_ns = 0;
  };
  Totals totals_[kMaxKinds];
  Open stack_[kMaxDepth];
  int kinds_ = 0;
  int depth_ = 0;
};

/// RAII span; a null recorder records nothing.
class Span {
 public:
  Span(SpanRecorder* recorder, int kind) : recorder_(recorder) {
    if (recorder_ != nullptr) recorder_->Begin(kind);
  }
  ~Span() {
    if (recorder_ != nullptr) recorder_->End();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  SpanRecorder* recorder_;
};

// -- report --------------------------------------------------------------------

/// Collects metrics and failures and prints them: one "name value unit"
/// line per metric for people, then the single JSON result line.
class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit);
  /// A line of context printed with the table (not part of the JSON).
  void Note(const std::string& text);
  /// Note the spread of a set of timed units.
  void NoteUnits(const char* what, const std::vector<UnitTime>& units);

  /// Count operations; `failed` of them did not pass their checks.
  void Attempt(std::uint64_t attempted, std::uint64_t failed = 0) {
    attempted_ += attempted;
    failed_ += failed;
  }
  /// A cross-check outside the per-operation accounting failed: counts
  /// as one more failed operation and is named in the output.
  void Fail(const std::string& what);

  bool correct() const { return failed_ == 0 && attempted_ > 0; }
  /// Print every metric added, then the JSON line holding all of them
  /// (run.py keeps those BENCHMARK.json lists for the run mode). Returns
  /// the process exit code.
  int Print(const Args& args);

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> entries_;
  std::vector<std::string> notes_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

}  // namespace perfbench
