// Shared pieces of the SemTree benchmark binary: run configuration,
// the result record printed as the last line of output, a seeded RNG
// that belongs to the benchmark (so inputs do not change when the
// program's own generators do), clocks, process counters, and the
// span tracer of the traced run.

#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <chrono>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "core/point.h"

namespace perfbench {

using semtree::Neighbor;
using semtree::PointId;

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_dir;  // Where the traced run writes its spans.
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunResult {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;

  void Set(const std::string& name, double value, const std::string& unit);
  // Marks the run incorrect and says why on stderr.
  void Fail(const std::string& why);
};

// Pre-fills `out` with every metric of the mode (end-to-end for an
// untraced run, per-layer for a traced one) at 0, in catalogue order.
// Workloads overwrite what they measure; a layer a workload does not
// use keeps 0 (see README.md).
void InitMetrics(bool trace, RunResult* out);

void RunQbeSemantic(const RunConfig& cfg, RunResult* out);
void RunVecRead(const RunConfig& cfg, RunResult* out);
void RunHotRw(const RunConfig& cfg, RunResult* out);

// ---------------------------------------------------------------------
// Deterministic RNG (xoshiro256**, seeded through splitmix64).

class Rng {
 public:
  Rng(uint64_t seed, uint64_t stream);
  uint64_t Next();
  double Uniform();              // [0, 1)
  uint64_t Below(uint64_t n);    // [0, n)
  double Normal();               // Standard normal (Box-Muller).

 private:
  uint64_t s_[4];
};

// Zipf(s) over ranks [0, n) by inverse CDF.
class Zipf {
 public:
  Zipf(uint64_t n, double s);
  uint64_t Sample(Rng& rng) const;

 private:
  std::vector<double> cdf_;
};

// ---------------------------------------------------------------------
// Clocks and process counters.

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct CpuTimes {
  double user_us = 0.0;
  double sys_us = 0.0;
};
CpuTimes ReadCpu();  // Whole process, all threads.
double PeakRssMb();

// Pins the calling thread, and every thread it starts later, to the
// highest-numbered allowed CPU. Call before any thread exists.
void ConfineToOneCpu();

// Set-up is repeated and its median reported: at least 3 times, and
// until 2 s of set-up time has been measured (at most 200 times), so
// millisecond set-ups are medians of many samples.
bool SetUpAgain(const std::vector<double>& setup_s);

// Nearest-rank percentile, q in (0, 1]; 0 for an empty sample.
double Percentile(std::vector<double> v, double q);
double Median(std::vector<double> v);

// Logs "<label> p50 / p99 (n samples)" to stderr: the tail is printed
// on every run but is not an end-to-end metric (README.md).
void LogTail(const std::string& label, const std::vector<double>& us);

// ---------------------------------------------------------------------
// Tracing. Spans are recorded by the benchmark around its calls into
// each layer's public functions; they stay in memory and are written
// when the run ends. A disabled tracer records nothing.

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }

  // Opens a span; nests under the innermost open span. -1 when off.
  int32_t Begin(const char* name, uint64_t op);
  void End(int32_t span);

  // Durations (us) of the spans named `name`.
  std::vector<double> Durations(const std::string& name) const;
  // Pairwise differences (us) between spans `a` and `b` opened under
  // the same parent, one per parent that has both.
  std::vector<double> PairedDifferences(const std::string& a,
                                        const std::string& b) const;

  // Writes every span as CSV plus a per-name summary (count, total and
  // self time) to `path`, and the summary to stderr.
  bool Write(const std::string& path) const;

 private:
  struct Record {
    const char* name;
    int32_t parent;
    uint64_t op;
    int64_t start_ns;
    int64_t end_ns;
  };
  bool enabled_;
  std::vector<Record> spans_;
  std::vector<int32_t> open_;
};

class Span {
 public:
  Span(Tracer* tracer, const char* name, uint64_t op)
      : tracer_(tracer), id_(tracer->Begin(name, op)) {}
  ~Span() { tracer_->End(id_); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer* tracer_;
  int32_t id_;
};

// ---------------------------------------------------------------------
// Oracles: brute force over the benchmark's own copy of the points,
// with distances recomputed in plain scalar code and ties broken by id.

struct PointSet {
  size_t dims = 0;
  std::vector<double> coords;  // Row-major, one row per id.
  const double* Row(PointId id) const { return coords.data() + id * dims; }
  size_t size() const { return dims == 0 ? 0 : coords.size() / dims; }
};

double OracleDistance(const double* a, const double* b, size_t dims);

// `live(id)` selects the points present; null = all of them.
using LiveFn = bool (*)(const void* ctx, PointId id);
std::vector<Neighbor> BruteKnn(const PointSet& points, const double* q,
                               size_t k, LiveFn live = nullptr,
                               const void* ctx = nullptr);
std::vector<Neighbor> BruteRange(const PointSet& points, const double* q,
                                 double radius, LiveFn live = nullptr,
                                 const void* ctx = nullptr);

// Checks a program result against the oracle's answer; ids may differ
// only between candidates whose distances tie within rounding.
// Returned ids must be live (`live` as for the brute-force searches).
bool SameKnn(const PointSet& points, const double* q,
             const std::vector<Neighbor>& got,
             const std::vector<Neighbor>& want, LiveFn live,
             const void* ctx, std::string* why);
bool SameRange(const PointSet& points, const double* q, double radius,
               const std::vector<Neighbor>& got,
               const std::vector<Neighbor>& want, LiveFn live,
               const void* ctx, std::string* why);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
