#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <map>

#include "bench.h"

namespace perfbench {

void RunResult::Set(const std::string& name, double value,
                    const std::string& unit) {
  for (Metric& m : metrics) {
    if (m.name == name) {
      m.value = value;
      m.unit = unit;
      return;
    }
  }
  metrics.push_back({name, value, unit});
}

void RunResult::Fail(const std::string& why) {
  if (correct) std::fprintf(stderr, "CHECK FAILED: %s\n", why.c_str());
  correct = false;
}

void InitMetrics(bool trace, RunResult* out) {
  static const char* const kEndToEnd[][2] = {
      {"setup_s", "s"},          {"ops_per_s", "ops/s"},
      {"knn_p50_us", "us"},      {"range_p50_us", "us"},
      {"cpu_us_per_op", "us"},   {"msgs_per_op", "count"},
      {"peak_rss_mb", "MB"},
  };
  static const char* const kPerLayer[][2] = {
      {"nlp.extract_s", "s"},
      {"distance.eq1_us", "us"},
      {"fastmap.train_s", "s"},
      {"fastmap.embed_us", "us"},
      {"semtree.bulk_load_s", "s"},
      {"semtree.knn_us", "us"},
      {"semtree.range_us", "us"},
      {"semtree.batch_us", "us"},
      {"semtree.insert_us", "us"},
      {"semtree.remove_us", "us"},
      {"semtree.partitions_visited_per_query", "count"},
      {"semtree.handler_ops_per_op", "count"},
      {"semtree.rebalance_tick_us", "us"},
      {"semtree.points_moved_per_tick", "count"},
      {"semtree.splits", "count"},
      {"semtree.merges", "count"},
      {"semtree.migrations", "count"},
      {"core.leaf_distances_per_query", "count"},
      {"cluster.bytes_per_op", "bytes"},
      {"cluster.calls_per_op", "count"},
      {"cluster.forwards_per_op", "count"},
      {"engine.overhead_us", "us"},
      {"engine.cache_hit_rate", "ratio"},
      {"engine.batch_wall_us", "us"},
      {"proc.sys_us_per_op", "us"},
      {"detect_recall", "ratio"},
      {"trace.ops_per_s", "ops/s"},
  };
  out->metrics.clear();
  if (trace) {
    for (const auto& m : kPerLayer) out->Set(m[0], 0.0, m[1]);
  } else {
    for (const auto& m : kEndToEnd) out->Set(m[0], 0.0, m[1]);
  }
}

// ---------------------------------------------------------------------

namespace {
uint64_t SplitMix(uint64_t* x) {
  uint64_t z = (*x += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}
uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }
}  // namespace

Rng::Rng(uint64_t seed, uint64_t stream) {
  uint64_t x = seed * 0x100000001B3ull ^ (stream + 0x51ED2701ull);
  for (uint64_t& s : s_) s = SplitMix(&x);
}

uint64_t Rng::Next() {
  const uint64_t result = Rotl(s_[1] * 5, 7) * 9;
  const uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = Rotl(s_[3], 45);
  return result;
}

double Rng::Uniform() { return double(Next() >> 11) * 0x1.0p-53; }

uint64_t Rng::Below(uint64_t n) { return Next() % n; }

double Rng::Normal() {
  double u1 = Uniform();
  double u2 = Uniform();
  if (u1 < 1e-300) u1 = 1e-300;
  return std::sqrt(-2.0 * std::log(u1)) * std::cos(6.283185307179586 * u2);
}

Zipf::Zipf(uint64_t n, double s) : cdf_(n) {
  double sum = 0.0;
  for (uint64_t i = 0; i < n; ++i) {
    sum += 1.0 / std::pow(double(i + 1), s);
    cdf_[i] = sum;
  }
  for (double& c : cdf_) c /= sum;
}

uint64_t Zipf::Sample(Rng& rng) const {
  double u = rng.Uniform();
  auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
  if (it == cdf_.end()) --it;
  return uint64_t(it - cdf_.begin());
}

// ---------------------------------------------------------------------

CpuTimes ReadCpu() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  CpuTimes t;
  t.user_us = double(ru.ru_utime.tv_sec) * 1e6 + double(ru.ru_utime.tv_usec);
  t.sys_us = double(ru.ru_stime.tv_sec) * 1e6 + double(ru.ru_stime.tv_usec);
  return t;
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return double(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB.
}

void ConfineToOneCpu() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return;
  int cpu = CPU_SETSIZE - 1;
  while (cpu > 0 && !CPU_ISSET(cpu, &set)) --cpu;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  if (sched_setaffinity(0, sizeof(set), &set) != 0) {
    std::fprintf(stderr, "warning: could not confine to CPU %d\n", cpu);
    return;
  }
  std::fprintf(stderr, "confined to CPU %d\n", cpu);
}

bool SetUpAgain(const std::vector<double>& setup_s) {
  double total = 0.0;
  for (double s : setup_s) total += s;
  return setup_s.size() < 3 || (total < 2.0 && setup_s.size() < 200);
}

double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  size_t rank = size_t(std::ceil(q * double(v.size())));
  if (rank == 0) rank = 1;
  return v[std::min(rank, v.size()) - 1];
}

double Median(std::vector<double> v) { return Percentile(std::move(v), 0.5); }

void LogTail(const std::string& label, const std::vector<double>& us) {
  std::fprintf(stderr, "tail %s: p50 %.2f us, p99 %.2f us (%zu samples)\n",
               label.c_str(), Percentile(us, 0.5), Percentile(us, 0.99),
               us.size());
}

// ---------------------------------------------------------------------

int32_t Tracer::Begin(const char* name, uint64_t op) {
  if (!enabled_) return -1;
  int32_t parent = open_.empty() ? -1 : open_.back();
  int32_t id = int32_t(spans_.size());
  spans_.push_back({name, parent, op, NowNs(), 0});
  open_.push_back(id);
  return id;
}

void Tracer::End(int32_t span) {
  if (span < 0) return;
  spans_[size_t(span)].end_ns = NowNs();
  open_.pop_back();
}

std::vector<double> Tracer::Durations(const std::string& name) const {
  std::vector<double> out;
  for (const Record& r : spans_) {
    if (name == r.name) out.push_back(double(r.end_ns - r.start_ns) / 1e3);
  }
  return out;
}

std::vector<double> Tracer::PairedDifferences(const std::string& a,
                                              const std::string& b) const {
  std::map<int32_t, std::pair<double, double>> by_parent;  // NaN = absent.
  for (const Record& r : spans_) {
    if (r.parent < 0 || (a != r.name && b != r.name)) continue;
    auto [it, fresh] = by_parent.try_emplace(r.parent, NAN, NAN);
    (void)fresh;
    double us = double(r.end_ns - r.start_ns) / 1e3;
    (a == r.name ? it->second.first : it->second.second) = us;
  }
  std::vector<double> out;
  for (const auto& [parent, d] : by_parent) {
    (void)parent;
    if (!std::isnan(d.first) && !std::isnan(d.second)) {
      out.push_back(d.first - d.second);
    }
  }
  return out;
}

bool Tracer::Write(const std::string& path) const {
  // Self time: a span's duration minus what its children cover. The
  // client thread opens spans strictly nested, so children never
  // overlap each other.
  std::vector<int64_t> child_ns(spans_.size(), 0);
  for (const Record& r : spans_) {
    if (r.parent >= 0) child_ns[size_t(r.parent)] += r.end_ns - r.start_ns;
  }
  struct Summary {
    size_t count = 0;
    double total_us = 0.0;
    double self_us = 0.0;
  };
  std::map<std::string, Summary> summary;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Record& r = spans_[i];
    Summary& s = summary[r.name];
    ++s.count;
    s.total_us += double(r.end_ns - r.start_ns) / 1e3;
    s.self_us += double(r.end_ns - r.start_ns - child_ns[i]) / 1e3;
  }
  std::fprintf(stderr, "trace: %zu spans\n", spans_.size());
  for (const auto& [name, s] : summary) {
    std::fprintf(stderr, "  %-28s n=%-8zu total=%.0fus self=%.0fus\n",
                 name.c_str(), s.count, s.total_us, s.self_us);
  }
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "# summary: name,count,total_us,self_us\n");
  for (const auto& [name, s] : summary) {
    std::fprintf(f, "# %s,%zu,%.3f,%.3f\n", name.c_str(), s.count,
                 s.total_us, s.self_us);
  }
  std::fprintf(f, "id,parent,op,name,start_ns,end_ns\n");
  const int64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Record& r = spans_[i];
    std::fprintf(f, "%zu,%d,%llu,%s,%lld,%lld\n", i, r.parent,
                 static_cast<unsigned long long>(r.op), r.name,
                 static_cast<long long>(r.start_ns - t0),
                 static_cast<long long>(r.end_ns - t0));
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
