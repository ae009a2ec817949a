// Exact work counters read from the program's own statistics, for the
// workloads that serve from a SemTree.

#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

#include <vector>

#include "bench.h"
#include "cluster/cluster.h"
#include "semtree/semtree.h"

namespace perfbench {

semtree::ClusterStats Minus(const semtree::ClusterStats& a,
                            const semtree::ClusterStats& b);
void Add(const semtree::ClusterStats& d, semtree::ClusterStats* acc);

// Counts interconnect traffic and partition handler load over windows
// of operations. Load is read with SemTree::AllPartitionStats, which is
// itself a message round: the meter takes those reads outside its
// network windows, so the counts cover the operations alone. Load
// counters are decayed by RebalanceTick, so a window must not span one.
class WorkMeter {
 public:
  WorkMeter(const semtree::SemTree* tree, bool track_load)
      : tree_(tree), track_load_(track_load) {}

  void Begin();
  void End();

  const semtree::ClusterStats& net() const { return net_; }
  double load_ops() const { return load_ops_; }
  double load_distances() const { return load_distances_; }

 private:
  void ReadLoad(double* ops, double* distances) const;

  const semtree::SemTree* tree_;
  bool track_load_;
  semtree::ClusterStats mark_;
  double mark_ops_ = 0.0;
  double mark_distances_ = 0.0;
  semtree::ClusterStats net_;
  double load_ops_ = 0.0;
  double load_distances_ = 0.0;
};

// Per-operation latencies and process counters of a measured phase.
struct Phase {
  std::vector<double> knn_us;
  std::vector<double> range_us;
  uint64_t ops = 0;
  double wall_s = 0.0;
  // Peak resident memory when the exact prefix ended. Read there, not
  // after the phase, so the latency and sample buffers, which grow
  // with the operations a run completes, are the same size on every
  // run of a seed and a faster program does not read as a larger one.
  double prefix_rss_mb = 0.0;
  CpuTimes cpu0;
  CpuTimes cpu1;
  int64_t t0 = 0;

  void Start() {
    cpu0 = ReadCpu();
    t0 = NowNs();
  }
  bool Running(double seconds) const {
    return NowNs() - t0 < int64_t(seconds * 1e9);
  }
  void Stop() {
    wall_s = double(NowNs() - t0) / 1e9;
    cpu1 = ReadCpu();
  }
  void MarkExactPrefix() { prefix_rss_mb = PeakRssMb(); }
  void Record(bool knn, double us) {
    (knn ? knn_us : range_us).push_back(us);
  }
};

// An untraced run's end-to-end metrics (msgs_per_op over the exact
// prefix: the first `exact_ops` operations, the same on every run of a
// seed), or a traced run's throughput and system time.
void ReportPhase(const Phase& p, uint64_t exact_ops,
                 const semtree::ClusterStats& exact_net, bool trace,
                 RunResult* out);

// Traced run: the work counts of the exact prefix, per operation.
void ReportExactWork(const WorkMeter& meter,
                     const semtree::ClusterStats& net, uint64_t ops,
                     uint64_t queries, RunResult* out);

// Traced run: writes the spans to <trace_dir>/<workload>-seed<n>.csv.
void WriteTrace(const RunConfig& cfg, const Tracer& tracer);

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
