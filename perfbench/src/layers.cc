#include "layers.h"

#include <cstdio>
#include <string>

namespace perfbench {

semtree::ClusterStats Minus(const semtree::ClusterStats& a,
                            const semtree::ClusterStats& b) {
  semtree::ClusterStats d;
  d.messages = a.messages - b.messages;
  d.bytes = a.bytes - b.bytes;
  d.remote_messages = a.remote_messages - b.remote_messages;
  d.calls = a.calls - b.calls;
  d.forwards = a.forwards - b.forwards;
  return d;
}

void Add(const semtree::ClusterStats& d, semtree::ClusterStats* acc) {
  acc->messages += d.messages;
  acc->bytes += d.bytes;
  acc->remote_messages += d.remote_messages;
  acc->calls += d.calls;
  acc->forwards += d.forwards;
}

void WorkMeter::ReadLoad(double* ops, double* distances) const {
  *ops = 0.0;
  *distances = 0.0;
  for (const semtree::PartitionStats& p : tree_->AllPartitionStats()) {
    *ops += p.load_ops;
    *distances += p.load_distances;
  }
}

void WorkMeter::Begin() {
  if (track_load_) ReadLoad(&mark_ops_, &mark_distances_);
  mark_ = tree_->NetworkStats();
}

void WorkMeter::End() {
  Add(Minus(tree_->NetworkStats(), mark_), &net_);
  if (track_load_) {
    double ops = 0.0;
    double distances = 0.0;
    ReadLoad(&ops, &distances);
    load_ops_ += ops - mark_ops_;
    load_distances_ += distances - mark_distances_;
  }
}

void ReportPhase(const Phase& p, uint64_t exact_ops,
                 const semtree::ClusterStats& exact_net, bool trace,
                 RunResult* out) {
  double ops = double(p.ops);
  double sys_us = p.cpu1.sys_us - p.cpu0.sys_us;
  double cpu_us = p.cpu1.user_us - p.cpu0.user_us + sys_us;
  LogTail("knn", p.knn_us);
  LogTail("range", p.range_us);
  if (trace) {
    out->Set("trace.ops_per_s", ops / p.wall_s, "ops/s");
    out->Set("proc.sys_us_per_op", sys_us / ops, "us");
    return;
  }
  out->Set("ops_per_s", ops / p.wall_s, "ops/s");
  out->Set("knn_p50_us", Median(p.knn_us), "us");
  out->Set("range_p50_us", Median(p.range_us), "us");
  out->Set("cpu_us_per_op", cpu_us / ops, "us");
  out->Set("msgs_per_op", double(exact_net.messages) / double(exact_ops),
           "count");
  out->Set("peak_rss_mb", p.prefix_rss_mb, "MB");
}

void ReportExactWork(const WorkMeter& meter,
                     const semtree::ClusterStats& net, uint64_t ops,
                     uint64_t queries, RunResult* out) {
  out->Set("semtree.handler_ops_per_op", meter.load_ops() / double(ops),
           "count");
  out->Set("core.leaf_distances_per_query",
           meter.load_distances() / double(queries), "count");
  out->Set("cluster.bytes_per_op", double(net.bytes) / double(ops), "bytes");
  out->Set("cluster.calls_per_op", double(net.calls) / double(ops), "count");
  out->Set("cluster.forwards_per_op", double(net.forwards) / double(ops),
           "count");
}

void WriteTrace(const RunConfig& cfg, const Tracer& tracer) {
  if (!tracer.enabled() || cfg.trace_dir.empty()) return;
  std::string path = cfg.trace_dir + "/" + cfg.workload + "-seed" +
                     std::to_string(cfg.seed) + ".csv";
  if (!tracer.Write(path)) {
    std::fprintf(stderr, "could not write %s\n", path.c_str());
  }
}

}  // namespace perfbench
