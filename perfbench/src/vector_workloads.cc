// The two workloads over synthetic 8-d vectors served by a SemTree
// through the QueryEngine: vec_read (uniform, never-repeating reads)
// and hot_rw (Zipf-hot repeating reads beside writes and rebalancing).

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "engine/query_engine.h"
#include "layers.h"
#include "semtree/semtree.h"

namespace perfbench {
namespace {

using semtree::DistributedSearchStats;
using semtree::QueryEngine;
using semtree::QueryEngineOptions;
using semtree::QueryType;
using semtree::SemTree;
using semtree::SemTreeOptions;
using semtree::SpatialQuery;

constexpr size_t kDims = 8;
constexpr size_t kK = 10;
// Probe queries of the traced run (direct SemTree vs engine calls).
constexpr size_t kProbes = 1000;

// Clustered corpus around `clusters` Gaussian centres in [-1, 1]^8 with
// sigma 0.1. The centres are part of the workload's definition and do
// not change with the seed; the points are drawn from `seed`.
// `contiguous` gives each centre a contiguous id range, so hot keys
// under a Zipf law are also close in space.
PointSet ClusteredCorpus(uint64_t n, size_t clusters, bool contiguous,
                         uint64_t seed) {
  Rng centre_rng(0x5E3A7EE, clusters);
  std::vector<double> centres(clusters * kDims);
  for (double& c : centres) c = 2.0 * centre_rng.Uniform() - 1.0;
  Rng rng(seed, 1);
  PointSet set;
  set.dims = kDims;
  set.coords.resize(n * kDims);
  for (uint64_t i = 0; i < n; ++i) {
    size_t c = contiguous ? size_t(i * clusters / n) : size_t(i % clusters);
    for (size_t d = 0; d < kDims; ++d) {
      set.coords[i * kDims + d] = centres[c * kDims + d] + 0.1 * rng.Normal();
    }
  }
  return set;
}

semtree::PointBlock ToBlock(const PointSet& set) {
  semtree::PointBlock block(set.dims);
  block.coords = set.coords;
  block.ids.resize(set.size());
  for (size_t i = 0; i < set.size(); ++i) block.ids[i] = i;
  return block;
}

struct Served {
  std::unique_ptr<SemTree> tree;
  std::unique_ptr<QueryEngine> engine;
};

// Stands the index up from the same generated points as often as
// SetUpAgain says and keeps the last one. setup_s is the median time
// from the points to a tree and engine ready to serve.
bool SetUp(const PointSet& corpus, const SemTreeOptions& topts,
           const QueryEngineOptions& eopts, Tracer* tracer, RunResult* out,
           Served* served) {
  std::vector<double> setup_s;
  for (int rep = 0; SetUpAgain(setup_s); ++rep) {
    *served = Served{};
    semtree::PointBlock block = ToBlock(corpus);
    Span span(tracer, "setup", uint64_t(rep));
    int64_t t0 = NowNs();
    auto tree = SemTree::Create(topts);
    if (!tree.ok()) {
      out->Fail("SemTree::Create: " + tree.status().ToString());
      return false;
    }
    served->tree = std::move(*tree);
    semtree::Status st;
    {
      Span bulk(tracer, "semtree.bulk_load", uint64_t(rep));
      st = served->tree->BulkLoadBalanced(std::move(block));
    }
    if (!st.ok()) {
      out->Fail("BulkLoadBalanced: " + st.ToString());
      return false;
    }
    served->engine = std::make_unique<QueryEngine>(served->tree.get(), eopts);
    setup_s.push_back(double(NowNs() - t0) / 1e9);
  }
  if (!tracer->enabled()) {
    out->Set("setup_s", Median(setup_s), "s");
  } else {
    std::vector<double> bulk = tracer->Durations("semtree.bulk_load");
    out->Set("semtree.bulk_load_s", Median(bulk) / 1e6, "s");
  }
  return true;
}

// Read queries of vec_read: a uniform key plus
// fresh Gaussian noise, so no query repeats and the cache never hits.
class ReadGen {
 public:
  ReadGen(const PointSet* corpus, uint64_t seed, uint64_t stream,
          double radius)
      : corpus_(corpus), rng_(seed, stream), radius_(radius) {}

  SpatialQuery Next() {
    bool knn = rng_.Uniform() < 0.7;
    const double* row = corpus_->Row(rng_.Below(corpus_->size()));
    std::vector<double> q(kDims);
    for (size_t d = 0; d < kDims; ++d) q[d] = row[d] + 0.02 * rng_.Normal();
    return knn ? SpatialQuery::Knn(std::move(q), kK)
               : SpatialQuery::Range(std::move(q), radius_);
  }

 private:
  const PointSet* corpus_;
  Rng rng_;
  double radius_;
};

// One operation kept for the oracle check after the timed phase.
struct Sample {
  uint64_t op = 0;
  SpatialQuery query;
  std::vector<Neighbor> got;
};

// Which points existed when operation `op` ran (hot_rw tracks births
// and deaths; the read-only workloads pass no liveness).
struct LiveAt {
  const std::vector<uint64_t>* birth;
  const std::vector<uint64_t>* death;
  uint64_t op;
  static bool Fn(const void* ctx, PointId id) {
    const LiveAt* l = static_cast<const LiveAt*>(ctx);
    return (*l->birth)[id] <= l->op && l->op < (*l->death)[id];
  }
};

void Verify(const PointSet& points, const std::vector<Sample>& samples,
            const std::vector<uint64_t>* birth,
            const std::vector<uint64_t>* death, RunResult* out) {
  for (const Sample& s : samples) {
    LiveAt at{birth, death, s.op};
    LiveFn live = birth == nullptr ? nullptr : &LiveAt::Fn;
    const double* q = s.query.coords.data();
    std::string why;
    bool ok = s.query.type == QueryType::kKnn
                  ? SameKnn(points, q, s.got,
                            BruteKnn(points, q, s.query.k, live, &at), live,
                            &at, &why)
                  : SameRange(points, q, s.query.radius, s.got,
                              BruteRange(points, q, s.query.radius, live, &at),
                              live, &at, &why);
    if (!ok) {
      out->Fail("op " + std::to_string(s.op) + ": " + why);
      return;
    }
  }
  std::fprintf(stderr, "oracle: %zu sampled operations match\n",
               samples.size());
}

// Runs `a` first on even `i` and `b` first on odd `i`, so neither side
// always finds the other's data warm in the CPU caches.
template <typename A, typename B>
void Alternate(size_t i, const A& a, const B& b) {
  if (i % 2 == 0) {
    a();
    b();
  } else {
    b();
    a();
  }
}

// Traced run only: the same queries issued through the engine and
// directly to SemTree::BatchSearch (the call the engine makes), in
// alternating order. Gives the SemTree layer's own time, the engine's
// overhead over it, and partitions visited per query.
void Probe(SemTree* tree, QueryEngine* engine,
           const std::vector<SpatialQuery>& queries, Tracer* tracer,
           RunResult* out) {
  uint64_t visited = 0;
  for (size_t i = 0; i < queries.size(); ++i) {
    const SpatialQuery& q = queries[i];
    Span probe(tracer, "probe", i);
    auto direct = [&] {
      Span s(tracer, q.type == QueryType::kKnn ? "semtree.knn"
                                               : "semtree.range", i);
      DistributedSearchStats stats;
      auto r = tree->BatchSearch({q}, &stats);
      if (!r.ok()) out->Fail("BatchSearch: " + r.status().ToString());
      visited += stats.partitions_visited;
    };
    auto via_engine = [&] {
      Span s(tracer, "engine.run_one", i);
      auto r = engine->RunOne(q);
      if (!r.ok()) out->Fail("RunOne: " + r.status().ToString());
      if (r.ok() && r->from_cache) out->Fail("probe query hit the cache");
    };
    Alternate(i, direct, via_engine);
  }
  out->Set("semtree.knn_us", Median(tracer->Durations("semtree.knn")), "us");
  out->Set("semtree.range_us", Median(tracer->Durations("semtree.range")),
           "us");
  std::vector<double> overhead =
      tracer->PairedDifferences("engine.run_one", "semtree.knn");
  std::vector<double> range_overhead =
      tracer->PairedDifferences("engine.run_one", "semtree.range");
  overhead.insert(overhead.end(), range_overhead.begin(),
                  range_overhead.end());
  out->Set("engine.overhead_us", Median(overhead), "us");
  out->Set("semtree.partitions_visited_per_query",
           double(visited) / double(queries.size()), "count");
}

// Traced vec_read only: batches of 64 through QueryEngine::Run (one
// engine thread, so one task ships the whole batch) and the same batch
// sent directly to SemTree::BatchSearch, in alternating order. The
// engine's batch path and the coalesced batch protocol are timed here
// on one CPU; no workload runs them in parallel (README.md).
void ProbeBatches(SemTree* tree, QueryEngine* engine, ReadGen* gen,
                  Tracer* tracer, RunResult* out) {
  constexpr size_t kBatches = 100;
  constexpr size_t kBatch = 64;
  for (size_t b = 0; b < kBatches; ++b) {
    std::vector<SpatialQuery> batch;
    for (size_t i = 0; i < kBatch; ++i) batch.push_back(gen->Next());
    Span probe(tracer, "probe", b);
    auto direct = [&] {
      Span s(tracer, "semtree.batch", b);
      auto r = tree->BatchSearch(batch);
      if (!r.ok()) out->Fail("BatchSearch: " + r.status().ToString());
    };
    auto via_engine = [&] {
      Span s(tracer, "engine.run", b);
      auto r = engine->Run(batch);
      if (!r.ok()) out->Fail("Run: " + r.status().ToString());
    };
    Alternate(b, direct, via_engine);
  }
  out->Set("semtree.batch_us", Median(tracer->Durations("semtree.batch")),
           "us");
  out->Set("engine.batch_wall_us", Median(tracer->Durations("engine.run")),
           "us");
}

SemTreeOptions ReadTreeOptions() {
  SemTreeOptions topts;
  topts.dimensions = kDims;
  topts.bucket_size = 32;
  topts.max_partitions = 5;  // Root routing partition + 4 data partitions.
  return topts;
}

constexpr uint64_t kReadCorpus = 200000;
constexpr size_t kReadClusters = 512;
constexpr double kReadRadius = 0.2;

}  // namespace

// ---------------------------------------------------------------------
// vec_read: one closed-loop client, 70% k-NN / 30% range through
// QueryEngine::RunOne, confined to one CPU.

void RunVecRead(const RunConfig& cfg, RunResult* out) {
  ConfineToOneCpu();
  InitMetrics(cfg.trace, out);
  Tracer tracer(cfg.trace);
  const PointSet corpus =
      ClusteredCorpus(kReadCorpus, kReadClusters, false, cfg.seed);

  QueryEngineOptions eopts;
  eopts.threads = 1;  // RunOne executes on the calling thread.
  Served served;
  if (!SetUp(corpus, ReadTreeOptions(), eopts, &tracer, out, &served)) return;

  constexpr uint64_t kRound = 2000;
  constexpr uint64_t kExactOps = 10 * kRound;
  constexpr uint64_t kSampleEvery = 97;
  ReadGen gen(&corpus, cfg.seed, 11, kReadRadius);
  WorkMeter meter(served.tree.get(), cfg.trace);
  semtree::ClusterStats exact_net;
  std::vector<Sample> samples;
  Phase phase;
  meter.Begin();
  phase.Start();
  do {
    for (uint64_t i = 0; i < kRound; ++i, ++phase.ops) {
      SpatialQuery q = gen.Next();
      Span op(&tracer, "op", phase.ops);
      int64_t t0 = NowNs();
      semtree::Result<semtree::QueryOutcome> r = [&] {
        Span s(&tracer, "engine.run_one", phase.ops);
        return served.engine->RunOne(q);
      }();
      phase.Record(q.type == QueryType::kKnn, double(NowNs() - t0) / 1e3);
      if (!r.ok()) {
        ++out->failed;
        continue;
      }
      if (phase.ops % kSampleEvery == 0) {
        samples.push_back({phase.ops, std::move(q), std::move(r->neighbors)});
      }
    }
    if (phase.ops == kExactOps) {
      meter.End();
      exact_net = meter.net();
      phase.MarkExactPrefix();
    }
  } while (phase.Running(cfg.seconds) || phase.ops < kExactOps);
  phase.Stop();
  out->attempted = phase.ops;

  ReportPhase(phase, kExactOps, exact_net, cfg.trace, out);
  Verify(corpus, samples, nullptr, nullptr, out);
  if (cfg.trace) {
    ReportExactWork(meter, exact_net, kExactOps, kExactOps, out);
    // Probes draw from their own stream: the same queries however many
    // operations the measured phase made.
    ReadGen probe_gen(&corpus, cfg.seed, 12, kReadRadius);
    std::vector<SpatialQuery> probes;
    for (size_t i = 0; i < kProbes; ++i) probes.push_back(probe_gen.Next());
    Probe(served.tree.get(), served.engine.get(), probes, &tracer, out);
    ProbeBatches(served.tree.get(), served.engine.get(), &probe_gen, &tracer,
                 out);
    WriteTrace(cfg, tracer);
  }
}

// ---------------------------------------------------------------------
// hot_rw: Zipf-hot repeating reads beside ~2% writes, with a rebalance
// tick every kTickEvery operations; one client confined to one CPU.

namespace {

constexpr uint64_t kHotCorpus = 20000;
constexpr size_t kHotClusters = 32;
constexpr uint64_t kOpsPerPhase = 5000;
constexpr uint64_t kPhases = 4;
constexpr uint64_t kTickEvery = 500;
constexpr double kHotRadius = 0.15;
constexpr uint64_t kAlive = ~uint64_t{0};

enum class HotKind { kKnn, kRange, kInsert, kRemove };

// The op stream of hot_rw. Keys follow Zipf(0.99) over ranks; the rank
// -> key map rotates by a quarter of the corpus each phase. Reads use
// the key's exact coordinates (no noise), so hot reads repeat. Writes
// insert fresh points near a hot key and remove earlier inserts.
class HotGen {
 public:
  HotGen(PointSet* points, std::vector<uint64_t>* birth,
         std::vector<uint64_t>* death, uint64_t seed)
      : points_(points),
        birth_(birth),
        death_(death),
        rng_(seed, 21),
        zipf_(kHotCorpus, 0.99) {}

  HotKind Next(uint64_t op, SpatialQuery* q, PointId* id) {
    uint64_t phase = (op / kOpsPerPhase) % kPhases;
    uint64_t key = (zipf_.Sample(rng_) + phase * (kHotCorpus / kPhases)) %
                   kHotCorpus;
    const double* row = points_->Row(key);
    double u = rng_.Uniform();
    if (u < 0.01 || (u < 0.02 && inserted_.empty())) {
      *id = points_->size();
      q->coords.resize(kDims);
      for (size_t d = 0; d < kDims; ++d) {
        q->coords[d] = row[d] + 0.01 * rng_.Normal();
      }
      points_->coords.insert(points_->coords.end(), q->coords.begin(),
                             q->coords.end());
      birth_->push_back(op);
      death_->push_back(kAlive);
      inserted_.push_back(*id);
      return HotKind::kInsert;
    }
    if (u < 0.02) {
      size_t at = size_t(rng_.Below(inserted_.size()));
      *id = inserted_[at];
      inserted_[at] = inserted_.back();
      inserted_.pop_back();
      (*death_)[*id] = op;
      q->coords.assign(points_->Row(*id), points_->Row(*id) + kDims);
      return HotKind::kRemove;
    }
    std::vector<double> c(row, row + kDims);
    if (u < 0.71) {
      *q = SpatialQuery::Knn(std::move(c), kK);
      return HotKind::kKnn;
    }
    *q = SpatialQuery::Range(std::move(c), kHotRadius);
    return HotKind::kRange;
  }

  size_t live() const { return kHotCorpus + inserted_.size(); }

 private:
  PointSet* points_;
  std::vector<uint64_t>* birth_;
  std::vector<uint64_t>* death_;
  Rng rng_;
  Zipf zipf_;
  std::vector<PointId> inserted_;  // Live inserted ids: remove victims.
};

}  // namespace

void RunHotRw(const RunConfig& cfg, RunResult* out) {
  ConfineToOneCpu();
  InitMetrics(cfg.trace, out);
  Tracer tracer(cfg.trace);
  // One fixed point set; the seed draws the operations. With per-seed
  // points the rebalancer settled into one of two layouts (msgs_per_op
  // 6.7 or 7.6), so the seed, not the program, set the figure.
  PointSet points = ClusteredCorpus(kHotCorpus, kHotClusters, true, 7);
  std::vector<uint64_t> birth(kHotCorpus, 0);
  std::vector<uint64_t> death(kHotCorpus, kAlive);

  SemTreeOptions topts;
  topts.dimensions = kDims;
  topts.bucket_size = 32;
  topts.max_partitions = 8;
  topts.bulk_load_partitions = 3;  // Four idle seats for the rebalancer.
  QueryEngineOptions eopts;
  eopts.threads = 1;
  Served served;
  if (!SetUp(points, topts, eopts, &tracer, out, &served)) return;
  SemTree* tree = served.tree.get();

  const uint64_t kRound = kOpsPerPhase * kPhases;
  const uint64_t kExactOps = 2 * kRound;
  constexpr uint64_t kSampleEvery = 31;
  HotGen gen(&points, &birth, &death, cfg.seed);
  WorkMeter meter(tree, cfg.trace);
  semtree::ClusterStats tick_net;  // Traffic of the ticks themselves.
  semtree::ClusterStats exact_net;
  std::vector<double> insert_us, remove_us;
  std::vector<Sample> samples;
  Phase phase;
  uint64_t hits = 0, queries = 0;
  uint64_t exact_hits = 0, exact_queries = 0;
  semtree::RebalanceCounters exact_rebalance;
  meter.Begin();
  phase.Start();
  do {
    for (uint64_t i = 0; i < kRound; ++i, ++phase.ops) {
      SpatialQuery q;
      PointId id = 0;
      HotKind kind = gen.Next(phase.ops, &q, &id);
      Span op(&tracer, "op", phase.ops);
      int64_t t0 = NowNs();
      if (kind == HotKind::kInsert || kind == HotKind::kRemove) {
        bool insert = kind == HotKind::kInsert;
        semtree::Status st;
        {
          Span s(&tracer, insert ? "semtree.insert" : "semtree.remove",
                 phase.ops);
          st = insert ? served.engine->Insert(q.coords, id)
                      : served.engine->Remove(q.coords, id);
        }
        (insert ? insert_us : remove_us).push_back(double(NowNs() - t0) / 1e3);
        if (!st.ok()) {
          ++out->failed;
          std::fprintf(stderr, "write failed: %s\n", st.ToString().c_str());
        }
      } else {
        semtree::Result<semtree::QueryOutcome> r = [&] {
          Span s(&tracer, "engine.run_one", phase.ops);
          return served.engine->RunOne(q);
        }();
        phase.Record(q.type == QueryType::kKnn, double(NowNs() - t0) / 1e3);
        ++queries;
        if (!r.ok()) {
          ++out->failed;
        } else {
          hits += r->from_cache ? 1 : 0;
          if (phase.ops % kSampleEvery == 0) {
            samples.push_back({phase.ops, std::move(q),
                               std::move(r->neighbors)});
          }
        }
      }
      if ((phase.ops + 1) % kTickEvery == 0) {
        // The exact prefix is metered between ticks (a tick decays the
        // load counters); the ticks' own traffic is counted separately.
        const bool in_prefix = phase.ops < kExactOps;
        if (in_prefix) meter.End();
        semtree::ClusterStats before = tree->NetworkStats();
        semtree::Status st;
        {
          Span s(&tracer, "semtree.rebalance_tick", phase.ops);
          st = tree->RebalanceTick();
        }
        if (!st.ok()) out->Fail("RebalanceTick: " + st.ToString());
        if (in_prefix) {
          Add(Minus(tree->NetworkStats(), before), &tick_net);
          if (phase.ops + 1 < kExactOps) meter.Begin();
        }
      }
    }
    if (phase.ops == kExactOps) {
      exact_net = meter.net();
      Add(tick_net, &exact_net);
      exact_hits = hits;
      exact_queries = queries;
      exact_rebalance = tree->DebugStats().rebalance;
      phase.MarkExactPrefix();
    }
  } while (phase.Running(cfg.seconds) || phase.ops < kExactOps);
  phase.Stop();
  out->attempted = phase.ops;

  ReportPhase(phase, kExactOps, exact_net, cfg.trace, out);
  LogTail("insert", insert_us);
  LogTail("remove", remove_us);
  std::fprintf(stderr,
               "first %llu ops: cache hit rate %.4f, %llu ticks, %llu splits, "
               "%llu merges, %llu migrations, %llu points moved\n",
               static_cast<unsigned long long>(kExactOps),
               double(exact_hits) / double(exact_queries),
               static_cast<unsigned long long>(exact_rebalance.ticks),
               static_cast<unsigned long long>(exact_rebalance.splits),
               static_cast<unsigned long long>(exact_rebalance.merges),
               static_cast<unsigned long long>(exact_rebalance.migrations),
               static_cast<unsigned long long>(exact_rebalance.points_moved));

  if (tree->size() != gen.live()) {
    out->Fail("tree holds " + std::to_string(tree->size()) +
              " points, the benchmark tracked " + std::to_string(gen.live()));
  }
  semtree::Status inv = tree->CheckInvariants();
  if (!inv.ok()) out->Fail("CheckInvariants: " + inv.ToString());
  Verify(points, samples, &birth, &death, out);

  if (cfg.trace) {
    ReportExactWork(meter, exact_net, kExactOps, exact_queries, out);
    out->Set("semtree.insert_us", Median(tracer.Durations("semtree.insert")),
             "us");
    out->Set("semtree.remove_us", Median(tracer.Durations("semtree.remove")),
             "us");
    out->Set("semtree.rebalance_tick_us",
             Median(tracer.Durations("semtree.rebalance_tick")), "us");
    double ticks = double(exact_rebalance.ticks);
    out->Set("semtree.points_moved_per_tick",
             double(exact_rebalance.points_moved) / ticks, "count");
    out->Set("semtree.splits", double(exact_rebalance.splits), "count");
    out->Set("semtree.merges", double(exact_rebalance.merges), "count");
    out->Set("semtree.migrations", double(exact_rebalance.migrations),
             "count");
    out->Set("engine.cache_hit_rate",
             double(exact_hits) / double(exact_queries), "ratio");
    // Probe queries get a little noise so they miss the cache.
    Rng probe_rng(cfg.seed, 23);
    std::vector<SpatialQuery> probes;
    for (size_t i = 0; i < kProbes; ++i) {
      const double* row = points.Row(probe_rng.Below(kHotCorpus));
      std::vector<double> c(kDims);
      for (size_t d = 0; d < kDims; ++d) c[d] = row[d] + 1e-3 * probe_rng.Normal();
      probes.push_back(i % 10 < 7 ? SpatialQuery::Knn(std::move(c), kK)
                                  : SpatialQuery::Range(std::move(c), kHotRadius));
    }
    Probe(tree, served.engine.get(), probes, &tracer, out);
    WriteTrace(cfg, tracer);
  }
}

}  // namespace perfbench
