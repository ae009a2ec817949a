// qbe_semantic: the paper's pipeline and case study. Requirement
// documents -> triple extraction -> Eq. (1) -> 8-d FastMap -> SemTree
// bulk-loaded over 4 data partitions; each operation takes a sampled
// requirement, builds its antinomic target triple and issues a k=10
// KnnQuery and a RangeQuery. One client, confined to one CPU.

#include <algorithm>
#include <cstdio>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "bench.h"
#include "distance/triple_distance.h"
#include "fastmap/fastmap.h"
#include "layers.h"
#include "nlp/requirements_corpus.h"
#include "nlp/triple_extractor.h"
#include "ontology/requirements_vocabulary.h"
#include "rdf/triple_store.h"
#include "reqverify/batch_detector.h"
#include "reqverify/inconsistency.h"
#include "semtree/semantic_index.h"

namespace perfbench {
namespace {

using semtree::InconsistentPair;
using semtree::SemanticIndex;
using semtree::Taxonomy;
using semtree::Triple;
using semtree::TripleId;
using semtree::TripleStore;
using Hits = std::vector<SemanticIndex::Hit>;

constexpr size_t kK = 10;
constexpr double kRadius = 0.02;
constexpr size_t kRound = 1000;      // Sampled requirements per round.
constexpr size_t kEq1Pairs = 20000;  // Fixed sample for distance.eq1_us.

// The corpus of bench/fig8_effectiveness (~20k triples, its seed 42):
// one fixed case-study corpus, as in the paper; the benchmark seed picks
// the requirements checked against it.
semtree::CorpusOptions Corpus() {
  semtree::CorpusOptions copts;
  copts.num_documents = 400;
  copts.min_requirements_per_doc = 40;
  copts.max_requirements_per_doc = 60;
  copts.num_actors = 300;
  copts.inconsistency_rate = 0.05;
  copts.seed = 42;
  return copts;
}

semtree::SemanticIndexOptions IndexOptions() {
  semtree::SemanticIndexOptions iopts;
  iopts.fastmap.dimensions = 8;
  iopts.bucket_size = 32;
  iopts.max_partitions = 5;  // Root routing partition + 4 data partitions.
  iopts.bulk_load = true;
  return iopts;
}

struct Built {
  std::unique_ptr<TripleStore> store;
  std::unique_ptr<SemanticIndex> index;
};

// Extraction and SemanticIndex::Build (FastMap training and the tree
// build), repeated as SetUpAgain says; keeps the last index. Traced and
// untraced runs make the same calls; the traced run takes the layer
// times of Build from probes (ProbeSetUp).
bool SetUp(const Taxonomy& vocab,
           const std::vector<semtree::RequirementsDocument>& docs,
           Tracer* tracer, RunResult* out, Built* built) {
  const semtree::SemanticIndexOptions iopts = IndexOptions();
  std::vector<double> setup_s;
  for (int rep = 0; SetUpAgain(setup_s); ++rep) {
    *built = Built{};
    built->store = std::make_unique<TripleStore>();
    Span span(tracer, "setup", uint64_t(rep));
    int64_t t0 = NowNs();
    {
      Span s(tracer, "nlp.extract", uint64_t(rep));
      semtree::TripleExtractor extractor(&vocab);
      auto n = extractor.ExtractCorpus(docs, built->store.get());
      if (!n.ok()) {
        out->Fail("ExtractCorpus: " + n.status().ToString());
        return false;
      }
    }
    semtree::Result<std::unique_ptr<SemanticIndex>> index =
        semtree::Status::Internal("not built");
    {
      Span s(tracer, "index.build", uint64_t(rep));
      index = SemanticIndex::Build(&vocab, built->store->triples(), iopts);
    }
    if (!index.ok()) {
      out->Fail("SemanticIndex::Build: " + index.status().ToString());
      return false;
    }
    built->index = std::move(*index);
    setup_s.push_back(double(NowNs() - t0) / 1e9);
  }
  std::fprintf(stderr, "corpus: %zu triples\n", built->store->size());
  if (!tracer->enabled()) {
    out->Set("setup_s", Median(setup_s), "s");
  } else {
    out->Set("nlp.extract_s", Median(tracer->Durations("nlp.extract")) / 1e6,
             "s");
  }
  return true;
}

// Traced run only, after the measured phase: the two steps of
// SemanticIndex::Build called on their own, kRebuilds times each, on
// the corpus and options the index was built from. FastMap::Train gets the oracle
// Build gives it; the tree is stood up from the trained embedding with
// the built tree's options. Both must reproduce the built index.
void ProbeSetUp(const SemanticIndex& index, const std::vector<Triple>& triples,
                Tracer* tracer, RunResult* out) {
  constexpr int kRebuilds = 3;
  for (int rep = 0; rep < kRebuilds; ++rep) {
    semtree::CachingTripleDistance cached(index.distance());
    semtree::IndexDistanceFn oracle;
    if (index.options().cache_element_distances) {
      oracle = [&](size_t i, size_t j) { return cached(triples[i], triples[j]); };
    } else {
      oracle = [&](size_t i, size_t j) {
        return index.SemanticDistance(triples[i], triples[j]);
      };
    }
    semtree::Result<semtree::FastMap> fm = semtree::Status::Internal("");
    {
      Span s(tracer, "fastmap.train", uint64_t(rep));
      fm = semtree::FastMap::Train(triples.size(), oracle,
                                   index.options().fastmap);
    }
    if (!fm.ok() ||
        fm->flat_coordinates() != index.fastmap().flat_coordinates()) {
      out->Fail("FastMap::Train probe did not reproduce the index embedding");
      return;
    }
    auto tree = semtree::SemTree::Create(index.tree().options());
    if (!tree.ok()) {
      out->Fail("SemTree::Create: " + tree.status().ToString());
      return;
    }
    semtree::PointBlock block = index.fastmap().ToPointBlock();
    semtree::Status st;
    {
      Span s(tracer, "semtree.bulk_load", uint64_t(rep));
      st = (*tree)->BulkLoadBalanced(std::move(block));
    }
    if (!st.ok() || (*tree)->size() != index.tree().size()) {
      out->Fail("BulkLoadBalanced probe: " + st.ToString());
      return;
    }
  }
  out->Set("fastmap.train_s",
           Median(tracer->Durations("fastmap.train")) / 1e6, "s");
  out->Set("semtree.bulk_load_s",
           Median(tracer->Durations("semtree.bulk_load")) / 1e6, "s");
}

// The FastMap projection of `target`, computed here from the trained
// pivots (the oracle's own copy of SemanticIndex::Embed).
std::vector<double> OracleEmbed(const SemanticIndex& index,
                                const Triple& target) {
  const semtree::FastMap& fm = index.fastmap();
  std::vector<double> q(fm.dimensions(), 0.0);
  for (size_t axis = 0; axis < fm.pivots().size(); ++axis) {
    auto residual2 = [&](size_t pivot) {
      double d = index.SemanticDistance(target, index.triple(pivot));
      double r2 = d * d;
      for (size_t l = 0; l < axis; ++l) {
        double diff = q[l] - fm.CoordsRow(pivot)[l];
        r2 -= diff * diff;
      }
      return r2 < 0.0 ? 0.0 : r2;
    };
    double dab = fm.pivot_distances()[axis];
    q[axis] = (residual2(fm.pivots()[axis].first) + dab * dab -
               residual2(fm.pivots()[axis].second)) /
              (2.0 * dab);
  }
  return q;
}

std::vector<Neighbor> AsNeighbors(const Hits& hits) {
  std::vector<Neighbor> out;
  for (const SemanticIndex::Hit& h : hits) {
    out.push_back({h.id, h.embedded_distance});
  }
  return out;
}

bool SameHits(const Hits& a, const Hits& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].id != b[i].id || a[i].embedded_distance != b[i].embedded_distance ||
        a[i].semantic_distance != b[i].semantic_distance) {
      return false;
    }
  }
  return true;
}

// One query of an operation: KnnQuery or RangeQuery, under one span.
Hits Query(const SemanticIndex& index, const Triple& target, bool knn,
           Tracer* tracer, uint64_t op, std::string* error) {
  Span s(tracer, knn ? "index.knn_query" : "index.range_query", op);
  auto r = knn ? index.KnnQuery(target, kK) : index.RangeQuery(target, kRadius);
  if (!r.ok()) {
    *error = r.status().ToString();
    return {};
  }
  return std::move(*r);
}

// Traced run only, after the measured phase: the public calls KnnQuery
// and RangeQuery are made of, called on their own for every target of
// the round: Embed, then SemTree::KnnSearch and RangeSearch on the
// embedding. Gives the embedding's and the tree's own time, and the
// partitions each query visits.
void ProbeQueries(const SemanticIndex& index,
                  const std::vector<Triple>& targets, Tracer* tracer,
                  RunResult* out) {
  uint64_t visited = 0;
  for (size_t i = 0; i < targets.size(); ++i) {
    Span probe(tracer, "probe", i);
    std::vector<double> v;
    {
      Span s(tracer, "fastmap.embed", i);
      v = index.Embed(targets[i]);
    }
    for (bool knn : {true, false}) {
      semtree::DistributedSearchStats stats;
      semtree::Result<std::vector<Neighbor>> nb = semtree::Status::Internal("");
      {
        Span s(tracer, knn ? "semtree.knn" : "semtree.range", i);
        nb = knn ? index.tree().KnnSearch(v, kK, &stats)
                 : index.tree().RangeSearch(v, kRadius, &stats);
      }
      if (!nb.ok()) out->Fail("SemTree probe: " + nb.status().ToString());
      visited += stats.partitions_visited;
    }
  }
  out->Set("fastmap.embed_us", Median(tracer->Durations("fastmap.embed")),
           "us");
  out->Set("semtree.knn_us", Median(tracer->Durations("semtree.knn")), "us");
  out->Set("semtree.range_us", Median(tracer->Durations("semtree.range")),
           "us");
  out->Set("semtree.partitions_visited_per_query",
           double(visited) / double(2 * targets.size()), "count");
}

}  // namespace

void RunQbeSemantic(const RunConfig& cfg, RunResult* out) {
  ConfineToOneCpu();
  InitMetrics(cfg.trace, out);
  Tracer tracer(cfg.trace);
  const Taxonomy vocab = semtree::RequirementsVocabulary();
  semtree::RequirementsCorpusGenerator generator(&vocab, Corpus());
  const std::vector<semtree::RequirementsDocument> docs = generator.Generate();

  Built built;
  if (!SetUp(vocab, docs, &tracer, out, &built)) return;
  const TripleStore& store = *built.store;
  const SemanticIndex& index = *built.index;

  // The round: distinct requirements whose predicate has an antonym,
  // sampled from the seed.
  std::vector<TripleId> candidates;
  for (TripleId id = 0; id < store.size(); ++id) {
    if (semtree::MakeTargetTriple(store.Get(id), vocab).ok()) {
      candidates.push_back(id);
    }
  }
  if (candidates.size() < kRound) {
    out->Fail("too few requirements with an antinomic predicate");
    return;
  }
  Rng pick(cfg.seed, 33);
  for (size_t i = 0; i < kRound; ++i) {
    std::swap(candidates[i],
              candidates[i + pick.Below(candidates.size() - i)]);
  }
  const std::vector<TripleId> sources(candidates.begin(),
                                      candidates.begin() + kRound);

  WorkMeter meter(&index.tree(), cfg.trace);
  std::vector<Hits> round_knn(kRound), round_range(kRound);
  std::vector<Triple> round_targets(kRound);
  Phase phase;
  meter.Begin();
  phase.Start();
  do {
    for (size_t i = 0; i < kRound; ++i, ++phase.ops) {
      Span op(&tracer, "op", phase.ops);
      int64_t t0 = NowNs();
      auto target = semtree::MakeTargetTriple(store.Get(sources[i]), vocab);
      if (!target.ok()) {
        ++out->failed;
        continue;
      }
      std::string error;
      Hits knn = Query(index, *target, true, &tracer, phase.ops, &error);
      int64_t t1 = NowNs();
      Hits range = Query(index, *target, false, &tracer, phase.ops, &error);
      int64_t t2 = NowNs();
      // The target build is charged to the k-NN half of the operation.
      phase.Record(true, double(t1 - t0) / 1e3);
      phase.Record(false, double(t2 - t1) / 1e3);
      if (!error.empty()) {
        ++out->failed;
        std::fprintf(stderr, "query failed: %s\n", error.c_str());
        continue;
      }
      if (phase.ops < kRound) {
        round_targets[i] = *target;
        round_knn[i] = std::move(knn);
        round_range[i] = std::move(range);
      } else if (!SameHits(knn, round_knn[i]) ||
                 !SameHits(range, round_range[i])) {
        out->Fail("op " + std::to_string(phase.ops) +
                  " answered differently from the first round");
      }
    }
    if (phase.ops == kRound) {
      meter.End();
      phase.MarkExactPrefix();
    }
  } while (phase.Running(cfg.seconds));
  phase.Stop();
  out->attempted = phase.ops;
  const semtree::ClusterStats exact_net = meter.net();
  ReportPhase(phase, kRound, exact_net, cfg.trace, out);

  // Oracle: brute force over the embedded corpus with the query
  // embedding recomputed here; Eq. (1) per hit recomputed.
  PointSet embedded;
  embedded.dims = index.fastmap().dimensions();
  embedded.coords = index.fastmap().flat_coordinates();
  for (size_t i = 0; i < kRound && out->correct; ++i) {
    const Triple& target = round_targets[i];
    std::vector<double> q = OracleEmbed(index, target);
    std::vector<double> program = index.Embed(target);
    for (size_t d = 0; d < q.size(); ++d) {
      if (std::abs(q[d] - program[d]) > 1e-9 * (1.0 + std::abs(q[d]))) {
        out->Fail("Embed differs from the FastMap projection");
      }
    }
    std::string why;
    if (!SameKnn(embedded, q.data(), AsNeighbors(round_knn[i]),
                 BruteKnn(embedded, q.data(), kK), nullptr, nullptr, &why) ||
        !SameRange(embedded, q.data(), kRadius, AsNeighbors(round_range[i]),
                   BruteRange(embedded, q.data(), kRadius), nullptr, nullptr,
                   &why)) {
      out->Fail("op " + std::to_string(i) + ": " + why);
    }
    for (const Hits* hits : {&round_knn[i], &round_range[i]}) {
      for (const SemanticIndex::Hit& h : *hits) {
        double d = index.SemanticDistance(target, index.triple(h.id));
        if (d != h.semantic_distance) out->Fail("wrong Eq. (1) distance");
      }
    }
  }

  // Detection recall over the round: a k-NN hit detects the pair
  // (source, hit) when the exact scan lists it as inconsistent.
  const std::vector<InconsistentPair> truth =
      semtree::ExactInconsistencyScan(store, vocab);
  const std::set<InconsistentPair> truth_set(truth.begin(), truth.end());
  const std::set<TripleId> source_set(sources.begin(), sources.end());
  size_t truth_for_sources = 0;
  for (const InconsistentPair& p : truth) {
    truth_for_sources += source_set.count(p.a) + source_set.count(p.b) > 0;
  }
  std::set<InconsistentPair> detected;
  for (size_t i = 0; i < kRound; ++i) {
    const Triple& source = store.Get(sources[i]);
    for (const SemanticIndex::Hit& h : round_knn[i]) {
      if (h.id == sources[i]) continue;
      InconsistentPair p{std::min<TripleId>(sources[i], h.id),
                         std::max<TripleId>(sources[i], h.id)};
      bool listed = truth_set.count(p) > 0;
      if (listed != semtree::AreInconsistent(source, store.Get(h.id), vocab)) {
        out->Fail("AreInconsistent disagrees with ExactInconsistencyScan");
      }
      if (listed) detected.insert(p);
    }
  }
  const double recall =
      truth_for_sources == 0 ? 0.0
                             : double(detected.size()) / double(truth_for_sources);
  std::fprintf(stderr, "detection: %zu of %zu true pairs, recall %.4f\n",
               detected.size(), truth_for_sources, recall);

  if (cfg.trace) {
    out->Set("detect_recall", recall, "ratio");
    ReportExactWork(meter, exact_net, kRound, 2 * kRound, out);
    ProbeQueries(index, round_targets, &tracer, out);
    ProbeSetUp(index, store.triples(), &tracer, out);
    // Mean Eq. (1) time over a fixed sample of corpus pairs.
    Rng pairs(cfg.seed, 35);
    double sum = 0.0;
    {
      Span s(&tracer, "distance.eq1", 0);
      for (size_t i = 0; i < kEq1Pairs; ++i) {
        sum += index.SemanticDistance(index.triple(pairs.Below(store.size())),
                                      index.triple(pairs.Below(store.size())));
      }
    }
    std::fprintf(stderr, "eq1 sample sum %.6f\n", sum);
    out->Set("distance.eq1_us",
             tracer.Durations("distance.eq1")[0] / double(kEq1Pairs), "us");
    WriteTrace(cfg, tracer);
  }
}

}  // namespace perfbench
