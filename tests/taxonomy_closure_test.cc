// Copyright 2026 The SemTree Authors
//
// The taxonomy's ancestor-closure table against the breadth-first walks
// it replaced: every structure query and every similarity measure must
// give the same integers and the same doubles, on the built-in
// vocabulary, on random DAGs with multiple inheritance, and after edges
// are added to a taxonomy that has already answered queries. Also
// checks that the first reads of a fresh taxonomy may come from many
// threads at once.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <deque>
#include <limits>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "ontology/requirements_vocabulary.h"
#include "ontology/similarity.h"
#include "ontology/taxonomy.h"
#include "random_taxonomy.h"

namespace semtree {
namespace {

constexpr SimilarityMeasure kMeasures[] = {
    SimilarityMeasure::kWuPalmer, SimilarityMeasure::kPath,
    SimilarityMeasure::kLeacockChodorow, SimilarityMeasure::kResnik,
    SimilarityMeasure::kLin};

// The breadth-first walks the closure table replaced, with the
// similarity formulas written over them. Each concept's upward walks run
// once, here in the constructor; the pair queries combine their results
// exactly as the old code did. The table must reproduce it bit for bit.
class BfsReference {
 public:
  explicit BfsReference(const Taxonomy& tax) : tax_(tax) {
    for (ConceptId c = 0; c < tax.size(); ++c) {
      ancestors_.push_back(WalkAncestors(c));
      up_distances_.push_back(WalkUpDistances(c));
    }
    depths_.assign(tax.size(), std::numeric_limits<size_t>::max());
    depths_[tax.root()] = 0;
    std::deque<ConceptId> queue = {tax.root()};
    while (!queue.empty()) {
      ConceptId c = queue.front();
      queue.pop_front();
      for (ConceptId child : tax.children(c)) {
        if (depths_[child] > depths_[c] + 1) {
          depths_[child] = depths_[c] + 1;
          max_depth_ = std::max(max_depth_, depths_[child]);
          queue.push_back(child);
        }
      }
    }

    uint64_t total_observed = 0;
    for (ConceptId c = 0; c < tax.size(); ++c) {
      total_observed += tax.frequency(c);
    }
    const bool uniform = total_observed == 0;
    std::vector<double> mass(tax.size(), 0.0);
    for (ConceptId c = 0; c < tax.size(); ++c) {
      double own = uniform ? 1.0 : static_cast<double>(tax.frequency(c));
      if (own == 0.0) continue;
      for (ConceptId anc : Ancestors(c)) mass[anc] += own;
    }
    double root_mass = mass[tax.root()];
    ic_.assign(tax.size(), 0.0);
    for (ConceptId c = 0; c < tax.size(); ++c) {
      double p = (root_mass > 0.0) ? mass[c] / root_mass : 0.0;
      if (p <= 0.0) p = 0.5 / (root_mass + 1.0);
      ic_[c] = -std::log(p);
      max_ic_ = std::max(max_ic_, ic_[c]);
    }
  }

  size_t Depth(ConceptId c) const { return depths_[c]; }
  size_t MaxDepth() const { return max_depth_; }
  double InformationContent(ConceptId c) const { return ic_[c]; }

  const std::vector<ConceptId>& Ancestors(ConceptId c) const {
    return ancestors_[c];
  }

  ConceptId LowestCommonSubsumer(ConceptId a, ConceptId b) const {
    const std::vector<ConceptId>& a_up = Ancestors(a);
    std::unordered_set<ConceptId> a_set(a_up.begin(), a_up.end());
    ConceptId best = tax_.root();
    size_t best_depth = 0;
    for (ConceptId c : Ancestors(b)) {
      if (!a_set.count(c)) continue;
      size_t d = depths_[c];
      if (d >= best_depth) {
        if (d > best_depth || c < best) best = c;
        best_depth = d;
      }
    }
    return best;
  }

  size_t UpEdges(ConceptId descendant, ConceptId ancestor) const {
    const auto& dist = up_distances_[descendant];
    auto it = dist.find(ancestor);
    return it == dist.end() ? std::numeric_limits<size_t>::max()
                            : it->second;
  }

  size_t ShortestPathEdges(ConceptId a, ConceptId b) const {
    if (a == b) return 0;
    const auto& da = up_distances_[a];
    const auto& db = up_distances_[b];
    size_t best = std::numeric_limits<size_t>::max();
    for (const auto& [c, d] : da) {
      auto it = db.find(c);
      if (it != db.end()) best = std::min(best, d + it->second);
    }
    return best;
  }

  double Similarity(SimilarityMeasure m, ConceptId a, ConceptId b) const {
    switch (m) {
      case SimilarityMeasure::kWuPalmer: {
        if (a == b) return 1.0;
        ConceptId lcs = LowestCommonSubsumer(a, b);
        double n1 = static_cast<double>(UpEdges(a, lcs));
        double n2 = static_cast<double>(UpEdges(b, lcs));
        double n3 = static_cast<double>(Depth(lcs)) + 1.0;
        return 2.0 * n3 / (n1 + n2 + 2.0 * n3);
      }
      case SimilarityMeasure::kPath:
        return 1.0 /
               (1.0 + static_cast<double>(ShortestPathEdges(a, b)));
      case SimilarityMeasure::kLeacockChodorow: {
        double depth = static_cast<double>(std::max<size_t>(max_depth_, 1));
        double len = static_cast<double>(ShortestPathEdges(a, b)) + 1.0;
        double raw = -std::log(len / (2.0 * depth));
        double max_raw = -std::log(1.0 / (2.0 * depth));
        if (max_raw <= 0.0) return a == b ? 1.0 : 0.0;
        return std::clamp(raw / max_raw, 0.0, 1.0);
      }
      case SimilarityMeasure::kResnik: {
        if (a == b) return 1.0;
        ConceptId lcs = LowestCommonSubsumer(a, b);
        if (max_ic_ <= 0.0) return 0.0;
        return std::clamp(ic_[lcs] / max_ic_, 0.0, 1.0);
      }
      case SimilarityMeasure::kLin: {
        if (a == b) return 1.0;
        ConceptId lcs = LowestCommonSubsumer(a, b);
        double denom = ic_[a] + ic_[b];
        if (denom <= 0.0) return 1.0;
        return std::clamp(2.0 * ic_[lcs] / denom, 0.0, 1.0);
      }
    }
    return 0.0;
  }

 private:
  std::vector<ConceptId> WalkAncestors(ConceptId c) const {
    std::vector<ConceptId> out;
    std::unordered_set<ConceptId> seen = {c};
    std::deque<ConceptId> queue = {c};
    while (!queue.empty()) {
      ConceptId cur = queue.front();
      queue.pop_front();
      out.push_back(cur);
      for (ConceptId p : tax_.parents(cur)) {
        if (seen.insert(p).second) queue.push_back(p);
      }
    }
    return out;
  }

  std::unordered_map<ConceptId, size_t> WalkUpDistances(
      ConceptId from) const {
    std::unordered_map<ConceptId, size_t> dist = {{from, 0}};
    std::deque<ConceptId> queue = {from};
    while (!queue.empty()) {
      ConceptId c = queue.front();
      queue.pop_front();
      for (ConceptId p : tax_.parents(c)) {
        if (!dist.count(p)) {
          dist[p] = dist[c] + 1;
          queue.push_back(p);
        }
      }
    }
    return dist;
  }

  const Taxonomy& tax_;
  std::vector<std::vector<ConceptId>> ancestors_;
  std::vector<std::unordered_map<ConceptId, size_t>> up_distances_;
  std::vector<size_t> depths_;
  size_t max_depth_ = 0;
  std::vector<double> ic_;
  double max_ic_ = 0.0;
};

::testing::AssertionResult PairMatches(const Taxonomy& tax,
                                       const BfsReference& ref, ConceptId a,
                                       ConceptId b) {
  auto fail = [&](const char* what) {
    return ::testing::AssertionFailure()
           << what << " differs for (" << tax.name(a) << ", " << tax.name(b)
           << ")";
  };
  if (tax.LowestCommonSubsumer(a, b) != ref.LowestCommonSubsumer(a, b)) {
    return fail("LowestCommonSubsumer");
  }
  if (tax.ShortestPathEdges(a, b) != ref.ShortestPathEdges(a, b)) {
    return fail("ShortestPathEdges");
  }
  if (tax.UpEdges(a, b) != ref.UpEdges(a, b)) return fail("UpEdges");
  bool ref_ancestor = ref.UpEdges(a, b) != std::numeric_limits<size_t>::max();
  if (tax.IsAncestor(b, a) != ref_ancestor) return fail("IsAncestor");
  for (SimilarityMeasure m : kMeasures) {
    // Exact equality: the table must not change a single bit.
    if (ConceptSimilarity(m, tax, a, b) != ref.Similarity(m, a, b)) {
      return fail(SimilarityMeasureName(m));
    }
  }
  return ::testing::AssertionSuccess();
}

void ExpectMatchesReference(const Taxonomy& tax) {
  ASSERT_TRUE(tax.Validate().ok());
  BfsReference ref(tax);
  EXPECT_EQ(tax.MaxDepth(), ref.MaxDepth());
  for (ConceptId a = 0; a < tax.size(); ++a) {
    ASSERT_EQ(tax.Depth(a), ref.Depth(a)) << tax.name(a);
    ASSERT_EQ(tax.InformationContent(a), ref.InformationContent(a))
        << tax.name(a);
    std::vector<ConceptId> want = ref.Ancestors(a);
    std::sort(want.begin(), want.end());
    ASSERT_EQ(tax.Ancestors(a), want) << tax.name(a);
    for (ConceptId b = 0; b < tax.size(); ++b) {
      ASSERT_TRUE(PairMatches(tax, ref, a, b));
    }
  }
}

TEST(TaxonomyClosureTest, MatchesBfsOnRequirementsVocabulary) {
  ExpectMatchesReference(RequirementsVocabulary());
}

TEST(TaxonomyClosureTest, MatchesBfsOnMiniWordNet) {
  ExpectMatchesReference(MiniWordNet());
}

TEST(TaxonomyClosureTest, MatchesBfsOnRandomDags) {
  for (uint64_t seed : {11, 22, 33, 44, 55}) {
    SCOPED_TRACE(seed);
    Taxonomy tax = RandomTaxonomy(120, seed);
    ExpectMatchesReference(tax);
    // Observed frequencies move the information content off the
    // uniform fallback; Resnik and Lin must still agree.
    Rng rng(seed);
    for (int i = 0; i < 200; ++i) {
      ConceptId c = ConceptId(rng.Uniform(tax.size()));
      ASSERT_TRUE(tax.AddFrequency(c, 1 + rng.Uniform(50)).ok());
    }
    ExpectMatchesReference(tax);
  }
}

TEST(TaxonomyClosureTest, AddParentAfterQueriesUpdatesTheTable) {
  for (uint64_t seed : {7, 8, 9}) {
    SCOPED_TRACE(seed);
    Taxonomy tax = RandomTaxonomy(120, seed);
    ExpectMatchesReference(tax);  // Answers queries before the edges.
    std::vector<size_t> depths_before;
    for (ConceptId c = 0; c < tax.size(); ++c) {
      depths_before.push_back(tax.Depth(c));
    }
    // Extra edges, each from a concept to one of the root's children:
    // a shortcut that shortens every chain through the child.
    Rng rng(seed + 100);
    const std::vector<ConceptId> top = tax.children(tax.root());
    size_t added = 0;
    for (int i = 0; i < 20; ++i) {
      ConceptId child = ConceptId(1 + rng.Uniform(tax.size() - 1));
      ConceptId parent = top[rng.Uniform(top.size())];
      if (tax.AddParent(child, parent).ok()) ++added;
    }
    ASSERT_GT(added, 0u);
    size_t changed = 0;
    for (ConceptId c = 0; c < tax.size(); ++c) {
      changed += tax.Depth(c) != depths_before[c];
    }
    EXPECT_GT(changed, 0u);  // The edges did shorten some chains.
    ExpectMatchesReference(tax);
  }
}

// The first Wu-Palmer and Lin reads of a fresh taxonomy, from four
// threads at once. Lin fills the lazy information-content cache; under
// TSan any unguarded first-read write is a reported race.
TEST(TaxonomyConcurrencyTest, FirstReadsFromManyThreadsAgree) {
  const Taxonomy reference = RequirementsVocabulary();
  const size_t n = reference.size();
  std::vector<double> want;
  for (ConceptId a = 0; a < n; ++a) {
    for (ConceptId b = 0; b < n; ++b) {
      want.push_back(
          ConceptDistance(SimilarityMeasure::kWuPalmer, reference, a, b));
      want.push_back(
          ConceptDistance(SimilarityMeasure::kLin, reference, a, b));
    }
  }

  const Taxonomy fresh = RequirementsVocabulary();
  constexpr int kThreads = 4;
  std::atomic<int> ready{0};
  std::vector<std::vector<double>> got(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      ready.fetch_add(1);
      while (ready.load() < kThreads) std::this_thread::yield();
      // Lin first on odd threads, so both measures make a first read.
      std::vector<double>& out = got[t];
      out.resize(want.size());
      for (ConceptId a = 0; a < n; ++a) {
        for (ConceptId b = 0; b < n; ++b) {
          size_t i = 2 * (size_t{a} * n + b);
          if (t % 2 == 1) {
            out[i + 1] =
                ConceptDistance(SimilarityMeasure::kLin, fresh, a, b);
          }
          out[i] = ConceptDistance(SimilarityMeasure::kWuPalmer, fresh, a, b);
          if (t % 2 == 0) {
            out[i + 1] =
                ConceptDistance(SimilarityMeasure::kLin, fresh, a, b);
          }
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(got[t], want) << t;
}

}  // namespace
}  // namespace semtree
