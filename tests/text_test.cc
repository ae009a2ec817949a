// Copyright 2026 The SemTree Authors
//
// Unit + property tests for src/text: string distances and tokenizer.

#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "text/string_distance.h"
#include "text/tokenizer.h"

namespace semtree {
namespace {

// ---------------------------------------------------------------------
// Levenshtein

TEST(LevenshteinTest, KnownValues) {
  EXPECT_EQ(LevenshteinDistance("", ""), 0u);
  EXPECT_EQ(LevenshteinDistance("abc", ""), 3u);
  EXPECT_EQ(LevenshteinDistance("", "abc"), 3u);
  EXPECT_EQ(LevenshteinDistance("kitten", "sitting"), 3u);
  EXPECT_EQ(LevenshteinDistance("flaw", "lawn"), 2u);
  EXPECT_EQ(LevenshteinDistance("identical", "identical"), 0u);
}

// The single-row DP with a heap row for every call, as it was before
// short strings moved to a stack row.
size_t ReferenceLevenshtein(std::string_view a, std::string_view b) {
  if (a.size() < b.size()) std::swap(a, b);
  if (b.empty()) return a.size();
  std::vector<size_t> row(b.size() + 1);
  for (size_t j = 0; j <= b.size(); ++j) row[j] = j;
  for (size_t i = 1; i <= a.size(); ++i) {
    size_t diag = row[0];
    row[0] = i;
    for (size_t j = 1; j <= b.size(); ++j) {
      size_t up = row[j];
      size_t cost = (a[i - 1] == b[j - 1]) ? 0 : 1;
      row[j] = std::min({row[j - 1] + 1, up + 1, diag + cost});
      diag = up;
    }
  }
  return row[b.size()];
}

TEST(LevenshteinTest, StackAndHeapRowsMatchReference) {
  // Shorter-string lengths on both sides of the 64-char stack row.
  Rng rng(5);
  auto random_string = [&](size_t len) {
    std::string s;
    for (size_t i = 0; i < len; ++i) s.push_back(char('a' + rng.Uniform(4)));
    return s;
  };
  for (size_t short_len : {1, 2, 7, 63, 64, 65, 66, 130}) {
    for (int rep = 0; rep < 20; ++rep) {
      std::string a = random_string(short_len);
      std::string b = random_string(short_len + rng.Uniform(40));
      EXPECT_EQ(LevenshteinDistance(a, b), ReferenceLevenshtein(a, b))
          << short_len;
      EXPECT_EQ(LevenshteinDistance(b, a), ReferenceLevenshtein(a, b))
          << short_len;
    }
  }
}

TEST(LevenshteinTest, SingleEdits) {
  EXPECT_EQ(LevenshteinDistance("abc", "abd"), 1u);   // substitute
  EXPECT_EQ(LevenshteinDistance("abc", "abcd"), 1u);  // insert
  EXPECT_EQ(LevenshteinDistance("abc", "ab"), 1u);    // delete
}

TEST(NormalizedLevenshteinTest, RangeAndEdges) {
  EXPECT_DOUBLE_EQ(NormalizedLevenshtein("", ""), 0.0);
  EXPECT_DOUBLE_EQ(NormalizedLevenshtein("abc", "abc"), 0.0);
  EXPECT_DOUBLE_EQ(NormalizedLevenshtein("abc", "xyz"), 1.0);
  EXPECT_DOUBLE_EQ(NormalizedLevenshtein("ab", ""), 1.0);
  double d = NormalizedLevenshtein("OBSW001", "OBSW002");
  EXPECT_GT(d, 0.0);
  EXPECT_LT(d, 0.3);
}

TEST(DamerauTest, TranspositionCountsOnce) {
  EXPECT_EQ(LevenshteinDistance("ab", "ba"), 2u);
  EXPECT_EQ(DamerauLevenshteinDistance("ab", "ba"), 1u);
  EXPECT_EQ(DamerauLevenshteinDistance("abcdef", "abcdfe"), 1u);
  EXPECT_EQ(DamerauLevenshteinDistance("ca", "abc"), 3u);  // OSA variant
}

TEST(DamerauTest, MatchesLevenshteinWithoutTranspositions) {
  EXPECT_EQ(DamerauLevenshteinDistance("kitten", "sitting"), 3u);
  EXPECT_EQ(DamerauLevenshteinDistance("", "xyz"), 3u);
}

// ---------------------------------------------------------------------
// Jaro / Jaro–Winkler

TEST(JaroTest, KnownValues) {
  EXPECT_DOUBLE_EQ(JaroSimilarity("", ""), 1.0);
  EXPECT_DOUBLE_EQ(JaroSimilarity("a", ""), 0.0);
  EXPECT_DOUBLE_EQ(JaroSimilarity("abc", "abc"), 1.0);
  EXPECT_NEAR(JaroSimilarity("MARTHA", "MARHTA"), 0.944444, 1e-5);
  EXPECT_NEAR(JaroSimilarity("DWAYNE", "DUANE"), 0.822222, 1e-5);
}

TEST(JaroWinklerTest, PrefixBoost) {
  double jaro = JaroSimilarity("MARTHA", "MARHTA");
  double jw = JaroWinklerSimilarity("MARTHA", "MARHTA");
  EXPECT_GT(jw, jaro);
  EXPECT_NEAR(jw, 0.961111, 1e-5);
}

TEST(JaroWinklerTest, DistanceComplementsSimilarity) {
  EXPECT_DOUBLE_EQ(JaroWinklerDistance("abc", "abc"), 0.0);
  double s = JaroWinklerSimilarity("node", "note");
  EXPECT_DOUBLE_EQ(JaroWinklerDistance("node", "note"), 1.0 - s);
}

// ---------------------------------------------------------------------
// LCS / Dice

TEST(LcsTest, KnownValues) {
  EXPECT_EQ(LongestCommonSubsequence("", "x"), 0u);
  EXPECT_EQ(LongestCommonSubsequence("abcde", "ace"), 3u);
  EXPECT_EQ(LongestCommonSubsequence("abc", "abc"), 3u);
  EXPECT_EQ(LongestCommonSubsequence("abc", "def"), 0u);
}

TEST(DiceTest, BigramOverlap) {
  EXPECT_DOUBLE_EQ(BigramDiceSimilarity("night", "night"), 1.0);
  EXPECT_NEAR(BigramDiceSimilarity("night", "nacht"), 0.25, 1e-9);
  EXPECT_DOUBLE_EQ(BigramDiceSimilarity("ab", "cd"), 0.0);
  // Short strings fall back to equality.
  EXPECT_DOUBLE_EQ(BigramDiceSimilarity("a", "a"), 1.0);
  EXPECT_DOUBLE_EQ(BigramDiceSimilarity("a", "b"), 0.0);
}

// ---------------------------------------------------------------------
// Property sweep over all dispatchable distances

class StringDistanceProperty
    : public ::testing::TestWithParam<StringDistanceKind> {};

TEST_P(StringDistanceProperty, IdentitySymmetryRange) {
  Rng rng(99);
  for (int i = 0; i < 300; ++i) {
    std::string a = rng.Identifier(rng.Uniform(12));
    std::string b = rng.Identifier(rng.Uniform(12));
    double dab = StringDistance(GetParam(), a, b);
    double dba = StringDistance(GetParam(), b, a);
    EXPECT_DOUBLE_EQ(StringDistance(GetParam(), a, a), 0.0) << a;
    EXPECT_DOUBLE_EQ(dab, dba) << a << " / " << b;
    EXPECT_GE(dab, 0.0);
    EXPECT_LE(dab, 1.0);
  }
}

TEST_P(StringDistanceProperty, DistinctStringsPositive) {
  EXPECT_GT(StringDistance(GetParam(), "alpha", "omega"), 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    AllKinds, StringDistanceProperty,
    ::testing::Values(StringDistanceKind::kNormalizedLevenshtein,
                      StringDistanceKind::kJaroWinkler,
                      StringDistanceKind::kBigramDice));

TEST(LevenshteinPropertyTest, TriangleInequalityOnSamples) {
  Rng rng(123);
  for (int i = 0; i < 200; ++i) {
    std::string a = rng.Identifier(1 + rng.Uniform(8));
    std::string b = rng.Identifier(1 + rng.Uniform(8));
    std::string c = rng.Identifier(1 + rng.Uniform(8));
    EXPECT_LE(LevenshteinDistance(a, c),
              LevenshteinDistance(a, b) + LevenshteinDistance(b, c));
  }
}

// ---------------------------------------------------------------------
// Tokenizer

TEST(TokenizerTest, SplitsSentencesOnTerminators) {
  auto s = SplitSentences("First one. Second one! Third one? ");
  ASSERT_EQ(s.size(), 3u);
  EXPECT_EQ(s[0], "First one");
  EXPECT_EQ(s[1], "Second one");
  EXPECT_EQ(s[2], "Third one");
}

TEST(TokenizerTest, EmptyAndWhitespaceOnly) {
  EXPECT_TRUE(SplitSentences("").empty());
  EXPECT_TRUE(SplitSentences("   \n ").empty());
  EXPECT_TRUE(Tokenize("").empty());
}

TEST(TokenizerTest, LowercasesAndDropsPunctuation) {
  auto t = Tokenize("The OBSW001 component, shall (accept)!");
  ASSERT_EQ(t.size(), 5u);
  EXPECT_EQ(t[0], "the");
  EXPECT_EQ(t[1], "obsw001");
  EXPECT_EQ(t[4], "accept");
}

TEST(TokenizerTest, PreservesHyphensAndUnderscoresInWords) {
  auto t = Tokenize("acquire the pre-launch_phase input");
  ASSERT_EQ(t.size(), 4u);
  EXPECT_EQ(t[2], "pre-launch_phase");
}

TEST(TokenizerTest, PreservingCaseVariant) {
  auto t = TokenizePreservingCase("The OBSW001 shall");
  ASSERT_EQ(t.size(), 3u);
  EXPECT_EQ(t[1], "OBSW001");
}

}  // namespace
}  // namespace semtree
