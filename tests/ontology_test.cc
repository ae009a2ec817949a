// Copyright 2026 The SemTree Authors
//
// Tests for src/ontology: taxonomy structure, similarity measures,
// vocabulary IO, and the built-in vocabularies.

#include <gtest/gtest.h>

#include "ontology/requirements_vocabulary.h"
#include "ontology/similarity.h"
#include "ontology/taxonomy.h"
#include "ontology/vocabulary_io.h"

namespace semtree {
namespace {

Taxonomy SmallTaxonomy() {
  // entity -> animal -> {mammal -> {dog, cat}, bird -> eagle}
  Taxonomy tax;
  EXPECT_TRUE(tax.AddConcept("animal").ok());
  EXPECT_TRUE(tax.AddConcept("mammal", {"animal"}).ok());
  EXPECT_TRUE(tax.AddConcept("bird", {"animal"}).ok());
  EXPECT_TRUE(tax.AddConcept("dog", {"mammal"}).ok());
  EXPECT_TRUE(tax.AddConcept("cat", {"mammal"}).ok());
  EXPECT_TRUE(tax.AddConcept("eagle", {"bird"}).ok());
  return tax;
}

ConceptId Id(const Taxonomy& tax, const std::string& name) {
  auto r = tax.Find(name);
  EXPECT_TRUE(r.ok()) << name;
  return r.ok() ? *r : kInvalidConcept;
}

// ---------------------------------------------------------------------
// Structure

TEST(TaxonomyTest, RootOnlyAtConstruction) {
  Taxonomy tax;
  EXPECT_EQ(tax.size(), 1u);
  EXPECT_EQ(tax.name(tax.root()), "entity");
  EXPECT_EQ(tax.Depth(tax.root()), 0u);
  EXPECT_TRUE(tax.Validate().ok());
}

TEST(TaxonomyTest, AddConceptDefaultsToRootParent) {
  Taxonomy tax;
  auto id = tax.AddConcept("thing");
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(tax.parents(*id).size(), 1u);
  EXPECT_EQ(tax.parents(*id)[0], tax.root());
  EXPECT_EQ(tax.Depth(*id), 1u);
}

TEST(TaxonomyTest, DuplicateNameRejected) {
  Taxonomy tax;
  ASSERT_TRUE(tax.AddConcept("x").ok());
  EXPECT_TRUE(tax.AddConcept("x").status().IsAlreadyExists());
}

TEST(TaxonomyTest, UnknownParentRejected) {
  Taxonomy tax;
  EXPECT_TRUE(tax.AddConcept("x", {"ghost"}).status().IsNotFound());
}

TEST(TaxonomyTest, EmptyNameRejected) {
  Taxonomy tax;
  EXPECT_TRUE(tax.AddConcept("").status().IsInvalidArgument());
}

TEST(TaxonomyTest, DepthsFollowShortestChain) {
  Taxonomy tax = SmallTaxonomy();
  EXPECT_EQ(tax.Depth(Id(tax, "animal")), 1u);
  EXPECT_EQ(tax.Depth(Id(tax, "mammal")), 2u);
  EXPECT_EQ(tax.Depth(Id(tax, "dog")), 3u);
  EXPECT_EQ(tax.MaxDepth(), 3u);
}

TEST(TaxonomyTest, MultipleInheritanceShortensDepth) {
  Taxonomy tax = SmallTaxonomy();
  // Give "dog" a second parent directly under the root.
  ASSERT_TRUE(tax.AddConcept("pet").ok());
  ASSERT_TRUE(tax.AddParent(Id(tax, "dog"), Id(tax, "pet")).ok());
  EXPECT_EQ(tax.Depth(Id(tax, "dog")), 2u);  // entity->pet->dog
  EXPECT_TRUE(tax.Validate().ok());
}

TEST(TaxonomyTest, CycleRejected) {
  Taxonomy tax = SmallTaxonomy();
  // animal cannot become a child of dog.
  Status st = tax.AddParent(Id(tax, "animal"), Id(tax, "dog"));
  EXPECT_TRUE(st.IsFailedPrecondition());
  EXPECT_TRUE(tax.Validate().ok());
}

TEST(TaxonomyTest, RootCannotGainParent) {
  Taxonomy tax = SmallTaxonomy();
  EXPECT_TRUE(tax.AddParent(tax.root(), Id(tax, "animal"))
                  .IsInvalidArgument());
}

TEST(TaxonomyTest, IsAncestorReflexiveAndTransitive) {
  Taxonomy tax = SmallTaxonomy();
  ConceptId dog = Id(tax, "dog");
  EXPECT_TRUE(tax.IsAncestor(dog, dog));
  EXPECT_TRUE(tax.IsAncestor(Id(tax, "mammal"), dog));
  EXPECT_TRUE(tax.IsAncestor(Id(tax, "animal"), dog));
  EXPECT_TRUE(tax.IsAncestor(tax.root(), dog));
  EXPECT_FALSE(tax.IsAncestor(Id(tax, "bird"), dog));
  EXPECT_FALSE(tax.IsAncestor(dog, Id(tax, "mammal")));
}

TEST(TaxonomyTest, AncestorsInclusive) {
  Taxonomy tax = SmallTaxonomy();
  auto ancestors = tax.Ancestors(Id(tax, "dog"));
  EXPECT_EQ(ancestors.size(), 4u);  // dog, mammal, animal, entity
}

TEST(TaxonomyTest, LowestCommonSubsumer) {
  Taxonomy tax = SmallTaxonomy();
  EXPECT_EQ(tax.LowestCommonSubsumer(Id(tax, "dog"), Id(tax, "cat")),
            Id(tax, "mammal"));
  EXPECT_EQ(tax.LowestCommonSubsumer(Id(tax, "dog"), Id(tax, "eagle")),
            Id(tax, "animal"));
  EXPECT_EQ(tax.LowestCommonSubsumer(Id(tax, "dog"), Id(tax, "dog")),
            Id(tax, "dog"));
  EXPECT_EQ(tax.LowestCommonSubsumer(Id(tax, "dog"), Id(tax, "mammal")),
            Id(tax, "mammal"));
}

TEST(TaxonomyTest, ShortestPathEdges) {
  Taxonomy tax = SmallTaxonomy();
  EXPECT_EQ(tax.ShortestPathEdges(Id(tax, "dog"), Id(tax, "dog")), 0u);
  EXPECT_EQ(tax.ShortestPathEdges(Id(tax, "dog"), Id(tax, "cat")), 2u);
  EXPECT_EQ(tax.ShortestPathEdges(Id(tax, "dog"), Id(tax, "eagle")), 4u);
  EXPECT_EQ(tax.ShortestPathEdges(Id(tax, "dog"), Id(tax, "mammal")), 1u);
}

TEST(TaxonomyTest, SynonymsResolve) {
  Taxonomy tax = SmallTaxonomy();
  ASSERT_TRUE(tax.AddSynonym("hound", Id(tax, "dog")).ok());
  EXPECT_TRUE(tax.Contains("hound"));
  EXPECT_EQ(Id(tax, "hound"), Id(tax, "dog"));
  // A synonym cannot shadow an existing name.
  EXPECT_TRUE(tax.AddSynonym("cat", Id(tax, "dog")).IsAlreadyExists());
  EXPECT_TRUE(tax.AddSynonym("hound", Id(tax, "cat")).IsAlreadyExists());
}

TEST(TaxonomyTest, FindIdResolvesNamesAndAliases) {
  Taxonomy tax = SmallTaxonomy();
  ASSERT_TRUE(tax.AddSynonym("hound", Id(tax, "dog")).ok());
  EXPECT_EQ(tax.FindId("dog"), Id(tax, "dog"));
  EXPECT_EQ(tax.FindId("hound"), Id(tax, "dog"));
  EXPECT_EQ(tax.FindId("entity"), tax.root());
  EXPECT_EQ(tax.FindId("unicorn"), kInvalidConcept);
  EXPECT_EQ(tax.FindId(""), kInvalidConcept);
  EXPECT_TRUE(tax.Find("unicorn").status().IsNotFound());
}

TEST(TaxonomyTest, AntonymsSymmetric) {
  Taxonomy tax = SmallTaxonomy();
  ConceptId dog = Id(tax, "dog");
  ConceptId cat = Id(tax, "cat");
  ASSERT_TRUE(tax.AddAntonym(dog, cat).ok());
  EXPECT_TRUE(tax.AreAntonyms(dog, cat));
  EXPECT_TRUE(tax.AreAntonyms(cat, dog));
  EXPECT_FALSE(tax.AreAntonyms(dog, Id(tax, "eagle")));
  EXPECT_TRUE(tax.AddAntonym(dog, cat).IsAlreadyExists());
  EXPECT_TRUE(tax.AddAntonym(dog, dog).IsInvalidArgument());
  auto names = tax.AntonymNamesOf("dog");
  ASSERT_EQ(names.size(), 1u);
  EXPECT_EQ(names[0], "cat");
}

TEST(TaxonomyTest, InformationContentMonotoneDown) {
  Taxonomy tax = SmallTaxonomy();
  // Uniform fallback: deeper concepts are rarer, so IC grows downward.
  EXPECT_DOUBLE_EQ(tax.InformationContent(tax.root()), 0.0);
  EXPECT_LT(tax.InformationContent(Id(tax, "animal")),
            tax.InformationContent(Id(tax, "mammal")));
  EXPECT_LT(tax.InformationContent(Id(tax, "mammal")),
            tax.InformationContent(Id(tax, "dog")) + 1e-12);
  EXPECT_GT(tax.MaxInformationContent(), 0.0);
}

TEST(TaxonomyTest, FrequenciesShiftInformationContent) {
  Taxonomy tax = SmallTaxonomy();
  ASSERT_TRUE(tax.AddFrequency(Id(tax, "dog"), 1000).ok());
  ASSERT_TRUE(tax.AddFrequency(Id(tax, "eagle"), 10).ok());
  EXPECT_LT(tax.InformationContent(Id(tax, "dog")),
            tax.InformationContent(Id(tax, "eagle")));
}

// ---------------------------------------------------------------------
// Similarity measures

class MeasureProperty
    : public ::testing::TestWithParam<SimilarityMeasure> {};

TEST_P(MeasureProperty, RangeIdentityAndSymmetry) {
  Taxonomy tax = MiniWordNet();
  std::vector<std::string> names = {"dog",   "cat",   "car",
                                    "eagle", "pilot", "entity"};
  for (const auto& a : names) {
    for (const auto& b : names) {
      double sab = ConceptSimilarity(GetParam(), tax, Id(tax, a), Id(tax, b));
      double sba = ConceptSimilarity(GetParam(), tax, Id(tax, b), Id(tax, a));
      EXPECT_DOUBLE_EQ(sab, sba) << a << "/" << b;
      EXPECT_GE(sab, 0.0);
      EXPECT_LE(sab, 1.0);
      if (a == b) {
        EXPECT_DOUBLE_EQ(sab, 1.0) << a;
      }
    }
  }
}

TEST_P(MeasureProperty, SiblingsCloserThanCrossFamily) {
  Taxonomy tax = MiniWordNet();
  double siblings =
      ConceptSimilarity(GetParam(), tax, Id(tax, "dog"), Id(tax, "cat"));
  double cross =
      ConceptSimilarity(GetParam(), tax, Id(tax, "dog"), Id(tax, "car"));
  EXPECT_GT(siblings, cross);
}

TEST_P(MeasureProperty, DistanceComplementsSimilarity) {
  Taxonomy tax = MiniWordNet();
  ConceptId a = Id(tax, "dog");
  ConceptId b = Id(tax, "eagle");
  EXPECT_DOUBLE_EQ(ConceptDistance(GetParam(), tax, a, b),
                   1.0 - ConceptSimilarity(GetParam(), tax, a, b));
}

INSTANTIATE_TEST_SUITE_P(AllMeasures, MeasureProperty,
                         ::testing::Values(SimilarityMeasure::kWuPalmer,
                                           SimilarityMeasure::kPath,
                                           SimilarityMeasure::kLeacockChodorow,
                                           SimilarityMeasure::kResnik,
                                           SimilarityMeasure::kLin));

TEST(WuPalmerTest, ClassicFormula) {
  Taxonomy tax = SmallTaxonomy();
  // dog: depth 3, cat: depth 3, lcs mammal: depth 2, counted from 1:
  // 2*3 / (4+4) = 0.75.
  EXPECT_DOUBLE_EQ(
      WuPalmerSimilarity(tax, Id(tax, "dog"), Id(tax, "cat")), 0.75);
  // dog vs eagle (both depth 3): lcs animal (depth 1 -> 2):
  // 2*2/(4+4) = 0.5.
  EXPECT_NEAR(WuPalmerSimilarity(tax, Id(tax, "dog"), Id(tax, "eagle")),
              0.5, 1e-12);
}

TEST(PathSimilarityTest, InversePathLength) {
  Taxonomy tax = SmallTaxonomy();
  EXPECT_DOUBLE_EQ(PathSimilarity(tax, Id(tax, "dog"), Id(tax, "cat")),
                   1.0 / 3.0);
  EXPECT_DOUBLE_EQ(PathSimilarity(tax, Id(tax, "dog"), Id(tax, "dog")),
                   1.0);
}

TEST(SimilarityMeasureNameTest, AllNamed) {
  EXPECT_STREQ(SimilarityMeasureName(SimilarityMeasure::kWuPalmer),
               "wu-palmer");
  EXPECT_STREQ(SimilarityMeasureName(SimilarityMeasure::kLin), "lin");
}

// ---------------------------------------------------------------------
// Vocabulary IO

TEST(VocabularyIoTest, ParseMinimal) {
  auto tax = ParseVocabulary(R"(
# comment
concept animal
concept dog animal
concept cat animal
synonym hound dog
antonym dog cat
freq dog 10
)");
  ASSERT_TRUE(tax.ok()) << tax.status().ToString();
  EXPECT_EQ(tax->size(), 4u);
  EXPECT_EQ(Id(*tax, "hound"), Id(*tax, "dog"));
  EXPECT_TRUE(tax->AreAntonyms(Id(*tax, "dog"), Id(*tax, "cat")));
  EXPECT_EQ(tax->frequency(Id(*tax, "dog")), 10u);
}

TEST(VocabularyIoTest, CustomRootDirective) {
  auto tax = ParseVocabulary("root thing\nconcept gadget thing\n");
  ASSERT_TRUE(tax.ok());
  EXPECT_EQ(tax->root_name(), "thing");
  EXPECT_TRUE(tax->Contains("gadget"));
}

TEST(VocabularyIoTest, ErrorsNameTheLine) {
  auto bad = ParseVocabulary("concept a\nbogus x y\n");
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.status().message().find("line 2"), std::string::npos);

  auto missing = ParseVocabulary("concept a ghost\n");
  ASSERT_FALSE(missing.ok());

  auto late_root = ParseVocabulary("concept a\nroot b\n");
  ASSERT_FALSE(late_root.ok());

  auto bad_freq = ParseVocabulary("concept a\nfreq a ten\n");
  ASSERT_FALSE(bad_freq.ok());
}

TEST(VocabularyIoTest, SerializeRoundTrip) {
  Taxonomy original = RequirementsVocabulary();
  std::string text = SerializeVocabulary(original);
  auto reparsed = ParseVocabulary(text);
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString();
  EXPECT_EQ(reparsed->size(), original.size());
  EXPECT_EQ(reparsed->ConceptNames(), original.ConceptNames());
  EXPECT_EQ(reparsed->AntonymPairs(), original.AntonymPairs());
  EXPECT_EQ(reparsed->Synonyms().size(), original.Synonyms().size());
  // Structure-derived quantities must agree too.
  EXPECT_EQ(reparsed->MaxDepth(), original.MaxDepth());
  for (ConceptId c = 0; c < original.size(); ++c) {
    EXPECT_EQ(reparsed->Depth(c), original.Depth(c));
  }
}

TEST(VocabularyIoTest, FileRoundTrip) {
  Taxonomy original = MiniWordNet();
  std::string path = ::testing::TempDir() + "/vocab_roundtrip.txt";
  ASSERT_TRUE(SaveVocabularyFile(original, path).ok());
  auto loaded = LoadVocabularyFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->size(), original.size());
  EXPECT_TRUE(LoadVocabularyFile("/nonexistent/vocab.txt")
                  .status()
                  .IsNotFound());
}

// ---------------------------------------------------------------------
// Built-in vocabularies

TEST(RequirementsVocabularyTest, ValidatesAndHasExpectedShape) {
  Taxonomy tax = RequirementsVocabulary();
  EXPECT_TRUE(tax.Validate().ok());
  EXPECT_GT(tax.size(), 80u);
  EXPECT_TRUE(tax.Contains("accept_cmd"));
  EXPECT_TRUE(tax.Contains("startup_cmd"));
  EXPECT_TRUE(tax.Contains("obsw_component"));
}

TEST(RequirementsVocabularyTest, PaperAntinomiesPresent) {
  Taxonomy tax = RequirementsVocabulary();
  // The motivating example: accept_cmd vs block_cmd (§II).
  EXPECT_TRUE(tax.AreAntonyms(Id(tax, "accept_cmd"), Id(tax, "block_cmd")));
  EXPECT_TRUE(tax.AreAntonyms(Id(tax, "send_msg"), Id(tax, "inhibit_msg")));
  EXPECT_TRUE(tax.AreAntonyms(Id(tax, "start_up"), Id(tax, "shut_down")));
  EXPECT_FALSE(
      tax.AreAntonyms(Id(tax, "accept_cmd"), Id(tax, "send_msg")));
}

TEST(RequirementsVocabularyTest, SynonymsResolve) {
  Taxonomy tax = RequirementsVocabulary();
  EXPECT_EQ(Id(tax, "reject_cmd"), Id(tax, "block_cmd"));
  EXPECT_EQ(Id(tax, "boot"), Id(tax, "start_up"));
}

TEST(RequirementsVocabularyTest, FunctionAndParameterEnumerations) {
  auto functions = RequirementsFunctionNames();
  auto parameters = RequirementsParameterNames();
  EXPECT_GT(functions.size(), 40u);
  EXPECT_GT(parameters.size(), 40u);
  EXPECT_TRUE(std::is_sorted(functions.begin(), functions.end()));
  Taxonomy tax = RequirementsVocabulary();
  for (const auto& name : functions) EXPECT_TRUE(tax.Contains(name));
}

TEST(RequirementsVocabularyTest, ParametersMatchFunctionFamily) {
  Taxonomy tax = RequirementsVocabulary();
  auto params = ParameterNamesForFunction(tax, "accept_cmd");
  ASSERT_FALSE(params.empty());
  ConceptId cmd_type = Id(tax, "command_type");
  for (const auto& p : params) {
    EXPECT_TRUE(tax.IsAncestor(cmd_type, Id(tax, p))) << p;
  }
  EXPECT_TRUE(ParameterNamesForFunction(tax, "no_such_function").empty());
}

TEST(MiniWordNetTest, ValidatesWithAntonymsAndSynonyms) {
  Taxonomy tax = MiniWordNet();
  EXPECT_TRUE(tax.Validate().ok());
  EXPECT_GT(tax.size(), 60u);
  EXPECT_TRUE(tax.AreAntonyms(Id(tax, "hot"), Id(tax, "cold")));
  EXPECT_EQ(Id(tax, "automobile"), Id(tax, "car"));
}

}  // namespace
}  // namespace semtree
