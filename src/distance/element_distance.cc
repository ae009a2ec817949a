// Copyright 2026 The SemTree Authors

#include "distance/element_distance.h"

#include <algorithm>

namespace semtree {

double ElementDistance::operator()(const Term& a, const Term& b) const {
  if (a == b) return 0.0;
  if (a.kind() != b.kind()) {
    return std::clamp(options_.mixed_kind_distance, 0.0, 1.0);
  }
  if (a.is_literal()) {
    return StringDistance(options_.string_distance, a.value(), b.value());
  }
  // Both concepts: resolve in the taxonomy (aliases included).
  ConceptId ca = taxonomy_->FindId(a.value());
  ConceptId cb = taxonomy_->FindId(b.value());
  if (ca != kInvalidConcept && cb != kInvalidConcept) {
    return ConceptDistance(options_.concept_measure, *taxonomy_, ca, cb);
  }
  // Out-of-vocabulary concepts: compare qualified names as strings so
  // the distance stays total.
  return StringDistance(options_.string_distance, a.ToString(),
                        b.ToString());
}

}  // namespace semtree
