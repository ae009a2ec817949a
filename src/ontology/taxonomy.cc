// Copyright 2026 The SemTree Authors

#include "ontology/taxonomy.h"

#include <algorithm>
#include <cmath>

#include "common/string_util.h"

namespace semtree {

Taxonomy::Taxonomy(std::string root_name) {
  Node root;
  root.name = std::move(root_name);
  root.closure = {{0, 0}};
  nodes_.push_back(std::move(root));
  by_name_[nodes_[0].name] = 0;
}

Result<ConceptId> Taxonomy::AddConcept(
    std::string_view name, const std::vector<std::string>& parents) {
  std::vector<ConceptId> parent_ids;
  parent_ids.reserve(parents.size());
  for (const std::string& p : parents) {
    SEMTREE_ASSIGN_OR_RETURN(ConceptId id, Find(p));
    parent_ids.push_back(id);
  }
  return AddConceptUnder(name, parent_ids);
}

Result<ConceptId> Taxonomy::AddConceptUnder(
    std::string_view name, const std::vector<ConceptId>& parents) {
  std::string key(name);
  if (key.empty()) {
    return Status::InvalidArgument("concept name must be non-empty");
  }
  if (by_name_.count(key) || aliases_.count(key)) {
    return Status::AlreadyExists(
        StringPrintf("concept '%s' already exists", key.c_str()));
  }
  for (ConceptId p : parents) {
    if (p >= nodes_.size()) {
      return Status::NotFound("unknown parent concept id");
    }
  }
  ConceptId id = static_cast<ConceptId>(nodes_.size());
  Node node;
  node.name = key;
  node.parents = parents;
  if (node.parents.empty()) node.parents.push_back(root());
  // Deduplicate parents while preserving order.
  std::vector<ConceptId> dedup;
  for (ConceptId p : node.parents) {
    if (std::find(dedup.begin(), dedup.end(), p) == dedup.end()) {
      dedup.push_back(p);
    }
  }
  node.parents = std::move(dedup);
  nodes_.push_back(std::move(node));
  by_name_[key] = id;
  for (ConceptId p : nodes_[id].parents) nodes_[p].children.push_back(id);
  nodes_[id].closure = ClosureFromParents(id);
  max_depth_ = std::max(max_depth_, Depth(id));
  ic_.Invalidate();
  return id;
}

Status Taxonomy::AddParent(ConceptId child, ConceptId parent) {
  if (child >= nodes_.size() || parent >= nodes_.size()) {
    return Status::NotFound("unknown concept id");
  }
  if (child == root()) {
    return Status::InvalidArgument("the root cannot gain a parent");
  }
  auto& parents = nodes_[child].parents;
  if (std::find(parents.begin(), parents.end(), parent) != parents.end()) {
    return Status::AlreadyExists("edge already present");
  }
  if (WouldCreateCycle(child, parent)) {
    return Status::FailedPrecondition(StringPrintf(
        "adding %s -> %s would create a cycle",
        nodes_[child].name.c_str(), nodes_[parent].name.c_str()));
  }
  parents.push_back(parent);
  nodes_[parent].children.push_back(child);
  RecomputeClosuresBelow(child);
  ic_.Invalidate();
  return Status::OK();
}

Status Taxonomy::AddSynonym(std::string_view alias, ConceptId canonical) {
  if (canonical >= nodes_.size()) {
    return Status::NotFound("unknown canonical concept");
  }
  std::string key(alias);
  if (key.empty()) {
    return Status::InvalidArgument("alias must be non-empty");
  }
  if (by_name_.count(key) || aliases_.count(key)) {
    return Status::AlreadyExists(
        StringPrintf("name '%s' already taken", key.c_str()));
  }
  aliases_[key] = canonical;
  return Status::OK();
}

Status Taxonomy::AddAntonym(ConceptId a, ConceptId b) {
  if (a >= nodes_.size() || b >= nodes_.size()) {
    return Status::NotFound("unknown concept id");
  }
  if (a == b) {
    return Status::InvalidArgument("a concept cannot be its own antonym");
  }
  if (AreAntonyms(a, b)) {
    return Status::AlreadyExists("antonym pair already present");
  }
  nodes_[a].antonyms.push_back(b);
  nodes_[b].antonyms.push_back(a);
  return Status::OK();
}

Status Taxonomy::AddFrequency(ConceptId c, uint64_t count) {
  if (c >= nodes_.size()) return Status::NotFound("unknown concept id");
  nodes_[c].frequency += count;
  ic_.Invalidate();
  return Status::OK();
}

ConceptId Taxonomy::FindId(std::string_view name) const {
  auto it = by_name_.find(name);
  if (it != by_name_.end()) return it->second;
  auto alias_it = aliases_.find(name);
  if (alias_it != aliases_.end()) return alias_it->second;
  return kInvalidConcept;
}

Result<ConceptId> Taxonomy::Find(std::string_view name) const {
  ConceptId id = FindId(name);
  if (id != kInvalidConcept) return id;
  return Status::NotFound(StringPrintf("concept '%s' not in taxonomy",
                                       std::string(name).c_str()));
}

bool Taxonomy::Contains(std::string_view name) const {
  return FindId(name) != kInvalidConcept;
}

std::vector<std::string> Taxonomy::ConceptNames() const {
  std::vector<std::string> names;
  names.reserve(nodes_.size());
  for (const Node& node : nodes_) names.push_back(node.name);
  return names;
}

std::vector<std::pair<std::string, ConceptId>> Taxonomy::Synonyms() const {
  std::vector<std::pair<std::string, ConceptId>> out(aliases_.begin(),
                                                     aliases_.end());
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<std::pair<ConceptId, ConceptId>> Taxonomy::AntonymPairs()
    const {
  std::vector<std::pair<ConceptId, ConceptId>> pairs;
  for (ConceptId c = 0; c < nodes_.size(); ++c) {
    for (ConceptId other : nodes_[c].antonyms) {
      if (c < other) pairs.emplace_back(c, other);
    }
  }
  std::sort(pairs.begin(), pairs.end());
  return pairs;
}

std::vector<Taxonomy::Ancestor> Taxonomy::ClosureFromParents(
    ConceptId c) const {
  std::vector<Ancestor> out = {{c, 0}};
  std::vector<Ancestor> merged;
  for (ConceptId p : nodes_[c].parents) {
    const std::vector<Ancestor>& up = nodes_[p].closure;
    merged.clear();
    merged.reserve(out.size() + up.size());
    size_t i = 0;
    size_t j = 0;
    while (i < out.size() || j < up.size()) {
      if (j == up.size() || (i < out.size() && out[i].id < up[j].id)) {
        merged.push_back(out[i++]);
      } else if (i == out.size() || up[j].id < out[i].id) {
        merged.push_back({up[j].id, up[j].up + 1});
        ++j;
      } else {
        merged.push_back({out[i].id, std::min(out[i].up, up[j].up + 1)});
        ++i;
        ++j;
      }
    }
    out.swap(merged);
  }
  return out;
}

void Taxonomy::RecomputeClosuresBelow(ConceptId c) {
  // Kahn's algorithm over the descendants of `c`: a concept is
  // recomputed once all of its parents inside the set are current.
  std::vector<uint32_t> pending(nodes_.size(), 0);
  std::vector<bool> below(nodes_.size(), false);
  std::vector<ConceptId> stack = {c};
  below[c] = true;
  while (!stack.empty()) {
    ConceptId cur = stack.back();
    stack.pop_back();
    for (ConceptId child : nodes_[cur].children) {
      ++pending[child];
      if (!below[child]) {
        below[child] = true;
        stack.push_back(child);
      }
    }
  }
  // `c` has no parent below itself (the taxonomy is acyclic).
  stack = {c};
  while (!stack.empty()) {
    ConceptId cur = stack.back();
    stack.pop_back();
    nodes_[cur].closure = ClosureFromParents(cur);
    for (ConceptId child : nodes_[cur].children) {
      if (--pending[child] == 0) stack.push_back(child);
    }
  }
  max_depth_ = 0;
  for (ConceptId n = 0; n < nodes_.size(); ++n) {
    max_depth_ = std::max(max_depth_, Depth(n));
  }
}

template <typename Fn>
void Taxonomy::ForEachCommonAncestor(ConceptId a, ConceptId b,
                                     Fn fn) const {
  const std::vector<Ancestor>& ca = nodes_[a].closure;
  const std::vector<Ancestor>& cb = nodes_[b].closure;
  size_t i = 0;
  size_t j = 0;
  while (i < ca.size() && j < cb.size()) {
    if (ca[i].id < cb[j].id) {
      ++i;
    } else if (cb[j].id < ca[i].id) {
      ++j;
    } else {
      fn(ca[i].id, ca[i].up, cb[j].up);
      ++i;
      ++j;
    }
  }
}

size_t Taxonomy::Depth(ConceptId c) const {
  return nodes_[c].closure.front().up;
}

size_t Taxonomy::MaxDepth() const { return max_depth_; }

bool Taxonomy::IsAncestor(ConceptId ancestor, ConceptId descendant) const {
  return UpEdges(descendant, ancestor) !=
         std::numeric_limits<size_t>::max();
}

std::vector<ConceptId> Taxonomy::Ancestors(ConceptId c) const {
  std::vector<ConceptId> out;
  out.reserve(nodes_[c].closure.size());
  for (const Ancestor& anc : nodes_[c].closure) out.push_back(anc.id);
  return out;
}

ConceptId Taxonomy::LowestCommonSubsumer(ConceptId a, ConceptId b) const {
  ConceptId best = root();
  size_t best_depth = 0;
  // Ids arrive in increasing order, so keeping only strictly deeper
  // matches breaks depth ties toward the smaller id.
  ForEachCommonAncestor(a, b, [&](ConceptId c, uint32_t, uint32_t) {
    size_t d = Depth(c);
    if (d > best_depth) {
      best = c;
      best_depth = d;
    }
  });
  return best;
}

size_t Taxonomy::ShortestPathEdges(ConceptId a, ConceptId b) const {
  // The shortest connecting path goes through a common ancestor, so
  // dist = min over common c of up_a(c) + up_b(c).
  size_t best = std::numeric_limits<size_t>::max();
  ForEachCommonAncestor(a, b, [&](ConceptId, uint32_t up_a, uint32_t up_b) {
    best = std::min<size_t>(best, size_t{up_a} + up_b);
  });
  return best;
}

size_t Taxonomy::UpEdges(ConceptId descendant, ConceptId ancestor) const {
  const std::vector<Ancestor>& closure = nodes_[descendant].closure;
  auto it = std::lower_bound(
      closure.begin(), closure.end(), ancestor,
      [](const Ancestor& entry, ConceptId id) { return entry.id < id; });
  if (it == closure.end() || it->id != ancestor) {
    return std::numeric_limits<size_t>::max();
  }
  return it->up;
}

void Taxonomy::EnsureInformationContent() const {
  if (ic_.valid) return;
  // Subtree mass: each concept contributes its own frequency (or 1 under
  // the uniform fallback) to itself and every ancestor.
  uint64_t total_observed = 0;
  for (const Node& node : nodes_) total_observed += node.frequency;
  const bool uniform = total_observed == 0;

  std::vector<double> mass(nodes_.size(), 0.0);
  for (ConceptId c = 0; c < nodes_.size(); ++c) {
    double own = uniform ? 1.0 : static_cast<double>(nodes_[c].frequency);
    if (own == 0.0) continue;
    for (const Ancestor& anc : nodes_[c].closure) mass[anc.id] += own;
  }
  double root_mass = mass[root()];
  ic_.values.assign(nodes_.size(), 0.0);
  ic_.max = 0.0;
  for (ConceptId c = 0; c < nodes_.size(); ++c) {
    double p = (root_mass > 0.0) ? mass[c] / root_mass : 0.0;
    // Unobserved concepts get the maximal finite IC via Laplace-style
    // smoothing with half a count.
    if (p <= 0.0) p = 0.5 / (root_mass + 1.0);
    ic_.values[c] = -std::log(p);
    ic_.max = std::max(ic_.max, ic_.values[c]);
  }
  ic_.valid = true;
}

double Taxonomy::InformationContent(ConceptId c) const {
  MutexLock lock(ic_.mu);
  EnsureInformationContent();
  return ic_.values[c];
}

double Taxonomy::MaxInformationContent() const {
  MutexLock lock(ic_.mu);
  EnsureInformationContent();
  return ic_.max;
}

bool Taxonomy::AreAntonyms(ConceptId a, ConceptId b) const {
  if (a >= nodes_.size() || b >= nodes_.size()) return false;
  const auto& ants = nodes_[a].antonyms;
  return std::find(ants.begin(), ants.end(), b) != ants.end();
}

std::vector<ConceptId> Taxonomy::AntonymsOf(ConceptId c) const {
  if (c >= nodes_.size()) return {};
  return nodes_[c].antonyms;
}

std::vector<std::string> Taxonomy::AntonymNamesOf(
    std::string_view name) const {
  auto id = Find(name);
  if (!id.ok()) return {};
  std::vector<std::string> out;
  for (ConceptId a : AntonymsOf(*id)) out.push_back(nodes_[a].name);
  std::sort(out.begin(), out.end());
  return out;
}

bool Taxonomy::WouldCreateCycle(ConceptId child, ConceptId parent) const {
  // A cycle appears iff child is already an ancestor of parent.
  return IsAncestor(child, parent);
}

Status Taxonomy::Validate() const {
  // Parent/child edge symmetry.
  for (ConceptId c = 0; c < nodes_.size(); ++c) {
    for (ConceptId p : nodes_[c].parents) {
      if (p >= nodes_.size()) {
        return Status::Corruption("dangling parent id");
      }
      const auto& siblings = nodes_[p].children;
      if (std::find(siblings.begin(), siblings.end(), c) ==
          siblings.end()) {
        return Status::Corruption(StringPrintf(
            "edge %s->%s missing child link", nodes_[c].name.c_str(),
            nodes_[p].name.c_str()));
      }
    }
    if (c != root() && nodes_[c].parents.empty()) {
      return Status::Corruption(
          StringPrintf("concept '%s' is disconnected",
                       nodes_[c].name.c_str()));
    }
  }
  // The closure table matches the edges, and every concept reaches the
  // root.
  for (ConceptId c = 0; c < nodes_.size(); ++c) {
    if (nodes_[c].closure != ClosureFromParents(c)) {
      return Status::Corruption(StringPrintf(
          "ancestor table of '%s' is stale", nodes_[c].name.c_str()));
    }
    if (nodes_[c].closure.front().id != root()) {
      return Status::Corruption(StringPrintf(
          "concept '%s' cannot reach the root", nodes_[c].name.c_str()));
    }
  }
  // Antonym symmetry.
  for (ConceptId c = 0; c < nodes_.size(); ++c) {
    for (ConceptId other : nodes_[c].antonyms) {
      if (!AreAntonyms(other, c)) {
        return Status::Corruption("asymmetric antonym relation");
      }
    }
  }
  // Aliases resolve to live concepts and do not shadow concepts.
  for (const auto& [alias, target] : aliases_) {
    if (target >= nodes_.size()) {
      return Status::Corruption("alias targets unknown concept");
    }
    if (by_name_.count(alias)) {
      return Status::Corruption("alias shadows a concept name");
    }
  }
  return Status::OK();
}

}  // namespace semtree
