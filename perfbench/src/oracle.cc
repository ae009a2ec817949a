#include <algorithm>
#include <cstdio>
#include <unordered_set>

#include "bench.h"

namespace perfbench {
namespace {

bool ByDistanceThenId(const Neighbor& a, const Neighbor& b) {
  if (a.distance != b.distance) return a.distance < b.distance;
  return a.id < b.id;
}

// Two computations of one distance may differ in the last bits (SIMD
// kernels, different summation order); anything closer than this is a
// tie.
double Tol(double d) { return 1e-9 * (1.0 + d); }

std::string Describe(const std::vector<Neighbor>& v) {
  std::string s;
  for (size_t i = 0; i < v.size() && i < 12; ++i) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), " %llu:%.6g",
                  static_cast<unsigned long long>(v[i].id), v[i].distance);
    s += buf;
  }
  return s;
}

// Every reported distance is the true distance of that id, the list is
// ordered, and no id repeats.
bool CheckReported(const PointSet& points, const double* q,
                   const std::vector<Neighbor>& got, LiveFn live,
                   const void* ctx, std::string* why) {
  std::unordered_set<PointId> seen;
  for (size_t i = 0; i < got.size(); ++i) {
    const Neighbor& n = got[i];
    if (n.id >= points.size() || !seen.insert(n.id).second ||
        (live != nullptr && !live(ctx, n.id))) {
      *why = "absent or repeated id " + std::to_string(n.id);
      return false;
    }
    double truth = OracleDistance(points.Row(n.id), q, points.dims);
    if (std::abs(truth - n.distance) > Tol(truth)) {
      *why = "wrong distance for id " + std::to_string(n.id);
      return false;
    }
    if (i > 0 && ByDistanceThenId(n, got[i - 1])) {
      *why = "results out of order";
      return false;
    }
  }
  return true;
}

}  // namespace

double OracleDistance(const double* a, const double* b, size_t dims) {
  double sum = 0.0;
  for (size_t i = 0; i < dims; ++i) {
    double d = a[i] - b[i];
    sum += d * d;
  }
  return std::sqrt(sum);
}

std::vector<Neighbor> BruteKnn(const PointSet& points, const double* q,
                               size_t k, LiveFn live, const void* ctx) {
  std::vector<Neighbor> all;
  all.reserve(points.size());
  for (PointId id = 0; id < points.size(); ++id) {
    if (live != nullptr && !live(ctx, id)) continue;
    all.push_back({id, OracleDistance(points.Row(id), q, points.dims)});
  }
  size_t n = std::min(k, all.size());
  std::partial_sort(all.begin(), all.begin() + long(n), all.end(),
                    ByDistanceThenId);
  all.resize(n);
  return all;
}

std::vector<Neighbor> BruteRange(const PointSet& points, const double* q,
                                 double radius, LiveFn live,
                                 const void* ctx) {
  std::vector<Neighbor> out;
  for (PointId id = 0; id < points.size(); ++id) {
    if (live != nullptr && !live(ctx, id)) continue;
    double d = OracleDistance(points.Row(id), q, points.dims);
    // Keep the rounding band so SameRange can accept either side.
    if (d <= radius + Tol(radius)) out.push_back({id, d});
  }
  std::sort(out.begin(), out.end(), ByDistanceThenId);
  return out;
}

bool SameKnn(const PointSet& points, const double* q,
             const std::vector<Neighbor>& got,
             const std::vector<Neighbor>& want, LiveFn live,
             const void* ctx, std::string* why) {
  if (got.size() != want.size()) {
    *why = "k-NN returned " + std::to_string(got.size()) + " of " +
           std::to_string(want.size());
    return false;
  }
  if (!CheckReported(points, q, got, live, ctx, why)) return false;
  for (size_t i = 0; i < got.size(); ++i) {
    if (std::abs(got[i].distance - want[i].distance) > Tol(want[i].distance)) {
      *why = "k-NN differs at rank " + std::to_string(i) + ": got" +
             Describe(got) + " want" + Describe(want);
      return false;
    }
  }
  // Every oracle member strictly inside the k-th distance must be
  // there; members tied with the k-th may be swapped for each other.
  if (want.empty()) return true;
  const double kth = want.back().distance;
  std::unordered_set<PointId> ids;
  for (const Neighbor& n : got) ids.insert(n.id);
  for (const Neighbor& n : want) {
    if (n.distance < kth - Tol(kth) && ids.count(n.id) == 0) {
      *why = "k-NN misses id " + std::to_string(n.id);
      return false;
    }
  }
  return true;
}

bool SameRange(const PointSet& points, const double* q, double radius,
               const std::vector<Neighbor>& got,
               const std::vector<Neighbor>& want, LiveFn live,
               const void* ctx, std::string* why) {
  if (!CheckReported(points, q, got, live, ctx, why)) return false;
  std::unordered_set<PointId> ids;
  for (const Neighbor& n : got) {
    if (n.distance > radius + Tol(radius)) {
      *why = "range result outside the radius";
      return false;
    }
    ids.insert(n.id);
  }
  // Oracle members clearly inside the radius must all be returned;
  // those within rounding of it may go either way.
  for (const Neighbor& n : want) {
    if (n.distance < radius - Tol(radius) && ids.count(n.id) == 0) {
      *why = "range misses id " + std::to_string(n.id);
      return false;
    }
  }
  return true;
}

}  // namespace perfbench
