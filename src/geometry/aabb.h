#ifndef FLAT_GEOMETRY_AABB_H_
#define FLAT_GEOMETRY_AABB_H_

#include <limits>
#include <ostream>

#include "geometry/vec3.h"

namespace flat {

/// Axis-aligned minimum bounding rectangle (the paper's "MBR") in 3-D.
///
/// An Aabb is *empty* when lo > hi on any axis; `Aabb()` constructs the
/// canonical empty box which behaves as the identity for `Union` and
/// intersects nothing. Degenerate (zero-extent) boxes are valid and represent
/// points or axis-aligned segments/rectangles.
class Aabb {
 public:
  /// Constructs the canonical empty box.
  constexpr Aabb()
      : lo_(std::numeric_limits<double>::infinity(),
            std::numeric_limits<double>::infinity(),
            std::numeric_limits<double>::infinity()),
        hi_(-std::numeric_limits<double>::infinity(),
            -std::numeric_limits<double>::infinity(),
            -std::numeric_limits<double>::infinity()) {}

  constexpr Aabb(const Vec3& lo, const Vec3& hi) : lo_(lo), hi_(hi) {}

  /// The box covering exactly one point.
  static constexpr Aabb FromPoint(const Vec3& p) { return Aabb(p, p); }

  /// The box centered at `c` with half-extent `h` on each axis.
  static constexpr Aabb FromCenterHalfExtents(const Vec3& c, const Vec3& h) {
    return Aabb(c - h, c + h);
  }

  /// The box covering both corner points regardless of their ordering.
  static constexpr Aabb FromCorners(const Vec3& a, const Vec3& b) {
    return Aabb(Vec3::Min(a, b), Vec3::Max(a, b));
  }

  constexpr const Vec3& lo() const { return lo_; }
  constexpr const Vec3& hi() const { return hi_; }

  constexpr bool IsEmpty() const {
    return lo_.x > hi_.x || lo_.y > hi_.y || lo_.z > hi_.z;
  }

  constexpr Vec3 Center() const { return (lo_ + hi_) * 0.5; }

  /// Per-axis extent; zero vector for empty boxes.
  constexpr Vec3 Extents() const {
    return IsEmpty() ? Vec3() : hi_ - lo_;
  }

  constexpr double Volume() const {
    if (IsEmpty()) return 0.0;
    Vec3 e = hi_ - lo_;
    return e.x * e.y * e.z;
  }

  constexpr double SurfaceArea() const {
    if (IsEmpty()) return 0.0;
    Vec3 e = hi_ - lo_;
    return 2.0 * (e.x * e.y + e.y * e.z + e.z * e.x);
  }

  /// Sum of the three edge lengths ("margin" in R*-tree terminology).
  constexpr double Margin() const {
    if (IsEmpty()) return 0.0;
    Vec3 e = hi_ - lo_;
    return e.x + e.y + e.z;
  }

  /// Index of the axis with the largest extent (ties favor lower axes).
  int LongestAxis() const {
    Vec3 e = Extents();
    if (e.x >= e.y && e.x >= e.z) return 0;
    return e.y >= e.z ? 1 : 2;
  }

  constexpr bool Contains(const Vec3& p) const {
    return p.x >= lo_.x && p.x <= hi_.x && p.y >= lo_.y && p.y <= hi_.y &&
           p.z >= lo_.z && p.z <= hi_.z;
  }

  /// True iff `o` lies entirely inside this box. Every box contains the empty
  /// box.
  constexpr bool Contains(const Aabb& o) const {
    if (o.IsEmpty()) return true;
    if (IsEmpty()) return false;
    return o.lo_.x >= lo_.x && o.hi_.x <= hi_.x && o.lo_.y >= lo_.y &&
           o.hi_.y <= hi_.y && o.lo_.z >= lo_.z && o.hi_.z <= hi_.z;
  }

  /// Closed-interval intersection test: boxes sharing only a face, edge or
  /// corner *do* intersect. This is the adjacency notion FLAT's neighbor
  /// computation relies on (partitions touching along a face are neighbors).
  constexpr bool Intersects(const Aabb& o) const {
    if (IsEmpty() || o.IsEmpty()) return false;
    return lo_.x <= o.hi_.x && hi_.x >= o.lo_.x && lo_.y <= o.hi_.y &&
           hi_.y >= o.lo_.y && lo_.z <= o.hi_.z && hi_.z >= o.lo_.z;
  }

  /// Grows this box to cover `p`.
  void ExpandToInclude(const Vec3& p) {
    lo_ = Vec3::Min(lo_, p);
    hi_ = Vec3::Max(hi_, p);
  }

  /// Grows this box to cover `o` ("stretching" in Algorithm 1).
  void ExpandToInclude(const Aabb& o) {
    if (o.IsEmpty()) return;
    lo_ = Vec3::Min(lo_, o.lo_);
    hi_ = Vec3::Max(hi_, o.hi_);
  }

  /// Returns this box expanded by `delta` on every side.
  Aabb Inflated(double delta) const {
    if (IsEmpty()) return *this;
    Vec3 d(delta, delta, delta);
    return Aabb(lo_ - d, hi_ + d);
  }

  static Aabb Union(const Aabb& a, const Aabb& b) {
    Aabb r = a;
    r.ExpandToInclude(b);
    return r;
  }

  /// Geometric intersection; empty if the boxes do not overlap.
  static Aabb Intersection(const Aabb& a, const Aabb& b) {
    if (!a.Intersects(b)) return Aabb();
    return Aabb(Vec3::Max(a.lo_, b.lo_), Vec3::Min(a.hi_, b.hi_));
  }

  /// Extra volume `Union(*this, o)` has over this box — the R-tree insertion
  /// "enlargement" heuristic.
  double Enlargement(const Aabb& o) const {
    return Union(*this, o).Volume() - Volume();
  }

  /// Squared Euclidean distance from `p` to the closest point of this box
  /// (zero when `p` is inside). Infinity for the empty box.
  double DistanceSquaredTo(const Vec3& p) const {
    if (IsEmpty()) return std::numeric_limits<double>::infinity();
    double d2 = 0.0;
    for (int axis = 0; axis < 3; ++axis) {
      const double below = lo_[axis] - p[axis];
      const double above = p[axis] - hi_[axis];
      const double gap = std::max({below, above, 0.0});
      d2 += gap * gap;
    }
    return d2;
  }

  /// True iff this box intersects the closed ball around `center`.
  bool IntersectsSphere(const Vec3& center, double radius) const {
    return DistanceSquaredTo(center) <= radius * radius;
  }

  /// Volume of overlap with `o` (zero when disjoint).
  double OverlapVolume(const Aabb& o) const {
    return Intersection(*this, o).Volume();
  }

  constexpr bool operator==(const Aabb& o) const {
    if (IsEmpty() && o.IsEmpty()) return true;
    return lo_ == o.lo_ && hi_ == o.hi_;
  }
  constexpr bool operator!=(const Aabb& o) const { return !(*this == o); }

 private:
  Vec3 lo_;
  Vec3 hi_;
};

inline std::ostream& operator<<(std::ostream& os, const Aabb& b) {
  return os << "[" << b.lo() << " .. " << b.hi() << "]";
}

}  // namespace flat

#endif  // FLAT_GEOMETRY_AABB_H_
