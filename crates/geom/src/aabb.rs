//! Axis-aligned bounding boxes.

use crate::vec3::Vec3;

/// An axis-aligned box given by its minimum and maximum corners.
///
/// An `Aabb` with `min > max` in any dimension is *empty*; [`Aabb::EMPTY`]
/// is the identity of [`Aabb::union`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Aabb {
    pub min: Vec3,
    pub max: Vec3,
}

impl Aabb {
    /// The empty box (identity element for `union`).
    pub const EMPTY: Aabb = Aabb {
        min: Vec3::new(f64::INFINITY, f64::INFINITY, f64::INFINITY),
        max: Vec3::new(f64::NEG_INFINITY, f64::NEG_INFINITY, f64::NEG_INFINITY),
    };

    pub fn new(min: Vec3, max: Vec3) -> Self {
        Aabb { min, max }
    }

    /// Box centered at `c` with half-extents `h` (all components ≥ 0).
    pub fn from_center_half(c: Vec3, h: Vec3) -> Self {
        Aabb::new(c - h, c + h)
    }

    /// Smallest box containing all `points`; `EMPTY` if the iterator is empty.
    pub fn from_points<I: IntoIterator<Item = Vec3>>(points: I) -> Self {
        points.into_iter().fold(Aabb::EMPTY, |b, p| b.union_point(p))
    }

    pub fn is_empty(&self) -> bool {
        self.min.x > self.max.x || self.min.y > self.max.y || self.min.z > self.max.z
    }

    pub fn center(&self) -> Vec3 {
        (self.min + self.max) * 0.5
    }

    /// Edge lengths, component-wise.
    pub fn extent(&self) -> Vec3 {
        self.max - self.min
    }

    pub fn volume(&self) -> f64 {
        if self.is_empty() {
            0.0
        } else {
            let e = self.extent();
            e.x * e.y * e.z
        }
    }

    pub fn contains_point(&self, p: Vec3) -> bool {
        p.x >= self.min.x
            && p.x <= self.max.x
            && p.y >= self.min.y
            && p.y <= self.max.y
            && p.z >= self.min.z
            && p.z <= self.max.z
    }

    #[cfg(test)]
    fn contains_box(&self, o: &Aabb) -> bool {
        o.is_empty() || (self.contains_point(o.min) && self.contains_point(o.max))
    }

    pub fn intersects(&self, o: &Aabb) -> bool {
        !self.is_empty()
            && !o.is_empty()
            && self.min.x <= o.max.x
            && self.max.x >= o.min.x
            && self.min.y <= o.max.y
            && self.max.y >= o.min.y
            && self.min.z <= o.max.z
            && self.max.z >= o.min.z
    }

    pub fn union(&self, o: &Aabb) -> Aabb {
        Aabb::new(self.min.min(o.min), self.max.max(o.max))
    }

    pub fn union_point(&self, p: Vec3) -> Aabb {
        Aabb::new(self.min.min(p), self.max.max(p))
    }

    /// Box grown by `margin` on every side.
    pub fn inflate(&self, margin: f64) -> Aabb {
        Aabb::new(self.min - Vec3::splat(margin), self.max + Vec3::splat(margin))
    }

    /// Squared Euclidean distance from `p` to the closest point of the box
    /// (0 if `p` is inside).
    #[cfg(test)]
    fn dist_sq_to_point(&self, p: Vec3) -> f64 {
        let d = (self.min - p).max(p - self.max).max(Vec3::ZERO);
        d.norm_sq()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_behaves_as_identity() {
        assert!(Aabb::EMPTY.is_empty());
        assert_eq!(Aabb::EMPTY.volume(), 0.0);
        let b = Aabb::new(Vec3::ZERO, Vec3::ONE);
        assert_eq!(Aabb::EMPTY.union(&b), b);
        assert!(!Aabb::EMPTY.intersects(&b));
    }

    #[test]
    fn from_points_covers_inputs() {
        let pts = [Vec3::new(1.0, 5.0, -2.0), Vec3::new(-1.0, 0.0, 4.0), Vec3::new(0.0, 2.0, 0.0)];
        let b = Aabb::from_points(pts);
        for p in pts {
            assert!(b.contains_point(p));
        }
        assert_eq!(b.min, Vec3::new(-1.0, 0.0, -2.0));
        assert_eq!(b.max, Vec3::new(1.0, 5.0, 4.0));
    }

    #[test]
    fn volume_and_center() {
        let b = Aabb::new(Vec3::ZERO, Vec3::new(2.0, 3.0, 4.0));
        assert_eq!(b.volume(), 24.0);
        assert_eq!(b.center(), Vec3::new(1.0, 1.5, 2.0));
        assert_eq!(b.extent(), Vec3::new(2.0, 3.0, 4.0));
    }

    #[test]
    fn intersection_and_containment() {
        let a = Aabb::new(Vec3::ZERO, Vec3::splat(2.0));
        let b = Aabb::new(Vec3::splat(1.0), Vec3::splat(3.0));
        let c = Aabb::new(Vec3::splat(5.0), Vec3::splat(6.0));
        assert!(a.intersects(&b));
        assert!(!a.intersects(&c));
        assert!(a.contains_box(&Aabb::new(Vec3::splat(0.5), Vec3::splat(1.5))));
        assert!(!a.contains_box(&b));
        // Touching boxes count as intersecting (closed boxes).
        let d = Aabb::new(Vec3::new(2.0, 0.0, 0.0), Vec3::new(4.0, 2.0, 2.0));
        assert!(a.intersects(&d));
    }

    #[test]
    fn point_distance() {
        let b = Aabb::new(Vec3::ZERO, Vec3::splat(1.0));
        assert_eq!(b.dist_sq_to_point(Vec3::splat(0.5)), 0.0);
        assert_eq!(b.dist_sq_to_point(Vec3::new(2.0, 0.5, 0.5)), 1.0);
        assert_eq!(b.dist_sq_to_point(Vec3::new(2.0, 2.0, 0.5)), 2.0);
        assert_eq!(b.dist_sq_to_point(Vec3::new(-1.0, -1.0, -1.0)), 3.0);
    }

    #[test]
    fn inflate_grows_symmetrically() {
        let b = Aabb::new(Vec3::ZERO, Vec3::ONE).inflate(0.5);
        assert_eq!(b.min, Vec3::splat(-0.5));
        assert_eq!(b.max, Vec3::splat(1.5));
    }
}
