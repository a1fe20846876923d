//! Affine transforms: a linear part (rotation / scale / reflection) plus a
//! translation. Sufficient for the transform set `T` of Definition 2.

use crate::aabb::Aabb;
use crate::mat3::Mat3;
use crate::vec3::Vec3;
use std::ops::Mul;

/// An affine transform `p ↦ linear · p + translation`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Iso {
    pub linear: Mat3,
    pub translation: Vec3,
}

impl Iso {
    pub const IDENTITY: Iso = Iso { linear: Mat3::IDENTITY, translation: Vec3::ZERO };

    pub fn new(linear: Mat3, translation: Vec3) -> Self {
        Iso { linear, translation }
    }

    pub fn from_translation(t: Vec3) -> Self {
        Iso::new(Mat3::IDENTITY, t)
    }

    pub fn from_linear(m: Mat3) -> Self {
        Iso::new(m, Vec3::ZERO)
    }

    #[inline]
    pub fn apply(&self, p: Vec3) -> Vec3 {
        self.linear * p + self.translation
    }

    /// Transform a box; exact only for axis-aligned linear parts, otherwise
    /// returns the bounding box of the transformed corners.
    pub fn apply_aabb(&self, b: &Aabb) -> Aabb {
        if b.is_empty() {
            return *b;
        }
        let mut out = Aabb::EMPTY;
        for i in 0..8 {
            let c = Vec3::new(
                if i & 1 == 0 { b.min.x } else { b.max.x },
                if i & 2 == 0 { b.min.y } else { b.max.y },
                if i & 4 == 0 { b.min.z } else { b.max.z },
            );
            out = out.union_point(self.apply(c));
        }
        out
    }

    /// Inverse transform. Panics if the linear part is singular.
    pub fn inverse(&self) -> Iso {
        let det = self.linear.determinant();
        assert!(det.abs() > 1e-300, "singular transform has no inverse");
        // Inverse via adjugate (fine for 3x3).
        let m = &self.linear.rows;
        let cof = |r: usize, c: usize| -> f64 {
            let idx = |k: usize| (0..3).filter(|&i| i != k).collect::<Vec<_>>();
            let (ri, ci) = (idx(r), idx(c));
            let minor = m[ri[0]][ci[0]] * m[ri[1]][ci[1]] - m[ri[0]][ci[1]] * m[ri[1]][ci[0]];
            if (r + c).is_multiple_of(2) {
                minor
            } else {
                -minor
            }
        };
        let mut inv = Mat3::IDENTITY;
        for i in 0..3 {
            for j in 0..3 {
                inv.rows[i][j] = cof(j, i) / det;
            }
        }
        let lin_inv = inv;
        Iso::new(lin_inv, -(lin_inv * self.translation))
    }
}

impl Mul for Iso {
    type Output = Iso;
    /// Composition: `(a * b).apply(p) == a.apply(b.apply(p))`.
    fn mul(self, b: Iso) -> Iso {
        Iso::new(self.linear * b.linear, self.linear * b.translation + self.translation)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn translation_then_rotation_composes() {
        let t = Iso::from_translation(Vec3::new(1.0, 0.0, 0.0));
        let r = Iso::from_linear(Mat3::rot_z(std::f64::consts::FRAC_PI_2));
        let p = Vec3::ZERO;
        // r * t : translate first, then rotate.
        let q = (r * t).apply(p);
        assert!((q - Vec3::new(0.0, 1.0, 0.0)).norm() < 1e-12);
        // t * r : rotate first (no-op on origin), then translate.
        let q2 = (t * r).apply(p);
        assert!((q2 - Vec3::new(1.0, 0.0, 0.0)).norm() < 1e-12);
    }

    #[test]
    fn inverse_roundtrips() {
        let m = Iso::new(
            Mat3::rot_x(0.3) * Mat3::diag(Vec3::new(2.0, 1.0, 0.5)),
            Vec3::new(1.0, -2.0, 3.0),
        );
        let inv = m.inverse();
        for p in [Vec3::ZERO, Vec3::new(1.0, 2.0, 3.0), Vec3::new(-5.0, 0.1, 2.2)] {
            assert!((inv.apply(m.apply(p)) - p).norm() < 1e-9);
            assert!((m.apply(inv.apply(p)) - p).norm() < 1e-9);
        }
    }

    #[test]
    fn scaling_is_per_axis() {
        let s = Iso::from_linear(Mat3::diag(Vec3::new(2.0, 3.0, 4.0)));
        assert_eq!(s.apply(Vec3::ONE), Vec3::new(2.0, 3.0, 4.0));
        let u = Iso::from_linear(Mat3::diag(Vec3::splat(2.0)));
        assert_eq!(u.apply(Vec3::ONE), Vec3::splat(2.0));
        // An axis-aligned scale maps a box exactly onto the scaled box.
        let b = Aabb::new(Vec3::splat(-1.0), Vec3::ONE);
        let sb = s.apply_aabb(&b);
        assert_eq!((sb.min, sb.max), (Vec3::new(-2.0, -3.0, -4.0), Vec3::new(2.0, 3.0, 4.0)));
    }

    #[test]
    fn aabb_transform_covers_transformed_points() {
        let m = Iso::new(Mat3::rot_z(0.7), Vec3::new(1.0, 2.0, 3.0));
        let b = Aabb::new(Vec3::splat(-1.0), Vec3::splat(1.0));
        let tb = m.apply_aabb(&b);
        // Sample points inside b must land inside the transformed box.
        for i in 0..5 {
            for j in 0..5 {
                for k in 0..5 {
                    let p = Vec3::new(
                        -1.0 + 0.5 * i as f64,
                        -1.0 + 0.5 * j as f64,
                        -1.0 + 0.5 * k as f64,
                    );
                    assert!(tb.contains_point(m.apply(p)));
                }
            }
        }
    }

    #[test]
    fn empty_aabb_stays_empty() {
        let m = Iso::from_translation(Vec3::ONE);
        assert!(m.apply_aabb(&Aabb::EMPTY).is_empty());
    }
}
