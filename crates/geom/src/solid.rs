//! Implicit solids with CSG combinators.
//!
//! The synthetic CAD part generators (crate `vsim-datagen`) model parts as
//! implicit solids — membership functions plus a bounding box — and
//! voxelize them by sampling cell centers. This sidesteps the robustness
//! problems of boolean operations on meshes while still producing exactly
//! the voxel data the paper's pipeline consumes.
//!
//! A solid tells a voxelizer where it can be in two ways: [`Solid::aabb`],
//! the one box the raster is framed on, and [`Solid::cover`], a list of
//! boxes that may leave out the space between the parts of a union.
//! [`padded_cover`] pads the cover against rounding; a probe outside every
//! padded box is outside the solid, so it need not be asked.

use crate::aabb::Aabb;
use crate::mat3::Mat3;
use crate::transform::Iso;
use crate::vec3::Vec3;

/// A solid 3-D body described by a membership predicate.
pub trait Solid: Send + Sync {
    /// True if point `p` is inside (or on the boundary of) the solid.
    fn contains(&self, p: Vec3) -> bool;

    /// A finite box guaranteed to contain the solid.
    fn aabb(&self) -> Aabb;

    /// [`contains`](Solid::contains) for a row of up to 64 points that
    /// share `y` and `z`: bit `i` of the answer is bit `i` of `ask` ∧
    /// `contains((xs[i], y, z))`. `ask` has no bit at or above `xs.len()`,
    /// and the answer has no bit outside `ask`.
    ///
    /// `contains` is pure, so a row may be answered in any order and a
    /// probe whose answer is already decided may be skipped. An override
    /// does exactly that and nothing else: it hoists what is constant
    /// along the row and narrows `ask` on the way down a CSG tree, but
    /// every probe it does make evaluates the same expressions on the
    /// same `f64`s as `contains` would — the two never disagree in a bit.
    fn contains_row(&self, xs: &[f64], y: f64, z: f64, ask: u64) -> u64 {
        row_of(xs, ask, |x| self.contains(Vec3::new(x, y, z)))
    }

    /// Push boxes that hold the solid: every point `contains` accepts lies
    /// in some box of [`padded_cover`], which pads these against rounding.
    /// Every box lies in [`aabb`](Solid::aabb).
    ///
    /// The default pushes `aabb()`. `Union` pushes each part's cover and
    /// `Difference` its base's (a cut never adds a point), so the cover of
    /// a part under its greebles leaves out the space between them. A new
    /// impl, or a change to an `aabb()`, must keep the proptests
    /// `cover_holds_every_point_*` passing: a box that misses a point of
    /// the solid loses voxels without any other test noticing.
    fn cover(&self, out: &mut Vec<Aabb>) {
        out.push(self.aabb());
    }
}

/// Pad of [`padded_cover`], relative to the solid's magnitude: `2⁻³⁰`,
/// about 4·10⁶ ulps.
const COVER_PAD: f64 = 1.0 / (1u64 << 30) as f64;

/// The boxes of [`Solid::cover`], each grown on every side by `2⁻³⁰·m`;
/// `m` is the largest magnitude among the corners and the extent of
/// `s.aabb()`, which must be finite. A box still empty after padding is
/// dropped.
///
/// Every point `s.contains` accepts lies in some returned box. The pad is
/// what lets a leaf keep that promise: its rounding may accept a point an
/// ulp or a few outside its exact box (`x·x + y·y ≤ r·r` can hold at
/// `x = next_up(r)`), and the pad is about 4·10⁶ ulps of `m`.
pub fn padded_cover(s: &dyn Solid) -> Vec<Aabb> {
    let b = s.aabb();
    let m = [b.min, b.max, b.extent()].iter().map(|v| v.abs().max_elem()).fold(0.0, f64::max);
    let pad = m * COVER_PAD;
    let mut boxes = Vec::new();
    s.cover(&mut boxes);
    boxes.retain_mut(|c| {
        *c = c.inflate(pad);
        !c.is_empty()
    });
    boxes
}

/// The bits `i` of `ask` for which `inside(xs[i])` holds.
#[inline]
fn row_of(xs: &[f64], ask: u64, mut inside: impl FnMut(f64) -> bool) -> u64 {
    debug_assert!(xs.len() <= 64 && (xs.len() == 64 || ask >> xs.len() == 0));
    let mut hit = 0u64;
    let mut rest = ask;
    while rest != 0 {
        let i = rest.trailing_zeros();
        rest &= rest - 1;
        hit |= u64::from(inside(xs[i as usize])) << i;
    }
    hit
}

/// Axis-aligned cuboid centered at the origin with the given half-extents.
#[derive(Debug, Clone)]
pub struct Cuboid {
    pub half: Vec3,
}

impl Cuboid {
    pub fn new(half: Vec3) -> Self {
        assert!(half.x > 0.0 && half.y > 0.0 && half.z > 0.0);
        Cuboid { half }
    }
}

impl Solid for Cuboid {
    fn contains(&self, p: Vec3) -> bool {
        p.x.abs() <= self.half.x && p.y.abs() <= self.half.y && p.z.abs() <= self.half.z
    }
    fn aabb(&self) -> Aabb {
        Aabb::from_center_half(Vec3::ZERO, self.half)
    }
    fn contains_row(&self, xs: &[f64], y: f64, z: f64, ask: u64) -> u64 {
        if y.abs() <= self.half.y && z.abs() <= self.half.z {
            row_of(xs, ask, |x| x.abs() <= self.half.x)
        } else {
            0
        }
    }
}

/// Sphere centered at the origin.
#[derive(Debug, Clone)]
pub struct Sphere {
    pub radius: f64,
}

impl Solid for Sphere {
    fn contains(&self, p: Vec3) -> bool {
        p.norm_sq() <= self.radius * self.radius
    }
    fn aabb(&self) -> Aabb {
        Aabb::from_center_half(Vec3::ZERO, Vec3::splat(self.radius))
    }
}

/// Cylinder along the z axis, centered at the origin.
#[derive(Debug, Clone)]
pub struct CylinderZ {
    pub radius: f64,
    pub half_height: f64,
}

impl Solid for CylinderZ {
    fn contains(&self, p: Vec3) -> bool {
        p.z.abs() <= self.half_height && p.x * p.x + p.y * p.y <= self.radius * self.radius
    }
    fn aabb(&self) -> Aabb {
        Aabb::from_center_half(Vec3::ZERO, Vec3::new(self.radius, self.radius, self.half_height))
    }
    fn contains_row(&self, xs: &[f64], y: f64, z: f64, ask: u64) -> u64 {
        if z.abs() <= self.half_height {
            let (yy, rr) = (y * y, self.radius * self.radius);
            row_of(xs, ask, |x| x * x + yy <= rr)
        } else {
            0
        }
    }
}

/// Conical frustum along the z axis: radius `r_bottom` at `z = -half_height`
/// tapering linearly to `r_top` at `z = +half_height`.
#[derive(Debug, Clone)]
pub struct ConeZ {
    pub r_bottom: f64,
    pub r_top: f64,
    pub half_height: f64,
}

impl Solid for ConeZ {
    fn contains(&self, p: Vec3) -> bool {
        if p.z.abs() > self.half_height {
            return false;
        }
        let t = (p.z + self.half_height) / (2.0 * self.half_height);
        let r = self.r_bottom + t * (self.r_top - self.r_bottom);
        p.x * p.x + p.y * p.y <= r * r
    }
    fn aabb(&self) -> Aabb {
        let r = self.r_bottom.max(self.r_top);
        Aabb::from_center_half(Vec3::ZERO, Vec3::new(r, r, self.half_height))
    }
}

/// Torus around the z axis: tube of radius `minor` swept along a circle of
/// radius `major` in the xy plane.
#[derive(Debug, Clone)]
pub struct TorusZ {
    pub major: f64,
    pub minor: f64,
}

impl Solid for TorusZ {
    fn contains(&self, p: Vec3) -> bool {
        let q = (p.x * p.x + p.y * p.y).sqrt() - self.major;
        q * q + p.z * p.z <= self.minor * self.minor
    }
    fn aabb(&self) -> Aabb {
        let r = self.major + self.minor;
        Aabb::from_center_half(Vec3::ZERO, Vec3::new(r, r, self.minor))
    }
}

/// Regular hexagonal prism along the z axis. `across_flats` is the
/// distance from the axis to each flat side (inradius) — as for a nut.
#[derive(Debug, Clone)]
pub struct HexPrismZ {
    pub across_flats: f64,
    pub half_height: f64,
}

impl Solid for HexPrismZ {
    fn contains(&self, p: Vec3) -> bool {
        if p.z.abs() > self.half_height {
            return false;
        }
        // Hexagon with two flats perpendicular to the y axis.
        let (x, y) = (p.x.abs(), p.y.abs());
        let a = self.across_flats;
        y <= a && 0.5 * (3f64.sqrt() * x + y) <= a
    }
    fn aabb(&self) -> Aabb {
        let circum = self.across_flats * 2.0 / 3f64.sqrt();
        Aabb::from_center_half(Vec3::ZERO, Vec3::new(circum, self.across_flats, self.half_height))
    }
    fn contains_row(&self, xs: &[f64], y: f64, z: f64, ask: u64) -> u64 {
        if z.abs() > self.half_height {
            return 0;
        }
        let (y, a) = (y.abs(), self.across_flats);
        if y <= a {
            row_of(xs, ask, |x| 0.5 * (3f64.sqrt() * x.abs() + y) <= a)
        } else {
            0
        }
    }
}

/// Union of several solids.
pub struct Union {
    pub parts: Vec<Box<dyn Solid>>,
}

impl Solid for Union {
    fn contains(&self, p: Vec3) -> bool {
        self.parts.iter().any(|s| s.contains(p))
    }
    fn aabb(&self) -> Aabb {
        self.parts.iter().fold(Aabb::EMPTY, |b, s| b.union(&s.aabb()))
    }
    /// Each part is asked only about the points no earlier part holds.
    fn contains_row(&self, xs: &[f64], y: f64, z: f64, ask: u64) -> u64 {
        let mut hit = 0u64;
        for s in &self.parts {
            if hit == ask {
                break;
            }
            hit |= s.contains_row(xs, y, z, ask & !hit);
        }
        hit
    }
    fn cover(&self, out: &mut Vec<Aabb>) {
        for s in &self.parts {
            s.cover(out);
        }
    }
}

/// Intersection of several solids.
pub struct Intersection {
    pub parts: Vec<Box<dyn Solid>>,
}

impl Solid for Intersection {
    fn contains(&self, p: Vec3) -> bool {
        !self.parts.is_empty() && self.parts.iter().all(|s| s.contains(p))
    }
    fn aabb(&self) -> Aabb {
        // Intersection of the bounds (still a valid cover).
        let mut it = self.parts.iter();
        let first = match it.next() {
            Some(s) => s.aabb(),
            None => return Aabb::EMPTY,
        };
        it.fold(first, |b, s| {
            let o = s.aabb();
            Aabb::new(b.min.max(o.min), b.max.min(o.max))
        })
    }
    /// Each part is asked only about the points every earlier part holds.
    fn contains_row(&self, xs: &[f64], y: f64, z: f64, ask: u64) -> u64 {
        if self.parts.is_empty() {
            return 0;
        }
        let mut hit = ask;
        for s in &self.parts {
            if hit == 0 {
                break;
            }
            hit = s.contains_row(xs, y, z, hit);
        }
        hit
    }
}

/// Set difference `base \ cut`.
pub struct Difference {
    pub base: Box<dyn Solid>,
    pub cut: Box<dyn Solid>,
}

impl Solid for Difference {
    fn contains(&self, p: Vec3) -> bool {
        self.base.contains(p) && !self.cut.contains(p)
    }
    fn aabb(&self) -> Aabb {
        self.base.aabb()
    }
    /// `cut` is asked only about the points `base` holds.
    fn contains_row(&self, xs: &[f64], y: f64, z: f64, ask: u64) -> u64 {
        let hit = self.base.contains_row(xs, y, z, ask);
        if hit == 0 {
            return 0;
        }
        hit & !self.cut.contains_row(xs, y, z, hit)
    }
    fn cover(&self, out: &mut Vec<Aabb>) {
        self.base.cover(out);
    }
}

/// A solid placed by an affine transform (stores the inverse so membership
/// tests map the query point back into the child's local frame).
pub struct Transformed {
    child: Box<dyn Solid>,
    inverse: Iso,
    bounds: Aabb,
}

impl Transformed {
    pub fn new(child: Box<dyn Solid>, iso: Iso) -> Self {
        let bounds = iso.apply_aabb(&child.aabb());
        Transformed { child, inverse: iso.inverse(), bounds }
    }
}

impl Solid for Transformed {
    fn contains(&self, p: Vec3) -> bool {
        self.bounds.contains_point(p) && self.child.contains(self.inverse.apply(p))
    }
    fn aabb(&self) -> Aabb {
        self.bounds
    }
    /// The six comparisons of [`Aabb::contains_point`], the four on `y`
    /// and `z` made once for the row.
    fn contains_row(&self, xs: &[f64], y: f64, z: f64, ask: u64) -> u64 {
        let b = &self.bounds;
        if y >= b.min.y && y <= b.max.y && z >= b.min.z && z <= b.max.z {
            row_of(xs, ask, |x| {
                x >= b.min.x
                    && x <= b.max.x
                    && self.child.contains(self.inverse.apply(Vec3::new(x, y, z)))
            })
        } else {
            0
        }
    }
}

/// Linear taper along z: at `z = -h` the cross-section is scaled by
/// `scale_bottom`, at `z = +h` by `scale_top`, interpolating linearly.
/// Used e.g. for tapered wings and spars.
pub struct TaperZ {
    child: Box<dyn Solid>,
    /// `child.aabb()`, folded over the child's CSG tree once: every
    /// membership probe needs its z-range.
    child_bounds: Aabb,
    pub scale_bottom: f64,
    pub scale_top: f64,
}

impl TaperZ {
    pub fn new(child: Box<dyn Solid>, scale_bottom: f64, scale_top: f64) -> Self {
        assert!(scale_bottom > 0.0 && scale_top > 0.0);
        let child_bounds = child.aabb();
        TaperZ { child, child_bounds, scale_bottom, scale_top }
    }
    fn scale_at(&self, z: f64) -> f64 {
        let b = &self.child_bounds;
        let span = (b.max.z - b.min.z).max(1e-12);
        let t = ((z - b.min.z) / span).clamp(0.0, 1.0);
        self.scale_bottom + t * (self.scale_top - self.scale_bottom)
    }
}

impl Solid for TaperZ {
    fn contains(&self, p: Vec3) -> bool {
        let s = self.scale_at(p.z);
        self.child.contains(Vec3::new(p.x / s, p.y / s, p.z))
    }
    fn aabb(&self) -> Aabb {
        // A cross-section is the child's scaled by a factor between the two
        // end scales, so each bound is reached at one of the ends — which
        // one depends on the bound's sign.
        let b = &self.child_bounds;
        let (s0, s1) = (self.scale_bottom, self.scale_top);
        Aabb::new(
            Vec3::new((b.min.x * s0).min(b.min.x * s1), (b.min.y * s0).min(b.min.y * s1), b.min.z),
            Vec3::new((b.max.x * s0).max(b.max.x * s1), (b.max.y * s0).max(b.max.y * s1), b.max.z),
        )
    }
    /// One `scale_at(z)` for the row, and the child sees a row again.
    fn contains_row(&self, xs: &[f64], y: f64, z: f64, ask: u64) -> u64 {
        let s = self.scale_at(z);
        let mut scaled = [0.0f64; 64];
        for (q, x) in scaled.iter_mut().zip(xs) {
            *q = x / s;
        }
        self.child.contains_row(&scaled[..xs.len()], y / s, z, ask)
    }
}

/// Builder-style combinators for boxed solids.
pub trait SolidExt: Solid + Sized + 'static {
    fn boxed(self) -> Box<dyn Solid> {
        Box::new(self)
    }
}
impl<T: Solid + Sized + 'static> SolidExt for T {}

/// Union of boxed solids.
pub fn union(parts: Vec<Box<dyn Solid>>) -> Box<dyn Solid> {
    Box::new(Union { parts })
}

/// Intersection of boxed solids.
pub fn intersection(parts: Vec<Box<dyn Solid>>) -> Box<dyn Solid> {
    Box::new(Intersection { parts })
}

/// `base \ cut`.
pub fn difference(base: Box<dyn Solid>, cut: Box<dyn Solid>) -> Box<dyn Solid> {
    Box::new(Difference { base, cut })
}

/// Translate a solid.
pub fn translated(s: Box<dyn Solid>, t: Vec3) -> Box<dyn Solid> {
    Box::new(Transformed::new(s, Iso::from_translation(t)))
}

/// Rotate a solid about the origin.
pub fn rotated(s: Box<dyn Solid>, m: Mat3) -> Box<dyn Solid> {
    Box::new(Transformed::new(s, Iso::from_linear(m)))
}

/// Apply an arbitrary affine transform.
pub fn transformed(s: Box<dyn Solid>, iso: Iso) -> Box<dyn Solid> {
    Box::new(Transformed::new(s, iso))
}

/// Taper along z (see [`TaperZ`]).
pub fn tapered_z(s: Box<dyn Solid>, scale_bottom: f64, scale_top: f64) -> Box<dyn Solid> {
    Box::new(TaperZ::new(s, scale_bottom, scale_top))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use proptest::test_runner::{TestCaseError, TestRng};

    /// Estimate the volume of a solid by sampling an `n³` lattice of its
    /// bounding box.
    fn sampled_volume(s: &dyn Solid, n: usize) -> f64 {
        let b = s.aabb();
        if b.is_empty() {
            return 0.0;
        }
        let e = b.extent();
        let cell = Vec3::new(e.x / n as f64, e.y / n as f64, e.z / n as f64);
        let mut hits = 0usize;
        for i in 0..n {
            for j in 0..n {
                for k in 0..n {
                    let p = b.min
                        + Vec3::new(
                            (i as f64 + 0.5) * cell.x,
                            (j as f64 + 0.5) * cell.y,
                            (k as f64 + 0.5) * cell.z,
                        );
                    if s.contains(p) {
                        hits += 1;
                    }
                }
            }
        }
        hits as f64 * cell.x * cell.y * cell.z
    }

    #[test]
    fn cuboid_membership_and_bounds() {
        let c = Cuboid::new(Vec3::new(1.0, 2.0, 3.0));
        assert!(c.contains(Vec3::ZERO));
        assert!(c.contains(Vec3::new(1.0, 2.0, 3.0))); // boundary
        assert!(!c.contains(Vec3::new(1.01, 0.0, 0.0)));
        assert_eq!(c.aabb().volume(), 48.0);
    }

    #[test]
    fn sphere_volume_estimate() {
        let s = Sphere { radius: 1.0 };
        let v = sampled_volume(&s, 64);
        let exact = 4.0 / 3.0 * std::f64::consts::PI;
        assert!((v - exact).abs() / exact < 0.02, "{v} vs {exact}");
    }

    #[test]
    fn cylinder_cone_relationship() {
        // A cone with equal radii is a cylinder.
        let cyl = CylinderZ { radius: 1.0, half_height: 1.0 };
        let cone = ConeZ { r_bottom: 1.0, r_top: 1.0, half_height: 1.0 };
        for p in [
            Vec3::new(0.5, 0.5, 0.3),
            Vec3::new(0.9, 0.0, -0.99),
            Vec3::new(1.1, 0.0, 0.0),
            Vec3::new(0.0, 0.0, 1.2),
        ] {
            assert_eq!(cyl.contains(p), cone.contains(p));
        }
        // A true cone is empty at the tip radius edge near the top.
        let tip = ConeZ { r_bottom: 1.0, r_top: 0.01, half_height: 1.0 };
        assert!(tip.contains(Vec3::new(0.9, 0.0, -0.95)));
        assert!(!tip.contains(Vec3::new(0.9, 0.0, 0.95)));
    }

    #[test]
    fn torus_has_a_hole() {
        let t = TorusZ { major: 2.0, minor: 0.5 };
        assert!(t.contains(Vec3::new(2.0, 0.0, 0.0)));
        assert!(t.contains(Vec3::new(0.0, 2.3, 0.2)));
        assert!(!t.contains(Vec3::ZERO)); // center hole
        assert!(!t.contains(Vec3::new(2.0, 0.0, 0.6)));
        let v = sampled_volume(&t, 80);
        let exact = 2.0 * std::f64::consts::PI.powi(2) * 2.0 * 0.25;
        assert!((v - exact).abs() / exact < 0.05);
    }

    #[test]
    fn hex_prism_inradius_and_circumradius() {
        let h = HexPrismZ { across_flats: 1.0, half_height: 1.0 };
        assert!(h.contains(Vec3::new(0.0, 0.999, 0.0))); // flat side
        assert!(!h.contains(Vec3::new(0.0, 1.001, 0.0)));
        let circ = 2.0 / 3f64.sqrt();
        assert!(h.contains(Vec3::new(circ - 1e-3, 0.0, 0.0))); // corner
        assert!(!h.contains(Vec3::new(circ + 1e-3, 0.0, 0.0)));
    }

    #[test]
    fn csg_difference_makes_a_tube() {
        let outer = CylinderZ { radius: 1.0, half_height: 1.0 }.boxed();
        let inner = CylinderZ { radius: 0.5, half_height: 2.0 }.boxed();
        let tube = difference(outer, inner);
        assert!(tube.contains(Vec3::new(0.75, 0.0, 0.0)));
        assert!(!tube.contains(Vec3::ZERO));
        assert!(!tube.contains(Vec3::new(1.5, 0.0, 0.0)));
    }

    #[test]
    fn csg_union_and_intersection() {
        let a = Cuboid::new(Vec3::splat(1.0)).boxed();
        let b = translated(Cuboid::new(Vec3::splat(1.0)).boxed(), Vec3::new(1.0, 0.0, 0.0));
        let u = union(vec![a, b]);
        assert!(u.contains(Vec3::new(1.8, 0.0, 0.0)));
        assert!(u.contains(Vec3::new(-0.8, 0.0, 0.0)));

        let c = Cuboid::new(Vec3::splat(1.0)).boxed();
        let d = Sphere { radius: 1.0 }.boxed();
        let i = intersection(vec![c, d]);
        assert!(i.contains(Vec3::new(0.5, 0.5, 0.5)));
        assert!(!i.contains(Vec3::new(0.9, 0.9, 0.9))); // inside cube, outside sphere
    }

    #[test]
    fn transformed_solid_moves_and_rotates() {
        let cyl = CylinderZ { radius: 0.5, half_height: 2.0 }.boxed();
        // Rotate the cylinder onto the x axis, then shift up.
        let s = translated(
            rotated(cyl, Mat3::rot_y(std::f64::consts::FRAC_PI_2)),
            Vec3::new(0.0, 0.0, 1.0),
        );
        assert!(s.contains(Vec3::new(1.5, 0.0, 1.0)));
        assert!(!s.contains(Vec3::new(0.0, 0.0, 2.6)));
        assert!(s.aabb().contains_point(Vec3::new(1.9, 0.0, 1.0)));
    }

    #[test]
    fn taper_shrinks_one_end() {
        let bar = Cuboid::new(Vec3::new(1.0, 1.0, 2.0)).boxed();
        let t = tapered_z(bar, 1.0, 0.25);
        assert!(t.contains(Vec3::new(0.9, 0.9, -1.9))); // wide bottom
        assert!(!t.contains(Vec3::new(0.9, 0.9, 1.9))); // narrow top
        assert!(t.contains(Vec3::new(0.2, 0.2, 1.9)));
    }

    #[test]
    fn taper_bounds_cover_a_child_beside_the_axis() {
        // Every corner of every cross-section lies in the box; the old box
        // scaled both bounds by one factor and missed the near side.
        let beside = || translated(Cuboid::new(Vec3::splat(0.5)).boxed(), Vec3::new(1.5, 1.5, 0.0));
        for (s0, s1) in [(1.0, 2.0), (0.5, 0.5), (2.0, 0.25)] {
            let t = tapered_z(beside(), s0, s1);
            let b = t.aabb();
            for (z, s) in [(-0.5, s0), (0.5, s1)] {
                for x in [1.0, 2.0] {
                    let p = Vec3::new(x * s, x * s, z);
                    assert!(t.contains(p), "{p:?} is a corner of the solid");
                    assert!(b.contains_point(p), "{b:?} misses {p:?} (scales {s0} -> {s1})");
                }
            }
        }
        let t = tapered_z(beside(), 1.0, 2.0);
        assert_eq!(t.aabb(), Aabb::new(Vec3::new(1.0, 1.0, -0.5), Vec3::new(4.0, 4.0, 0.5)));
        let t = tapered_z(beside(), 0.5, 0.5);
        assert_eq!(t.aabb(), Aabb::new(Vec3::new(0.5, 0.5, -0.5), Vec3::new(1.0, 1.0, 0.5)));
        // A child that straddles the axis and only shrinks — the wing —
        // keeps the box it had: the child's own.
        let wing = tapered_z(Cuboid::new(Vec3::new(1.0, 0.3, 6.0)).boxed(), 1.0, 0.3);
        assert_eq!(wing.aabb(), Cuboid::new(Vec3::new(1.0, 0.3, 6.0)).aabb());
    }

    #[test]
    fn empty_intersection_contains_nothing() {
        let i = Intersection { parts: vec![] };
        assert!(!i.contains(Vec3::ZERO));
        assert!(i.aabb().is_empty());
    }

    /// A random instance of the `kind`-th `Solid` impl: six primitives,
    /// then five combinators over children `depth - 1` levels deep.
    fn random_solid(kind: u64, depth: u32, rng: &mut TestRng) -> Box<dyn Solid> {
        let [a, b, c] = [(); 3].map(|_| 0.2 + 1.8 * rng.unit_f64());
        if kind >= 6 {
            let kinds = if depth > 1 { 11 } else { 6 };
            let mut child = || random_solid(rng.below(kinds), depth.saturating_sub(1), rng);
            let shift = Vec3::new(a - 1.0, b - 1.0, c - 1.0);
            return match kind {
                6 => union(vec![child(), translated(child(), shift), child()]),
                7 => intersection(vec![child(), translated(child(), shift * 0.3)]),
                8 => difference(child(), translated(child(), shift)),
                // Half of them axis-aligned, so a box face can be a face of the solid.
                9 if c < 1.1 => translated(child(), shift),
                9 => transformed(child(), Iso::new(Mat3::rot_z(a * 3.0) * Mat3::rot_x(b), shift)),
                _ => tapered_z(child(), a, b),
            };
        }
        match kind {
            0 => Cuboid::new(Vec3::new(a, b, c)).boxed(),
            1 => Sphere { radius: a }.boxed(),
            2 => CylinderZ { radius: a, half_height: b }.boxed(),
            3 => ConeZ { r_bottom: a, r_top: b, half_height: c }.boxed(),
            4 => TorusZ { major: 1.0 + a, minor: 0.4 * b }.boxed(),
            _ => HexPrismZ { across_flats: a, half_height: b }.boxed(),
        }
    }

    /// A coordinate in and around `[lo, hi]`, one time in four exactly an end.
    fn coord(lo: f64, hi: f64, rng: &mut TestRng) -> f64 {
        match rng.below(8) {
            0 => lo,
            1 => hi,
            _ => lo - 0.2 * (hi - lo) + 1.4 * (hi - lo) * rng.unit_f64(),
        }
    }

    /// `contains_row` against per-point `contains` on random rows of `s`.
    fn check_rows(s: &dyn Solid, rng: &mut TestRng) -> Result<(), TestCaseError> {
        let b = s.aabb();
        for _ in 0..24 {
            let n = 1 + rng.below(64) as usize;
            let xs: Vec<f64> = (0..n).map(|_| coord(b.min.x, b.max.x, rng)).collect();
            let (y, z) = (coord(b.min.y, b.max.y, rng), coord(b.min.z, b.max.z, rng));
            let all = u64::MAX >> (64 - n);
            let ask = match rng.below(4) {
                0 => 0,
                1 => all,
                _ => rng.next_u64() & all,
            };
            let mut want = 0u64;
            for (i, &x) in xs.iter().enumerate() {
                want |= u64::from(ask >> i & 1 == 1 && s.contains(Vec3::new(x, y, z))) << i;
            }
            let got = s.contains_row(&xs, y, z, ask);
            prop_assert_eq!(got, want, "row of {} at y {} z {}, ask {:#x}", n, y, z, ask);
        }
        Ok(())
    }

    macro_rules! row_matches_points {
        ($($name:ident: $kind:expr,)*) => {
            proptest! {$(
                #[test]
                fn $name(seed in 0u64..u64::MAX) {
                    let rng = &mut TestRng::from_name(&format!("contains-row-{seed}"));
                    check_rows(random_solid($kind, 2, rng).as_ref(), rng)?;
                }
            )*}
        };
    }

    row_matches_points! {
        row_matches_points_cuboid: 0,
        row_matches_points_sphere: 1,
        row_matches_points_cylinder: 2,
        row_matches_points_cone: 3,
        row_matches_points_torus: 4,
        row_matches_points_hex_prism: 5,
        row_matches_points_union: 6,
        row_matches_points_intersection: 7,
        row_matches_points_difference: 8,
        row_matches_points_transformed: 9,
        row_matches_points_taper: 10,
    }

    /// A coordinate of `[lo, hi]`: an end, the middle, or anywhere between.
    fn within(lo: f64, hi: f64, rng: &mut TestRng) -> f64 {
        match rng.below(4) {
            0 => lo,
            1 => hi,
            2 => 0.5 * (lo + hi),
            _ => lo + (hi - lo) * rng.unit_f64(),
        }
    }

    /// Every point of `s` that `contains` accepts lies in a box of
    /// `padded_cover(s)`: points drawn over and around `s.aabb()`, and
    /// points on every face of every cover box and one ulp either side.
    fn check_cover(s: &dyn Solid, rng: &mut TestRng) -> Result<(), TestCaseError> {
        let padded = padded_cover(s);
        let check = |p: Vec3| {
            let held = padded.iter().any(|c| c.contains_point(p));
            prop_assert!(
                held || !s.contains(p),
                "{:?} is in the solid, in no box of {:?}",
                p,
                padded
            );
            Ok(())
        };
        let b = s.aabb();
        for _ in 0..64 {
            check(Vec3::new(
                coord(b.min.x, b.max.x, rng),
                coord(b.min.y, b.max.y, rng),
                coord(b.min.z, b.max.z, rng),
            ))?;
        }
        let mut cover = Vec::new();
        s.cover(&mut cover);
        for c in cover.iter().filter(|c| !c.is_empty()) {
            let (lo, hi) = (c.min.to_array(), c.max.to_array());
            for axis in 0..3 {
                for face in [lo[axis], hi[axis]] {
                    for at in [face.next_down(), face, face.next_up()] {
                        for _ in 0..4 {
                            let mut p = [0.0; 3];
                            for (i, q) in p.iter_mut().enumerate() {
                                *q = if i == axis { at } else { within(lo[i], hi[i], rng) };
                            }
                            check(Vec3::new(p[0], p[1], p[2]))?;
                        }
                    }
                }
            }
        }
        Ok(())
    }

    macro_rules! cover_holds_every_point {
        ($($name:ident: $kind:expr,)*) => {
            proptest! {$(
                #[test]
                fn $name(seed in 0u64..u64::MAX) {
                    let rng = &mut TestRng::from_name(&format!("cover-{seed}"));
                    check_cover(random_solid($kind, 2, rng).as_ref(), rng)?;
                }
            )*}
        };
    }

    cover_holds_every_point! {
        cover_holds_every_point_cuboid: 0,
        cover_holds_every_point_sphere: 1,
        cover_holds_every_point_cylinder: 2,
        cover_holds_every_point_cone: 3,
        cover_holds_every_point_torus: 4,
        cover_holds_every_point_hex_prism: 5,
        cover_holds_every_point_union: 6,
        cover_holds_every_point_intersection: 7,
        cover_holds_every_point_difference: 8,
        cover_holds_every_point_transformed: 9,
        cover_holds_every_point_taper: 10,
    }

    proptest! {
        /// A taper of a child beside the z axis, which `random_solid` draws
        /// only rarely: the one `aabb()` that was once not a cover (`x ∈
        /// [1, 2]` tapered 1 → 2 reported `[2, 4]`).
        #[test]
        fn cover_holds_every_point_taper_beside_the_axis(seed in 0u64..u64::MAX) {
            let rng = &mut TestRng::from_name(&format!("cover-beside-{seed}"));
            let child = random_solid(rng.below(11), 1, rng);
            let b = child.aabb();
            let gap = 0.05 + rng.unit_f64();
            let dx = if rng.below(2) == 0 { gap - b.min.x } else { -gap - b.max.x };
            let beside = translated(child, Vec3::new(dx, 0.0, 0.0));
            let [s0, s1] = [(); 2].map(|_| 0.2 + 1.8 * rng.unit_f64());
            check_cover(tapered_z(beside, s0, s1).as_ref(), rng)?;
        }
    }

    #[test]
    fn the_cover_of_a_union_is_its_parts_and_a_cut_adds_none() {
        let at = |x: f64| translated(Cuboid::new(Vec3::splat(0.5)).boxed(), Vec3::new(x, 0.0, 0.0));
        let u = difference(union(vec![at(-2.0), at(2.0)]), at(0.0));
        let mut cover = Vec::new();
        u.cover(&mut cover);
        assert_eq!(cover, vec![at(-2.0).aabb(), at(2.0).aabb()]);
        // m = 5, the extent along x: every box grows by 5·2⁻³⁰, and the
        // gap between them stays.
        let padded = padded_cover(u.as_ref());
        let pad = 5.0 / (1u64 << 30) as f64;
        assert_eq!(padded, vec![at(-2.0).aabb().inflate(pad), at(2.0).aabb().inflate(pad)]);
        assert!(!padded.iter().any(|c| c.contains_point(Vec3::ZERO)));
    }
}
