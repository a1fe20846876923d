//! Parametric part geometry: the building blocks behind both datasets.
//!
//! Every builder takes jittered dimensions and returns an implicit CSG
//! solid in its design pose ("CAD objects are designed and constructed
//! in a standardized position", Section 3.2 — pose invariance is
//! exercised separately by the query engine's 24/48-pose minimization).

use vsim_geom::solid::{
    difference, intersection, rotated, tapered_z, translated, union, ConeZ, Cuboid, CylinderZ,
    HexPrismZ, Solid, SolidExt, Sphere, TorusZ,
};
use vsim_geom::{Mat3, Vec3};

/// A tire: a torus.
pub fn tire(major: f64, minor: f64) -> Box<dyn Solid> {
    TorusZ { major, minor }.boxed()
}

/// A wheel rim: a flat disc with a hub bore and lightening holes.
pub fn rim(radius: f64, width: f64, hub: f64) -> Box<dyn Solid> {
    let disc = CylinderZ { radius, half_height: width }.boxed();
    let bore = CylinderZ { radius: hub, half_height: width * 2.0 }.boxed();
    let mut cuts = vec![bore];
    for i in 0..5 {
        let a = 2.0 * std::f64::consts::PI * i as f64 / 5.0;
        cuts.push(translated(
            CylinderZ { radius: radius * 0.18, half_height: width * 2.0 }.boxed(),
            Vec3::new(0.55 * radius * a.cos(), 0.55 * radius * a.sin(), 0.0),
        ));
    }
    difference(disc, union(cuts))
}

/// A car door: a tall thin panel with a window cut-out and a handle
/// boss (family-consistent secondary structure — the same design detail
/// appears on every door, slightly moved between revisions).
pub fn door(w: f64, h: f64, t: f64, window_frac: f64) -> Box<dyn Solid> {
    let panel = Cuboid::new(Vec3::new(w, t, h)).boxed();
    let win = translated(
        Cuboid::new(Vec3::new(w * 0.55, t * 3.0, h * window_frac)).boxed(),
        Vec3::new(-w * 0.1, 0.0, h * (1.0 - window_frac * 0.9)),
    );
    let handle = translated(
        Cuboid::new(Vec3::new(w * 0.18, t * 1.6, h * 0.05)).boxed(),
        Vec3::new(w * 0.6, 0.0, h * 0.25),
    );
    union(vec![difference(panel, win), handle])
}

/// A fender: a quarter cylindrical shell over the wheel arch.
pub fn fender(radius: f64, width: f64, thickness: f64) -> Box<dyn Solid> {
    let outer = CylinderZ { radius, half_height: width }.boxed();
    let inner = CylinderZ { radius: radius - thickness, half_height: width * 1.5 }.boxed();
    let shell = difference(outer, inner);
    // Keep the upper half (y >= 0), then a bit more than a quarter.
    let keep = translated(
        Cuboid::new(Vec3::new(radius * 1.1, radius * 0.6, width * 1.1)).boxed(),
        Vec3::new(0.0, radius * 0.6, 0.0),
    );
    // Lay the arch over x: rotate the cylinder axis from z to x.
    rotated(intersection(vec![shell, keep]), Mat3::rot_y(std::f64::consts::FRAC_PI_2))
}

/// An engine block: a cuboid with a row of cylinder bores.
pub fn engine_block(w: f64, d: f64, h: f64, bores: usize, bore_r: f64) -> Box<dyn Solid> {
    let block = Cuboid::new(Vec3::new(w, d, h)).boxed();
    let mut cuts = Vec::new();
    for i in 0..bores {
        let x = -w + (2.0 * w) * (i as f64 + 0.5) / bores as f64;
        cuts.push(translated(
            CylinderZ { radius: bore_r, half_height: h * 0.8 }.boxed(),
            Vec3::new(x, 0.0, h * 0.4),
        ));
    }
    difference(block, union(cuts))
}

/// A kinematic seat envelope: an L-shaped solid (squab + backrest) with
/// a headrest block (consistent tertiary structure).
pub fn seat_envelope(w: f64, depth: f64, h: f64, t: f64) -> Box<dyn Solid> {
    let squab = Cuboid::new(Vec3::new(w, depth, t)).boxed();
    let back =
        translated(Cuboid::new(Vec3::new(w, t, h)).boxed(), Vec3::new(0.0, -depth + t, h - t));
    let headrest = translated(
        Cuboid::new(Vec3::new(w * 0.45, t * 0.9, h * 0.22)).boxed(),
        Vec3::new(0.0, -depth + t, 2.0 * h + h * 0.2 - t),
    );
    union(vec![squab, back, headrest])
}

/// An exhaust: a long pipe with an elbow and a muffler can.
pub fn exhaust(len: f64, pipe_r: f64, muffler_r: f64, muffler_len: f64) -> Box<dyn Solid> {
    let main = rotated(
        CylinderZ { radius: pipe_r, half_height: len }.boxed(),
        Mat3::rot_y(std::f64::consts::FRAC_PI_2),
    );
    let elbow = translated(
        CylinderZ { radius: pipe_r, half_height: len * 0.25 }.boxed(),
        Vec3::new(len, 0.0, len * 0.2),
    );
    let muffler = translated(
        rotated(
            CylinderZ { radius: muffler_r, half_height: muffler_len }.boxed(),
            Mat3::rot_y(std::f64::consts::FRAC_PI_2),
        ),
        Vec3::new(-len * 0.5, 0.0, 0.0),
    );
    union(vec![main, elbow, muffler])
}

/// A brake disc: thin annulus with a hat section.
pub fn brake_disc(radius: f64, t: f64, hub_r: f64) -> Box<dyn Solid> {
    let disc = CylinderZ { radius, half_height: t }.boxed();
    let bore = CylinderZ { radius: hub_r * 0.5, half_height: t * 4.0 }.boxed();
    let hat = translated(
        CylinderZ { radius: hub_r, half_height: t * 1.5 }.boxed(),
        Vec3::new(0.0, 0.0, t * 1.5),
    );
    difference(union(vec![disc, hat]), bore)
}

/// A gearbox housing: box body with a conical bell and an output shaft.
pub fn gearbox(w: f64, d: f64, h: f64, bell_r: f64) -> Box<dyn Solid> {
    let body = Cuboid::new(Vec3::new(w, d, h)).boxed();
    let bell = translated(
        rotated(
            ConeZ { r_bottom: bell_r, r_top: bell_r * 0.45, half_height: w * 0.6 }.boxed(),
            Mat3::rot_y(std::f64::consts::FRAC_PI_2),
        ),
        Vec3::new(w + w * 0.5, 0.0, 0.0),
    );
    let shaft = translated(
        rotated(
            CylinderZ { radius: bell_r * 0.2, half_height: w * 0.5 }.boxed(),
            Mat3::rot_y(std::f64::consts::FRAC_PI_2),
        ),
        Vec3::new(-w - w * 0.4, 0.0, 0.0),
    );
    union(vec![body, bell, shaft])
}

/// A wing mirror: housing shell plus mounting arm.
pub fn mirror(r: f64, arm_len: f64, arm_r: f64) -> Box<dyn Solid> {
    let housing = intersection(vec![
        Sphere { radius: r }.boxed(),
        Cuboid::new(Vec3::new(r, r * 0.55, r * 0.8)).boxed(),
    ]);
    let arm = translated(
        rotated(
            CylinderZ { radius: arm_r, half_height: arm_len }.boxed(),
            Mat3::rot_x(std::f64::consts::FRAC_PI_2),
        ),
        Vec3::new(0.0, -r - arm_len * 0.4, -r * 0.4),
    );
    union(vec![housing, arm])
}

// ---------------------------------------------------------------------
// Aircraft families
// ---------------------------------------------------------------------

/// A hex nut: hexagonal prism with a threaded bore (modeled as a plain
/// cylinder at voxel resolution).
pub fn nut(across_flats: f64, height: f64, bore: f64) -> Box<dyn Solid> {
    difference(
        HexPrismZ { across_flats, half_height: height }.boxed(),
        CylinderZ { radius: bore, half_height: height * 2.0 }.boxed(),
    )
}

/// A bolt: cylindrical shaft with a hex head.
pub fn bolt(shaft_r: f64, shaft_len: f64, head_af: f64, head_h: f64) -> Box<dyn Solid> {
    let shaft = CylinderZ { radius: shaft_r, half_height: shaft_len }.boxed();
    let head = translated(
        HexPrismZ { across_flats: head_af, half_height: head_h }.boxed(),
        Vec3::new(0.0, 0.0, shaft_len + head_h),
    );
    union(vec![shaft, head])
}

/// A rivet: shaft plus domed head (sphere cap).
pub fn rivet(shaft_r: f64, shaft_len: f64, dome_r: f64) -> Box<dyn Solid> {
    let shaft = CylinderZ { radius: shaft_r, half_height: shaft_len }.boxed();
    let dome = intersection(vec![
        translated(Sphere { radius: dome_r }.boxed(), Vec3::new(0.0, 0.0, shaft_len)),
        translated(
            Cuboid::new(Vec3::new(dome_r, dome_r, dome_r)).boxed(),
            Vec3::new(0.0, 0.0, shaft_len + dome_r),
        ),
    ]);
    union(vec![shaft, dome])
}

/// A washer: a thin annulus.
pub fn washer(outer: f64, inner: f64, t: f64) -> Box<dyn Solid> {
    difference(
        CylinderZ { radius: outer, half_height: t }.boxed(),
        CylinderZ { radius: inner, half_height: t * 3.0 }.boxed(),
    )
}

/// An L-bracket: two plates at a right angle with two bolt holes.
pub fn bracket(leg: f64, w: f64, t: f64, hole_r: f64) -> Box<dyn Solid> {
    let base = Cuboid::new(Vec3::new(leg, w, t)).boxed();
    let up =
        translated(Cuboid::new(Vec3::new(t, w, leg)).boxed(), Vec3::new(-leg + t, 0.0, leg - t));
    let hole1 = translated(
        CylinderZ { radius: hole_r, half_height: t * 3.0 }.boxed(),
        Vec3::new(leg * 0.4, 0.0, 0.0),
    );
    difference(union(vec![base, up]), hole1)
}

/// A C-clamp: a tube with a slot cut out.
pub fn clamp(r: f64, t: f64, width: f64) -> Box<dyn Solid> {
    let ring = difference(
        CylinderZ { radius: r, half_height: width }.boxed(),
        CylinderZ { radius: r - t, half_height: width * 2.0 }.boxed(),
    );
    let slot = translated(
        Cuboid::new(Vec3::new(r * 0.6, r * 0.35, width * 1.5)).boxed(),
        Vec3::new(r * 0.8, 0.0, 0.0),
    );
    difference(ring, slot)
}

/// A wing: a tapered lens-profile extrusion (intersection of two offset
/// cylinders swept along the span, tapered toward the tip).
pub fn wing(span: f64, chord: f64, camber: f64, taper: f64) -> Box<dyn Solid> {
    tapered_z(wing_profile(span, chord, camber), 1.0, taper)
}

/// The untapered lens-profile extrusion of a [`wing`].
fn wing_profile(span: f64, chord: f64, camber: f64) -> Box<dyn Solid> {
    let r = (chord * chord / (4.0 * camber) + camber) / 2.0;
    intersection(vec![
        translated(
            rotated(CylinderZ { radius: r, half_height: span }.boxed(), Mat3::IDENTITY),
            Vec3::new(0.0, r - camber, 0.0),
        ),
        translated(
            CylinderZ { radius: r, half_height: span }.boxed(),
            Vec3::new(0.0, -(r - camber), 0.0),
        ),
    ])
}

/// A spar: an I-beam.
pub fn spar(len: f64, flange_w: f64, web_h: f64, t: f64) -> Box<dyn Solid> {
    let top =
        translated(Cuboid::new(Vec3::new(flange_w, len, t)).boxed(), Vec3::new(0.0, 0.0, web_h));
    let bottom =
        translated(Cuboid::new(Vec3::new(flange_w, len, t)).boxed(), Vec3::new(0.0, 0.0, -web_h));
    let web = Cuboid::new(Vec3::new(t, len, web_h)).boxed();
    union(vec![top, bottom, web])
}

/// A fuselage panel: a thin curved shell segment.
pub fn fuselage_panel(radius: f64, arc_half_width: f64, length: f64, t: f64) -> Box<dyn Solid> {
    let shell = difference(
        CylinderZ { radius, half_height: length }.boxed(),
        CylinderZ { radius: radius - t, half_height: length * 1.5 }.boxed(),
    );
    let keep = translated(
        Cuboid::new(Vec3::new(arc_half_width, radius * 0.6, length * 1.1)).boxed(),
        Vec3::new(0.0, radius * 0.75, 0.0),
    );
    intersection(vec![shell, keep])
}

/// A turbine disc: a disc with a thick hub and a center bore.
pub fn turbine_disc(radius: f64, t: f64, hub_r: f64, bore: f64) -> Box<dyn Solid> {
    let disc = CylinderZ { radius, half_height: t }.boxed();
    let hub = CylinderZ { radius: hub_r, half_height: t * 3.0 }.boxed();
    difference(union(vec![disc, hub]), CylinderZ { radius: bore, half_height: t * 8.0 }.boxed())
}

#[cfg(test)]
mod tests {
    use super::*;
    use vsim_voxel::{voxelize_solid, NormalizeMode};

    fn voxel_count(s: &dyn Solid) -> usize {
        voxelize_solid(s, 15, NormalizeMode::Uniform).grid.count()
    }

    #[test]
    fn all_parts_voxelize_nonempty() {
        let parts: Vec<(&str, Box<dyn Solid>)> = vec![
            ("tire", tire(2.0, 0.6)),
            ("rim", rim(2.0, 0.5, 0.5)),
            ("door", door(2.0, 2.5, 0.15, 0.35)),
            ("fender", fender(2.0, 1.0, 0.25)),
            ("engine", engine_block(2.5, 1.2, 1.5, 4, 0.4)),
            ("seat", seat_envelope(1.5, 1.5, 2.0, 0.4)),
            ("exhaust", exhaust(3.0, 0.3, 0.8, 1.0)),
            ("brake", brake_disc(2.0, 0.2, 0.8)),
            ("gearbox", gearbox(1.5, 1.2, 1.2, 1.0)),
            ("mirror", mirror(1.0, 1.0, 0.2)),
            ("nut", nut(1.0, 0.6, 0.5)),
            ("bolt", bolt(0.4, 2.0, 0.8, 0.4)),
            ("rivet", rivet(0.4, 1.5, 0.8)),
            ("washer", washer(1.0, 0.5, 0.15)),
            ("bracket", bracket(1.5, 1.0, 0.2, 0.3)),
            ("clamp", clamp(1.5, 0.4, 0.6)),
            ("wing", wing(6.0, 2.0, 0.35, 0.3)),
            ("spar", spar(5.0, 1.0, 0.8, 0.2)),
            ("panel", fuselage_panel(3.0, 2.0, 3.0, 0.2)),
            ("turbine", turbine_disc(2.0, 0.3, 0.7, 0.3)),
        ];
        for (name, p) in &parts {
            let c = voxel_count(p.as_ref());
            assert!(c > 15, "{name}: only {c} voxels at r=15");
        }
    }

    #[test]
    fn holed_parts_have_holes() {
        // Center of a nut / washer / turbine disc must be empty.
        for (name, s) in [
            ("nut", nut(1.0, 0.6, 0.45)),
            ("washer", washer(1.0, 0.5, 0.15)),
            ("turbine", turbine_disc(2.0, 0.3, 0.8, 0.4)),
        ] {
            assert!(!s.contains(Vec3::ZERO), "{name} has no bore at origin");
        }
    }

    #[test]
    fn tire_is_distinguishable_from_washer() {
        // Same topology (genus 1) but very different proportions: the
        // voxelizations must differ substantially.
        let a = voxelize_solid(tire(2.0, 0.6).as_ref(), 15, NormalizeMode::Uniform).grid;
        let b = voxelize_solid(washer(2.0, 1.0, 0.15).as_ref(), 15, NormalizeMode::Uniform).grid;
        let diff = a.xor_count(&b);
        assert!(diff > a.count() / 2, "tire/washer diff {diff}");
    }

    #[test]
    fn wing_tapers() {
        let w = wing(6.0, 2.0, 0.35, 0.3);
        // Root half of the span carries much more volume than the tip
        // half (the cross-section is thin, so compare halves, not single
        // slices).
        let g = voxelize_solid(w.as_ref(), 24, NormalizeMode::Uniform).grid;
        let mut root_half = 0usize;
        let mut tip_half = 0usize;
        for [_, _, z] in g.iter_set() {
            if z < 12 {
                root_half += 1;
            } else {
                tip_half += 1;
            }
        }
        assert!(root_half > 3 * tip_half / 2, "root {root_half} vs tip {tip_half}");
    }

    /// `TaperZ` as it was before it kept the child's box: the box is
    /// folded over the child's CSG tree again on every probe.
    struct ProbeTaper {
        child: Box<dyn Solid>,
        top: f64,
    }

    impl Solid for ProbeTaper {
        fn contains(&self, p: Vec3) -> bool {
            let b = self.child.aabb();
            let span = (b.max.z - b.min.z).max(1e-12);
            let t = ((p.z - b.min.z) / span).clamp(0.0, 1.0);
            let s = 1.0 + t * (self.top - 1.0);
            self.child.contains(Vec3::new(p.x / s, p.y / s, p.z))
        }
        fn aabb(&self) -> vsim_geom::Aabb {
            let b = self.child.aabb();
            let s = self.top.max(1.0);
            vsim_geom::Aabb::new(
                Vec3::new(b.min.x * s, b.min.y * s, b.min.z),
                Vec3::new(b.max.x * s, b.max.y * s, b.max.z),
            )
        }
    }

    #[test]
    fn taper_with_a_kept_child_box_voxelizes_bit_identically() {
        // Wings around the aircraft family's dimensions, and its spars
        // tapered.
        let children: [fn(f64) -> Box<dyn Solid>; 2] = [
            |s| wing_profile(6.0 * s, 2.0 / s, 0.35 * s),
            |s| spar(5.0 * s, 1.0 / s, 0.8 * s, 0.2),
        ];
        for (scale, top) in [(0.85, 0.24), (1.0, 0.3), (1.15, 0.36), (1.1, 1.4)] {
            for child in children {
                let kept = tapered_z(child(scale), 1.0, top);
                let probed = ProbeTaper { child: child(scale), top };
                for r in [15, 30] {
                    assert_eq!(
                        voxelize_solid(kept.as_ref(), r, NormalizeMode::Uniform).grid,
                        voxelize_solid(&probed, r, NormalizeMode::Uniform).grid,
                        "scale {scale} top {top} r {r}"
                    );
                }
            }
        }
    }

    #[test]
    fn bolt_head_wider_than_shaft() {
        let g = voxelize_solid(bolt(0.4, 2.0, 0.9, 0.4).as_ref(), 20, NormalizeMode::Uniform).grid;
        let (min, max) = g.occupied_bounds().unwrap();
        // Head at the top: the top slice is wider than the middle slice.
        let width_at = |z: usize| {
            let mut lo = 20usize;
            let mut hi = 0usize;
            for y in 0..20 {
                for x in 0..20 {
                    if g.get(x, y, z) {
                        lo = lo.min(x);
                        hi = hi.max(x);
                    }
                }
            }
            hi.saturating_sub(lo)
        };
        assert!(width_at(max[2] - 1) > width_at((min[2] + max[2]) / 2));
    }
}
