//! Differential tests of the row-at-a-time voxelizer against the
//! per-point loop it replaced, and the counts that pin what a row and the
//! cover save: how often the voxelizer enters the CSG tree, and how many
//! probes reach a leaf behind a `translated(..)`.

use super::*;
use rand::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
use std::sync::Arc;
use vsim_datagen::greeble::standard_greebles;
use vsim_datagen::{aircraft::aircraft_families, car::car_families, Family};
use vsim_geom::solid::{
    difference, translated, union, Cuboid, CylinderZ, HexPrismZ, SolidExt, Sphere, Union,
};
use vsim_geom::Aabb;

/// `voxelize_solid` as it was before `Solid::contains_row`: one walk of
/// the CSG tree per probe, center first, sub-samples until one hits.
fn reference_voxelize_solid(solid: &dyn Solid, r: usize, mode: NormalizeMode) -> Voxelization {
    let b = solid.aabb();
    let (origin, cell) = framing(b.min, b.max, r, mode);
    let mut grid = VoxelGrid::cubic(r);
    const SUB: [f64; 2] = [0.25, 0.75];
    for z in 0..r {
        for y in 0..r {
            for x in 0..r {
                let base =
                    origin + Vec3::new(x as f64 * cell.x, y as f64 * cell.y, z as f64 * cell.z);
                let center = base + cell * 0.5;
                let mut inside = solid.contains(center);
                if !inside {
                    'probe: for sz in SUB {
                        for sy in SUB {
                            for sx in SUB {
                                let p = base + Vec3::new(sx * cell.x, sy * cell.y, sz * cell.z);
                                if solid.contains(p) {
                                    inside = true;
                                    break 'probe;
                                }
                            }
                        }
                    }
                }
                if inside {
                    grid.set(x, y, z, true);
                }
            }
        }
    }
    Voxelization { grid, scale_factors: cell, origin }
}

/// The paper's two rasters and two that cross the 32-voxel chunk.
const RASTERS: [usize; 4] = [15, 30, 33, 70];
const MODES: [NormalizeMode; 2] = [NormalizeMode::Uniform, NormalizeMode::PerAxis];

/// `voxelize_solid` equals the per-point reference on `solid` at `r` in
/// `mode`: grid, origin and scale factors.
fn assert_matches_reference_at(what: &str, solid: &dyn Solid, r: usize, mode: NormalizeMode) {
    let got = voxelize_solid(solid, r, mode);
    let want = reference_voxelize_solid(solid, r, mode);
    assert!(
        got.grid == want.grid,
        "{what} r {r} {mode:?}: {} voxels differ",
        got.grid.xor_count(&want.grid)
    );
    assert_eq!(got.origin, want.origin);
    assert_eq!(got.scale_factors, want.scale_factors);
}

/// [`assert_matches_reference_at`] at every raster of [`RASTERS`] in both modes.
fn assert_matches_reference(what: &str, solid: &dyn Solid) {
    for r in RASTERS {
        for mode in MODES {
            assert_matches_reference_at(what, solid, r, mode);
        }
    }
}

/// Every family, greebled as `build_dataset` greebles it.
fn assert_families_match_reference(families: Vec<Family>) {
    for (fi, family) in families.iter().enumerate() {
        for seed in 0..8u64 {
            let mut rng = StdRng::seed_from_u64(seed * 0x9e37_79b9 + fi as u64);
            let solid = standard_greebles((family.gen)(&mut rng), &mut rng);
            assert_matches_reference(&format!("{} seed {seed}", family.name), solid.as_ref());
        }
    }
}

/// Four small parts at the raster's corners: a cover of four disjoint
/// boxes, with every slab and row between them off the cover.
#[test]
fn parts_at_the_corners_match_the_per_point_reference() {
    let at = |s: Box<dyn Solid>, x: f64, y: f64, z: f64| translated(s, Vec3::new(x, y, z));
    let corners = union(vec![
        at(Sphere { radius: 0.15 }.boxed(), -1.0, -1.0, -1.0),
        at(Cuboid::new(Vec3::new(0.1, 0.15, 0.2)).boxed(), 1.0, 1.0, -1.0),
        at(CylinderZ { radius: 0.12, half_height: 0.2 }.boxed(), 1.0, -1.0, 1.0),
        at(HexPrismZ { across_flats: 0.15, half_height: 0.1 }.boxed(), -1.0, 1.0, 1.0),
    ]);
    let mut cover = Vec::new();
    corners.cover(&mut cover);
    assert_eq!(cover.len(), 4);
    assert_matches_reference("four corners", corners.as_ref());
}

/// A cuboid whose faces lie exactly on a probe coordinate of each kind:
/// a center in x, a 0.25 sub-sample in y, a 0.75 one in z. Two small
/// spheres at opposite corners frame the raster, so the faces can be
/// placed after the frame is known.
#[test]
fn a_face_on_a_probe_matches_the_per_point_reference() {
    let frame = || {
        let ball = |c: f64| translated(Sphere { radius: 0.1 }.boxed(), Vec3::splat(c));
        vec![ball(-0.9), ball(0.9)]
    };
    let b = union(frame()).aabb();
    for r in RASTERS {
        for mode in MODES {
            let (origin, cell) = framing(b.min, b.max, r, mode);
            let i = 3 * r / 4;
            let half = Vec3::new(
                axis_probes(origin.x, cell.x, r)[0][i],
                axis_probes(origin.y, cell.y, r)[1][i],
                axis_probes(origin.z, cell.z, r)[2][i],
            );
            let mut parts = frame();
            parts.push(Cuboid::new(half).boxed());
            let solid = union(parts);
            assert_eq!(solid.aabb(), b, "the cuboid must stay inside the frame");
            let v = voxelize_solid(solid.as_ref(), r, mode);
            assert!(v.grid.get(i, i, i), "r {r} {mode:?}: the corner voxel on the faces is set");
            assert_matches_reference_at("face on a probe", solid.as_ref(), r, mode);
        }
    }
}

/// A washer thinner than half a cell, the spacing of the sub-samples:
/// its one slab of probes, if any, holds every voxel it gets.
#[test]
fn a_washer_thinner_than_a_sub_sample_matches_the_per_point_reference() {
    for t in [0.004, 0.0015] {
        let washer = difference(
            CylinderZ { radius: 1.0, half_height: t }.boxed(),
            CylinderZ { radius: 0.5, half_height: 3.0 * t }.boxed(),
        );
        // At r = 70 half a cell is 1/70 ≈ 0.014, more than the 2t thickness.
        assert!(2.0 * t < 0.5 * 2.0 / 70.0);
        assert_matches_reference(&format!("washer t {t}"), washer.as_ref());
    }
}

#[test]
fn aircraft_families_match_the_per_point_reference() {
    assert_families_match_reference(aircraft_families());
}

#[test]
fn car_families_match_the_per_point_reference() {
    assert_families_match_reference(car_families());
}

/// A solid that counts how it is asked: `[point by point, by the row]`.
struct Counted<S> {
    inner: S,
    asked: Arc<[AtomicUsize; 2]>,
}

impl<S> Counted<S> {
    fn new(inner: S) -> Self {
        Counted { inner, asked: Arc::default() }
    }
}

impl<S: Solid> Solid for Counted<S> {
    fn contains(&self, p: Vec3) -> bool {
        self.asked[0].fetch_add(1, Relaxed);
        self.inner.contains(p)
    }
    fn aabb(&self) -> Aabb {
        self.inner.aabb()
    }
    fn contains_row(&self, xs: &[f64], y: f64, z: f64, ask: u64) -> u64 {
        self.asked[1].fetch_add(1, Relaxed);
        self.inner.contains_row(xs, y, z, ask)
    }
    fn cover(&self, out: &mut Vec<Aabb>) {
        self.inner.cover(out)
    }
}

/// Rows `(y, z)` of `v`'s raster (one chunk: r ≤ 32) whose centers meet a
/// box of `s`'s padded cover, and those any of whose probes meet one.
fn rows_meeting_the_cover(s: &dyn Solid, v: &Voxelization) -> (usize, usize) {
    let [r, _, _] = v.grid.dims();
    assert!(r <= 32);
    let [xs, ys, zs] = [0, 1, 2].map(|a| axis_probes(v.origin[a], v.scale_factors[a], r));
    let cover = padded_cover(s);
    let meets = |y: usize, z: usize, kinds: &[usize]| {
        cover.iter().any(|b| {
            kinds.iter().any(|&kx| {
                kinds.iter().any(|&ky| {
                    kinds.iter().any(|&kz| {
                        xs[kx].iter().any(|&x| b.contains_point(Vec3::new(x, ys[ky][y], zs[kz][z])))
                    })
                })
            })
        })
    };
    let (mut centered, mut meeting) = (0, 0);
    for z in 0..r {
        for y in 0..r {
            centered += usize::from(meets(y, z, &[0]));
            meeting += usize::from(meets(y, z, &[0, 1, 2]));
        }
    }
    (centered, meeting)
}

/// Voxels of `v` whose cell meets `b`, and those whose center lies in it.
fn voxels_meeting(v: &Voxelization, b: &Aabb) -> (usize, usize) {
    let [r, _, _] = v.grid.dims();
    let half = v.scale_factors * 0.5;
    let (mut meeting, mut centered) = (0, 0);
    for z in 0..r {
        for y in 0..r {
            for x in 0..r {
                let c = v.voxel_center(x, y, z);
                meeting += usize::from(Aabb::new(c - half, c + half).intersects(b));
                centered += usize::from(b.contains_point(c));
            }
        }
    }
    (meeting, centered)
}

/// `union[second part, translated(leaf)]` under a counting root, voxelized
/// at `r`; returns the voxelization with the root's and the leaf's counts
/// as `(points, rows)`, and the rows of the raster that meet the root's
/// cover as [`rows_meeting_the_cover`] counts them.
fn voxelize_counted<S: Solid + 'static>(
    leaf: S,
    at: Vec3,
    r: usize,
) -> (Voxelization, [usize; 2], [usize; 2], (usize, usize)) {
    let leaf = Counted::new(leaf);
    let leaf_asked = leaf.asked.clone();
    let second =
        translated(Cuboid::new(Vec3::new(3.0, 0.5, 0.5)).boxed(), Vec3::new(0.0, -2.5, -2.5));
    let root = Counted::new(Union { parts: vec![second, translated(leaf.boxed(), at)] });
    let v = voxelize_solid(&root, r, NormalizeMode::Uniform);
    let load = |asked: &[AtomicUsize; 2]| [asked[0].load(Relaxed), asked[1].load(Relaxed)];
    let (root_asked, leaf_asked) = (load(&root.asked), load(&leaf_asked));
    let rows = rows_meeting_the_cover(&root, &v);
    (v, root_asked, leaf_asked, rows)
}

#[test]
fn probes_reach_a_leaf_only_inside_its_box_and_the_tree_by_the_row() {
    let at = Vec3::new(1.0, 1.5, 1.0);
    for r in [15usize, 30] {
        let ball = Sphere { radius: 1.0 };
        let ball_box = Aabb::from_center_half(at, Vec3::splat(1.0));
        let (v, root, leaf, (centered, meeting)) = voxelize_counted(ball, at, r);
        // The voxelizer enters the tree once per row of centers that meets
        // the cover and at most four times more for the row's sub-samples —
        // never by point, and never for a row off the cover.
        assert_eq!(root[0], 0, "r {r}: the tree was asked point by point");
        assert!(root[1] >= centered && root[1] <= 5 * meeting, "r {r}: {} rows", root[1]);
        assert!(
            centered > 0 && 2 * meeting < r * r,
            "r {r}: {centered} / {meeting} of {} rows",
            r * r
        );
        // Behind its `translated(..)` the leaf sees no row, and at most the
        // nine probes of every voxel its box meets (+ one row of voxels,
        // for a box face that rounds onto a cell face) — not 9·r³.
        let (meeting, _) = voxels_meeting(&v, &ball_box);
        assert_eq!(leaf[1], 0);
        assert!(leaf[0] > 0 && leaf[0] <= 9 * (meeting + r), "r {r}: {} probes", leaf[0]);
        assert!(9 * (meeting + r) < 9 * r * r * r / 8, "r {r}: the bound is no bound");
    }
}

#[test]
fn a_part_that_fills_its_box_is_asked_about_one_probe_a_voxel() {
    let at = Vec3::new(1.0, 1.5, 1.0);
    for r in [15usize, 30] {
        let block = Cuboid::new(Vec3::splat(1.0));
        let block_box = Aabb::from_center_half(at, Vec3::splat(1.0));
        let (v, _, leaf, _) = voxelize_counted(block, at, r);
        // A center in the box hits, and that voxel is done; only the
        // voxels the box's faces cut get sub-samples (eight at most).
        let (meeting, centered) = voxels_meeting(&v, &block_box);
        assert!(centered > 0 && leaf[0] >= centered, "r {r}: {} < {centered}", leaf[0]);
        assert!(leaf[0] <= centered + 8 * (meeting - centered), "r {r}: {} probes", leaf[0]);
        assert!(leaf[0] < 2 * meeting, "r {r}: {} probes for {meeting} voxels", leaf[0]);
    }
}
