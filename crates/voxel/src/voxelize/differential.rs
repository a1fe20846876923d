//! Differential tests of the row-at-a-time voxelizer against the
//! per-point loop it replaced, and the counts that pin what a row saves:
//! how often the voxelizer enters the CSG tree, and how many probes reach
//! a leaf behind a `translated(..)`.

use super::*;
use rand::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
use std::sync::Arc;
use vsim_datagen::greeble::standard_greebles;
use vsim_datagen::{aircraft::aircraft_families, car::car_families, Family};
use vsim_geom::solid::{translated, Cuboid, SolidExt, Sphere, Union};
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

/// Every family, greebled as `build_dataset` greebles it, at the paper's
/// two rasters and at two that cross the 32-voxel chunk, in both modes.
fn assert_families_match_reference(families: Vec<Family>) {
    for (fi, family) in families.iter().enumerate() {
        for seed in 0..8u64 {
            let mut rng = StdRng::seed_from_u64(seed * 0x9e37_79b9 + fi as u64);
            let solid = standard_greebles((family.gen)(&mut rng), &mut rng);
            for r in [15, 30, 33, 70] {
                for mode in [NormalizeMode::Uniform, NormalizeMode::PerAxis] {
                    let got = voxelize_solid(solid.as_ref(), r, mode);
                    let want = reference_voxelize_solid(solid.as_ref(), r, mode);
                    assert!(
                        got.grid == want.grid,
                        "{} seed {seed} r {r} {mode:?}: {} voxels differ",
                        family.name,
                        got.grid.xor_count(&want.grid)
                    );
                    assert_eq!(got.origin, want.origin);
                    assert_eq!(got.scale_factors, want.scale_factors);
                }
            }
        }
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
/// as `(points, rows)`.
fn voxelize_counted<S: Solid + 'static>(
    leaf: S,
    at: Vec3,
    r: usize,
) -> (Voxelization, [usize; 2], [usize; 2]) {
    let leaf = Counted::new(leaf);
    let leaf_asked = leaf.asked.clone();
    let second =
        translated(Cuboid::new(Vec3::new(3.0, 0.5, 0.5)).boxed(), Vec3::new(0.0, -2.5, -2.5));
    let root = Counted::new(Union { parts: vec![second, translated(leaf.boxed(), at)] });
    let v = voxelize_solid(&root, r, NormalizeMode::Uniform);
    let load = |asked: &[AtomicUsize; 2]| [asked[0].load(Relaxed), asked[1].load(Relaxed)];
    (v, load(&root.asked), load(&leaf_asked))
}

#[test]
fn probes_reach_a_leaf_only_inside_its_box_and_the_tree_by_the_row() {
    let at = Vec3::new(1.0, 1.5, 1.0);
    for r in [15usize, 30] {
        let ball = Sphere { radius: 1.0 };
        let ball_box = Aabb::from_center_half(at, Vec3::splat(1.0));
        let (v, root, leaf) = voxelize_counted(ball, at, r);
        // The voxelizer enters the tree once per row of centers and at
        // most four times more for the row's sub-samples — never by point.
        assert_eq!(root[0], 0, "r {r}: the tree was asked point by point");
        assert!(root[1] >= r * r && root[1] <= 5 * r * r, "r {r}: {} rows", root[1]);
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
        let (v, _, leaf) = voxelize_counted(block, at, r);
        // A center in the box hits, and that voxel is done; only the
        // voxels the box's faces cut get sub-samples (eight at most).
        let (meeting, centered) = voxels_meeting(&v, &block_box);
        assert!(centered > 0 && leaf[0] >= centered, "r {r}: {} < {centered}", leaf[0]);
        assert!(leaf[0] <= centered + 8 * (meeting - centered), "r {r}: {} probes", leaf[0]);
        assert!(leaf[0] < 2 * meeting, "r {r}: {} probes for {meeting} voxels", leaf[0]);
    }
}
