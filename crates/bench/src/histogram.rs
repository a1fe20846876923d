//! Shape histograms over an axis-parallel, equi-sized space partitioning
//! (Sections 3.1, 3.3.1 and 3.3.2): the volume and solid-angle models.
//!
//! The data space is divided into `p` grid cells per dimension; with `r`
//! voxels per dimension each cell covers `(r/p)³` voxels (`r/p` must be
//! integral so every voxel belongs to exactly one cell).

use vsim_geom::{Mat3, Vec3};
use vsim_voxel::VoxelGrid;

/// The resolution `r` of a cubic grid divisible into `p³` cells, and a
/// function from a voxel to the index of its cell.
fn partition(grid: &VoxelGrid, p: usize) -> (usize, impl Fn([usize; 3]) -> usize) {
    let [nx, ny, nz] = grid.dims();
    assert!(nx == ny && ny == nz, "histograms require a cubic grid");
    assert!(p > 0 && nx % p == 0, "r = {nx} must be a multiple of p = {p}");
    let s = nx / p;
    (nx, move |[x, y, z]: [usize; 3]| ((z / s) * p + (y / s)) * p + (x / s))
}

/// The volume model (Section 3.3.1): the `i`-th of `p³` features is the
/// number of object voxels in cell `i`, normalized by the cell capacity
/// `K = (r/p)³`.
pub(crate) fn volume_histogram(grid: &VoxelGrid, p: usize) -> Vec<f64> {
    let (r, cell_of) = partition(grid, p);
    let k = (r / p).pow(3) as f64;
    let mut f = vec![0.0; p * p * p];
    for v in grid.iter_set() {
        f[cell_of(v)] += 1.0;
    }
    for v in &mut f {
        *v /= k;
    }
    f
}

/// Offsets of the voxelized sphere kernel `K` of `radius` voxels
/// relative to its center.
fn kernel_offsets(radius: usize) -> Vec<[isize; 3]> {
    assert!(radius >= 1);
    let rad = radius as isize;
    let mut out = Vec::new();
    for dz in -rad..=rad {
        for dy in -rad..=rad {
            for dx in -rad..=rad {
                if dx * dx + dy * dy + dz * dz <= rad * rad {
                    out.push([dx, dy, dz]);
                }
            }
        }
    }
    out
}

/// Solid-angle value `SA(v̄) = |K_v̄ ∩ Vᵒ| / |K_v̄|` of the (surface) voxel
/// `v̄`: the share of the kernel centered on it inside the object.
fn solid_angle(grid: &VoxelGrid, [x, y, z]: [usize; 3], kernel: &[[isize; 3]]) -> f64 {
    let (xi, yi, zi) = (x as isize, y as isize, z as isize);
    let inside = kernel.iter().filter(|d| grid.get_i(xi + d[0], yi + d[1], zi + d[2])).count();
    inside as f64 / kernel.len() as f64
}

/// The solid-angle model (Section 3.3.2, after Connolly): the solid
/// angle measures local convexity (low SA) vs. concavity (high SA). Cell
/// features: the mean SA over the cell's surface voxels; `1` for cells
/// with only interior voxels; `0` for empty cells.
pub(crate) fn solid_angle_histogram(grid: &VoxelGrid, p: usize, kernel_radius: usize) -> Vec<f64> {
    let (_, cell_of) = partition(grid, p);
    let kernel = kernel_offsets(kernel_radius);
    let n_cells = p * p * p;
    let mut sa_sum = vec![0.0f64; n_cells];
    let mut surf_cnt = vec![0usize; n_cells];
    let mut vox_cnt = vec![0usize; n_cells];
    for v @ [x, y, z] in grid.iter_set() {
        let c = cell_of(v);
        vox_cnt[c] += 1;
        if grid.is_surface(x, y, z) {
            surf_cnt[c] += 1;
            sa_sum[c] += solid_angle(grid, v, &kernel);
        }
    }
    (0..n_cells)
        .map(|c| {
            if surf_cnt[c] > 0 {
                sa_sum[c] / surf_cnt[c] as f64 // cell type 1: mean SA
            } else if vox_cnt[c] > 0 {
                1.0 // cell type 2: interior only
            } else {
                0.0 // cell type 3: empty
            }
        })
        .collect()
}

/// Apply one of the 48 cube symmetries to a `p³`-bin histogram by
/// permuting its cells (cells transform exactly like coarse voxels, cf.
/// Figure 1's "cells can be regarded as coarse voxels"): Definition 2's
/// transform minimization for the histogram models without
/// re-voxelizing.
pub(crate) fn permute_histogram(f: &[f64], p: usize, m: &Mat3) -> Vec<f64> {
    assert_eq!(f.len(), p * p * p, "histogram length must be p^3");
    let c = (p as f64 - 1.0) / 2.0;
    let mut out = vec![0.0; f.len()];
    for z in 0..p {
        for y in 0..p {
            for x in 0..p {
                let q = *m * Vec3::new(x as f64 - c, y as f64 - c, z as f64 - c);
                let [qx, qy, qz] = [q.x, q.y, q.z].map(|v| (v + c).round() as usize);
                out[(qz * p + qy) * p + qx] = f[(z * p + y) * p + x];
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn filled(r: usize, lo: usize, hi: usize) -> VoxelGrid {
        let mut g = VoxelGrid::cubic(r);
        for z in lo..hi {
            for y in lo..hi {
                for x in lo..hi {
                    g.set(x, y, z, true);
                }
            }
        }
        g
    }

    #[test]
    fn volume_model_counts_normalized() {
        // 8^3 grid, p = 2 -> 8 cells of 4^3 = 64 voxels. Fill one octant.
        let g = filled(8, 0, 4);
        let f = volume_histogram(&g, 2);
        assert_eq!(f.len(), 8);
        assert_eq!(f[0], 1.0);
        assert_eq!(f.iter().sum::<f64>(), 1.0);
    }

    #[test]
    fn volume_model_partial_cells() {
        // Fill a 2-voxel slab: cell 0 gets 2*4*4 = 32 of 64 voxels.
        let mut g = VoxelGrid::cubic(8);
        for z in 0..4 {
            for y in 0..4 {
                for x in 0..2 {
                    g.set(x, y, z, true);
                }
            }
        }
        let f = volume_histogram(&g, 2);
        assert_eq!(f[0], 0.5);
        assert!(f[1..].iter().all(|&v| v == 0.0));
    }

    #[test]
    fn volume_model_feature_count_scales_with_p() {
        let g = filled(12, 0, 12);
        assert_eq!(volume_histogram(&g, 1).len(), 1);
        assert_eq!(volume_histogram(&g, 3).len(), 27);
        assert_eq!(volume_histogram(&g, 6).len(), 216);
    }

    #[test]
    #[should_panic]
    fn volume_model_requires_divisible_resolution() {
        let g = filled(10, 0, 10);
        let _ = volume_histogram(&g, 3);
    }

    #[test]
    fn kernel_is_a_discrete_ball() {
        let k = kernel_offsets(3);
        // Contains the center and the axis extremes.
        assert!(k.contains(&[0, 0, 0]));
        assert!(k.contains(&[3, 0, 0]));
        assert!(!k.contains(&[3, 1, 0])); // 10 > 9
                                          // Symmetric.
        for d in &k {
            assert!(k.contains(&[-d[0], -d[1], -d[2]]));
        }
    }

    #[test]
    fn solid_angle_flat_face_is_half() {
        // Voxel on a large flat face: half the kernel is inside.
        let g = filled(16, 0, 8); // slab filling z < 8... actually cube [0,8)^3
        let kernel = kernel_offsets(2);
        // A face-center voxel of the cube (far from edges): (4, 4, 7).
        // The discrete kernel includes the center plane entirely, so the
        // half-space value is biased above 0.5 for small radii:
        // 23/33 ≈ 0.70 for radius 2.
        let sa = solid_angle(&g, [4, 4, 7], &kernel);
        assert!(sa > 0.5 && sa < 0.8, "flat-face SA = {sa}");
    }

    #[test]
    fn solid_angle_corner_convex_vs_notch_concave() {
        // Convex corner of a cube: SA well below 0.5.
        let g = filled(16, 2, 14);
        let kernel = kernel_offsets(2);
        let corner = solid_angle(&g, [2, 2, 2], &kernel);
        let face = solid_angle(&g, [8, 8, 2], &kernel);
        assert!(corner < 0.4, "convex corner SA = {corner}");
        assert!(corner < face, "corner {corner} must be more convex than face {face}");

        // Concave notch: cube minus a small bite; voxel at the bottom of
        // the notch sees most of the kernel filled.
        let mut notched = filled(16, 2, 14);
        for z in 12..14 {
            for y in 7..9 {
                for x in 7..9 {
                    notched.set(x, y, z, false);
                }
            }
        }
        let bottom = solid_angle(&notched, [7, 7, 11], &kernel);
        assert!(bottom > 0.6, "concave notch SA = {bottom}");
        assert!(bottom > corner);
    }

    #[test]
    fn solid_angle_cell_types() {
        // Object = 6^3 block in a 12^3 grid with p = 2: all 8 cells
        // contain surface voxels of the block except... use p = 3 to get
        // empty and interior-only cells.
        let g = filled(12, 0, 8);
        let f = solid_angle_histogram(&g, 3, 2);
        assert_eq!(f.len(), 27);
        // Cell (2,2,2) (far corner) is empty -> 0.
        assert_eq!(f[(2 * 3 + 2) * 3 + 2], 0.0);
        // Cell (0,0,0): corner sub-block [0,4)^3 of the object, touching
        // the object surface at x=0,y=0,z=0 faces? Those are grid-border
        // faces of the object -> surface voxels -> mean SA in (0,1).
        let v = f[0];
        assert!(v > 0.0 && v < 1.0, "cell 0 feature {v}");
        // Cell (1,1,1) covers voxels [4,8)^3: contains the object corner
        // region around (7,7,7) -> has surface voxels, SA in (0,1).
        let v2 = f[(3 + 1) * 3 + 1];
        assert!(v2 > 0.0 && v2 < 1.0);
    }

    #[test]
    fn solid_angle_interior_only_cell_is_one() {
        // Big block filling everything: with p=3 and r=12 the central
        // cell [4,8)^3 has no surface voxel (surface is at the grid hull).
        let g = filled(12, 0, 12);
        let f = solid_angle_histogram(&g, 3, 2);
        assert_eq!(f[(3 + 1) * 3 + 1], 1.0);
    }

    #[test]
    fn permuted_histogram_matches_rotated_grid() {
        use vsim_voxel::rotate_grid;
        // Asymmetric object so the permutation is non-trivial.
        let mut g = filled(12, 0, 5);
        for x in 0..12 {
            g.set(x, 0, 11, true);
        }
        let f = volume_histogram(&g, 3);
        for m in Mat3::cube_symmetries().iter().step_by(5) {
            let direct = volume_histogram(&rotate_grid(&g, m), 3);
            let permuted = permute_histogram(&f, 3, m);
            for (a, b) in direct.iter().zip(&permuted) {
                assert!((a - b).abs() < 1e-12, "mismatch under {m:?}");
            }
        }
    }

    #[test]
    fn permutation_is_invertible() {
        let f: Vec<f64> = (0..27).map(|i| i as f64).collect();
        let m = Mat3::rot_z(std::f64::consts::FRAC_PI_2);
        let fwd = permute_histogram(&f, 3, &m);
        let back = permute_histogram(&fwd, 3, &m.transpose());
        assert_eq!(f, back);
    }

    #[test]
    fn empty_grid_gives_zero_histograms() {
        let g = VoxelGrid::cubic(8);
        assert!(volume_histogram(&g, 2).iter().all(|&v| v == 0.0));
        assert!(solid_angle_histogram(&g, 2, 2).iter().all(|&v| v == 0.0));
    }
}
