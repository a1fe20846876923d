//! Rotation / reflection handling on voxel grids (Section 3.2).
//!
//! CAD similarity must be invariant under translation and rotation while
//! reflection and scaling invariance stay tunable. Objects are stored
//! normalized (see [`crate::voxelize`]); at query time the 24 axis-aligned
//! 90°-rotations — optionally extended by reflections to 48 symmetries —
//! are applied to the query representation and the minimum distance is
//! taken (Definition 2). This module applies those symmetries directly to
//! grids and implements the principal-axis transform for the
//! non-axis-aligned case.

use crate::grid::VoxelGrid;
use vsim_geom::{Mat3, Vec3};

/// The set of poses considered by Definition 2's transform set `T`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GridPose {
    /// Only the identity (no invariance).
    Identity,
    /// The 24 axis-aligned 90°-rotations.
    Rotations24,
    /// The 24 rotations combined with reflection: 48 symmetries.
    Symmetries48,
}

impl GridPose {
    /// The transform matrices of this pose set.
    pub fn matrices(self) -> Vec<Mat3> {
        match self {
            GridPose::Identity => vec![Mat3::IDENTITY],
            GridPose::Rotations24 => Mat3::cube_rotations(),
            GridPose::Symmetries48 => Mat3::cube_symmetries(),
        }
    }
}

/// Apply a signed permutation matrix (one of the 48 cube symmetries) to a
/// cubic grid. Voxel centers are mapped through the grid center, which is
/// exact for these matrices — no resampling loss.
///
/// Panics unless every entry of `m` is −1, 0 or 1 with one non-zero per
/// row and column: any other matrix maps a voxel off the grid or between
/// voxels (use [`resample_rotated`] for those).
pub fn rotate_grid(grid: &VoxelGrid, m: &Mat3) -> VoxelGrid {
    let [nx, ny, nz] = grid.dims();
    assert!(nx == ny && ny == nz, "rotate_grid requires a cubic grid");
    let col = |j: usize| m.rows.map(|row| row[j]);
    let one_unit = |v: [f64; 3]| {
        v.iter().all(|&e| e == 0.0 || e.abs() == 1.0)
            && v.iter().filter(|&&e| e != 0.0).count() == 1
    };
    assert!(
        (0..3).all(|i| one_unit(m.rows[i]) && one_unit(col(i))),
        "rotate_grid requires a signed permutation matrix, got {m:?}"
    );
    let r = nx;
    let c = (r as f64 - 1.0) / 2.0;
    let mut out = VoxelGrid::cubic(r);
    for [x, y, z] in grid.iter_set() {
        let p = Vec3::new(x as f64 - c, y as f64 - c, z as f64 - c);
        // `q` is `p` permuted with signs flipped: each `q + c` is a whole
        // number in `0..r`.
        let q = *m * p;
        let at = |v: f64| (v + c).round() as usize;
        out.set(at(q.x), at(q.y), at(q.z), true);
    }
    out
}

/// Rotation matrix aligning the object's principal axes with the
/// coordinate axes (largest variance along x). This is the principal-axis
/// transform the paper suggests for full (non-90°) rotation invariance.
/// Returns `None` for empty grids.
pub fn pca_rotation(grid: &VoxelGrid) -> Option<Mat3> {
    let cov = grid.covariance()?;
    let (_vals, vecs) = cov.eigen_symmetric();
    // `vecs` columns are the principal axes; its transpose maps them onto
    // the coordinate axes. Enforce a proper rotation (det +1).
    let mut rot = vecs.transpose();
    if rot.determinant() < 0.0 {
        for j in 0..3 {
            rot.rows[2][j] = -rot.rows[2][j];
        }
    }
    Some(rot)
}

/// Resample a cubic grid through an arbitrary rotation about its center
/// (nearest-neighbor, inverse mapping so no holes appear).
pub fn resample_rotated(grid: &VoxelGrid, m: &Mat3) -> VoxelGrid {
    let [nx, ny, nz] = grid.dims();
    assert!(nx == ny && ny == nz, "resample_rotated requires a cubic grid");
    let r = nx;
    let c = (r as f64 - 1.0) / 2.0;
    let inv = m.transpose(); // rotations: inverse = transpose
    let mut out = VoxelGrid::cubic(r);
    for z in 0..r {
        for y in 0..r {
            for x in 0..r {
                let p = Vec3::new(x as f64 - c, y as f64 - c, z as f64 - c);
                let q = inv * p;
                let sx = (q.x + c).round() as isize;
                let sy = (q.y + c).round() as isize;
                let sz = (q.z + c).round() as isize;
                if grid.get_i(sx, sy, sz) {
                    out.set(x, y, z, true);
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn l_shape(r: usize) -> VoxelGrid {
        let mut g = VoxelGrid::cubic(r);
        for x in 0..r {
            g.set(x, 0, 0, true);
        }
        for y in 0..r / 2 {
            g.set(0, y, 0, true);
        }
        g
    }

    #[test]
    fn identity_rotation_is_noop() {
        let g = l_shape(8);
        assert_eq!(rotate_grid(&g, &Mat3::IDENTITY), g);
    }

    #[test]
    fn rotations_preserve_voxel_count() {
        let g = l_shape(7);
        for m in Mat3::cube_symmetries() {
            assert_eq!(rotate_grid(&g, &m).count(), g.count());
        }
    }

    #[test]
    fn rotations_compose() {
        let g = l_shape(6);
        let ms = Mat3::cube_rotations();
        let a = &ms[5];
        let b = &ms[17];
        let ab = *a * *b;
        assert_eq!(rotate_grid(&rotate_grid(&g, b), a), rotate_grid(&g, &ab));
    }

    #[test]
    fn rotation_inverse_roundtrips() {
        let g = l_shape(9);
        for m in Mat3::cube_symmetries() {
            let back = m.transpose(); // orthogonal
            assert_eq!(rotate_grid(&rotate_grid(&g, &m), &back), g);
        }
    }

    #[test]
    fn the_24_rotations_of_an_asymmetric_object_are_distinct() {
        let g = l_shape(8);
        let rots: Vec<_> = Mat3::cube_rotations().iter().map(|m| rotate_grid(&g, m)).collect();
        for i in 0..rots.len() {
            for j in (i + 1)..rots.len() {
                assert_ne!(rots[i], rots[j], "rotations {i} and {j} coincide");
            }
        }
    }

    #[test]
    fn reflection_differs_from_all_rotations_for_chiral_object() {
        // A chiral tetromino-like shape: no rotation equals its mirror image.
        let mut g = VoxelGrid::cubic(6);
        for p in [[0, 0, 0], [1, 0, 0], [2, 0, 0], [2, 1, 0], [2, 1, 1]] {
            g.set(p[0], p[1], p[2], true);
        }
        let reflected = rotate_grid(&g, &Mat3::reflect_x());
        let rotations_of_g: Vec<_> =
            Mat3::cube_rotations().iter().map(|m| rotate_grid(&g, m)).collect();
        let reflections_match = Mat3::cube_rotations()
            .iter()
            .map(|m| rotate_grid(&reflected, m))
            .any(|rg| rotations_of_g.contains(&rg));
        assert!(!reflections_match, "object is not chiral as intended");
    }

    #[test]
    #[should_panic(expected = "rotate_grid requires a signed permutation matrix")]
    fn rotate_grid_refuses_a_rotation_off_the_cube_axes() {
        // Once wrapped (0, 7, 4) into (7, 5, 4) in a release build.
        let mut g = VoxelGrid::cubic(8);
        g.set(0, 7, 4, true);
        rotate_grid(&g, &Mat3::rot_z(0.3));
    }

    #[test]
    fn rotate_grid_refuses_every_matrix_but_a_signed_permutation() {
        let g = l_shape(4);
        let refused = |rows: [[f64; 3]; 3]| {
            std::panic::catch_unwind(|| rotate_grid(&g, &Mat3::new(rows))).is_err()
        };
        assert!(refused([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 2.0]])); // a scale
        assert!(refused([[1.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])); // a column twice
        assert!(refused([[1.0, 1.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])); // a shear
        assert!(refused([[0.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])); // a zero row
        assert!(refused([[f64::NAN, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]));
        assert!(!refused([[0.0, -1.0, 0.0], [0.0, 0.0, 1.0], [-1.0, 0.0, 0.0]]));
    }

    #[test]
    fn pose_sets_have_expected_sizes() {
        assert_eq!(GridPose::Identity.matrices().len(), 1);
        assert_eq!(GridPose::Rotations24.matrices().len(), 24);
        assert_eq!(GridPose::Symmetries48.matrices().len(), 48);
    }

    #[test]
    fn pca_aligns_a_diagonal_rod() {
        // Rod along the main diagonal: after PCA alignment its extent
        // along x must dominate.
        // 2-voxel-thick rod so nearest-neighbor resampling cannot alias
        // it away entirely.
        let r = 16;
        let mut g = VoxelGrid::cubic(r);
        for i in 0..r {
            for [dx, dy, dz] in [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]] {
                let (x, y, z) = ((i + dx).min(r - 1), (i + dy).min(r - 1), (i + dz).min(r - 1));
                g.set(x, y, z, true);
            }
        }
        let rot = pca_rotation(&g).unwrap();
        let aligned = resample_rotated(&g, &rot);
        let (min, max) = aligned.occupied_bounds().unwrap();
        let ext = [max[0] - min[0], max[1] - min[1], max[2] - min[2]];
        assert!(ext[0] >= 2 * ext[1].max(ext[2]), "extents {ext:?}");
    }

    #[test]
    fn pca_rotation_is_proper() {
        let g = l_shape(10);
        let rot = pca_rotation(&g).unwrap();
        assert!((rot.determinant() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn resample_identity_is_noop() {
        let g = l_shape(8);
        assert_eq!(resample_rotated(&g, &Mat3::IDENTITY), g);
    }

    mod property {
        use super::*;
        use proptest::prelude::*;

        fn arb_grid(r: usize) -> impl Strategy<Value = VoxelGrid> {
            proptest::collection::vec(proptest::bool::ANY, r * r * r).prop_map(move |bits| {
                let mut g = VoxelGrid::cubic(r);
                let mut i = 0;
                for z in 0..r {
                    for y in 0..r {
                        for x in 0..r {
                            if bits[i] {
                                g.set(x, y, z, true);
                            }
                            i += 1;
                        }
                    }
                }
                g
            })
        }

        proptest! {
            #[test]
            fn rotation_roundtrip_and_count(g in arb_grid(6), sym in 0usize..48) {
                let m = Mat3::cube_symmetries()[sym];
                let rotated = rotate_grid(&g, &m);
                prop_assert_eq!(rotated.count(), g.count());
                prop_assert_eq!(rotate_grid(&rotated, &m.transpose()), g);
            }

            #[test]
            fn rotation_preserves_surface_count(g in arb_grid(6), sym in 0usize..24) {
                // Surface classification commutes with grid symmetry.
                let m = Mat3::cube_rotations()[sym];
                let a = rotate_grid(&g.surface(), &m);
                let b = rotate_grid(&g, &m).surface();
                prop_assert_eq!(a, b);
            }

            #[test]
            fn xor_count_invariant_under_rotation(
                a in arb_grid(5),
                b in arb_grid(5),
                sym in 0usize..48,
            ) {
                // The symmetric volume difference is pose-invariant when
                // both grids rotate together.
                let m = Mat3::cube_symmetries()[sym];
                prop_assert_eq!(
                    rotate_grid(&a, &m).xor_count(&rotate_grid(&b, &m)),
                    a.xor_count(&b)
                );
            }
        }
    }
}
