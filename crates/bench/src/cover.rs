//! The one-vector cover sequence model (Section 3.3.3): an object's
//! covers, in the order the greedy search found them, as one
//! `6k`-dimensional feature vector.

use vsim_features::cover::transform_cover_vector;
use vsim_geom::Mat3;
use vsim_setdist::VectorSet;

/// `set`'s covers flattened in order and padded to `6k` values with
/// dummy covers `C₀` ("an initial empty cover at the zero point"), six
/// zeros each. `set` is a vector set of at most `k` covers, as
/// `ProcessedDataset::vector_sets(k)` returns it.
pub fn cover_vector(set: &VectorSet, k: usize) -> Vec<f64> {
    assert!(set.dim() == 6 && set.len() <= k, "not a vector set of at most {k} covers");
    let mut f = set.flat().to_vec();
    f.resize(6 * k, 0.0);
    f
}

/// Transform a `6k`-dimensional one-vector representation cover by cover
/// (Definition 2 in feature space). Dummy covers (all six values zero)
/// stay dummies.
pub fn transform_feature_vector(f: &[f64], m: &Mat3) -> Vec<f64> {
    assert_eq!(f.len() % 6, 0);
    let mut out = Vec::with_capacity(f.len());
    for c in f.chunks_exact(6) {
        if c.iter().all(|&x| x == 0.0) {
            out.extend_from_slice(c);
        } else {
            out.extend_from_slice(&transform_cover_vector(c, m));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use vsim_features::{greedy_cover_sequence, VectorSetModel};
    use vsim_voxel::VoxelGrid;

    fn block(r: usize, min: [usize; 3], max: [usize; 3]) -> VoxelGrid {
        let mut g = VoxelGrid::cubic(r);
        for z in min[2]..max[2] {
            for y in min[1]..max[1] {
                for x in min[0]..max[0] {
                    g.set(x, y, z, true);
                }
            }
        }
        g
    }

    #[test]
    fn feature_vector_layout_and_dummies() {
        let g = block(10, [2, 2, 2], [8, 8, 8]);
        let f = cover_vector(&VectorSetModel::new(4).extract(&g), 4);
        assert_eq!(f.len(), 24);
        // First cover: center (5,5,5) = raster center -> position 0,
        // extent (6,6,6)/10.
        assert_eq!(&f[0..6], &[0.0, 0.0, 0.0, 0.6, 0.6, 0.6]);
        // Remaining covers are dummies (zeros).
        assert!(f[6..].iter().all(|&v| v == 0.0));
    }

    #[test]
    fn vector_set_and_feature_vector_share_the_same_covers() {
        let mut g = block(12, [0, 0, 0], [5, 5, 5]);
        g.union_with(&block(12, [6, 6, 6], [12, 12, 12]));
        let vs = VectorSetModel::new(5).from_sequence(&greedy_cover_sequence(&g, 5));
        let fv = cover_vector(&vs, 5);
        for (i, v) in vs.iter().enumerate() {
            assert_eq!(&fv[6 * i..6 * i + 6], v);
        }
    }

    #[test]
    fn feature_vector_transform_preserves_dummies() {
        let f = vec![0.1, 0.2, -0.1, 0.2, 0.4, 0.6, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0];
        let t = transform_feature_vector(&f, &Mat3::rot_z(std::f64::consts::FRAC_PI_2));
        assert_eq!(&t[6..], &f[6..]);
        // Extents permuted: x <-> y.
        assert!((t[3] - 0.4).abs() < 1e-9);
        assert!((t[4] - 0.2).abs() < 1e-9);
        assert!((t[5] - 0.6).abs() < 1e-9);
    }
}
