//! The extended centroid filter (Definitions 7/8 and Lemma 2).
//!
//! The key query-acceleration result of Section 4.3: for vector sets of
//! cardinality ≤ `k` with weight function `w_ω(x) = ‖x − ω‖`,
//!
//! ```text
//! k · ‖C_{k,ω}(X) − C_{k,ω}(Y)‖₂  ≤  dist_mm(X, Y)
//! ```
//!
//! so the 6-dimensional extended centroids can be indexed with a
//! conventional spatial index (the paper uses an X-tree) and an ε-range
//! query only needs to refine objects whose centroid lies within `ε / k`
//! of the query centroid. The factor is the model's
//! [`MinimalMatching::lemma2_factor`]: `k` for the vector set model,
//! `√k` for the permutation model (by Cauchy–Schwarz).

use crate::lp;
use crate::matching::MinimalMatching;
use crate::types::VectorSet;

/// The extended centroid `C_{k,ω}(X) = (Σ xᵢ + (k − |X|)·ω) / k`
/// (Definition 8). Requires `|X| ≤ k`.
pub fn extended_centroid(x: &VectorSet, k: usize, omega: &[f64]) -> Vec<f64> {
    assert!(x.len() <= k, "set cardinality {} exceeds k = {k}", x.len());
    assert_eq!(omega.len(), x.dim());
    let mut c = x.sum();
    let missing = (k - x.len()) as f64;
    for (ci, oi) in c.iter_mut().zip(omega) {
        *ci = (*ci + missing * oi) / k as f64;
    }
    c
}

/// The filter distance `f · ‖C_{k,0}(X) − C_{k,0}(Y)‖₂`, with `f` the
/// model's [`lemma2_factor`](MinimalMatching::lemma2_factor): a lower
/// bound of `mm`'s distance for sets of at most `k` elements (Lemma 2).
pub fn centroid_lower_bound(mm: &MinimalMatching, cx: &[f64], cy: &[f64], k: usize) -> f64 {
    mm.lemma2_factor(k) * lp::euclidean(cx, cy)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn models() -> [MinimalMatching; 2] {
        [MinimalMatching::vector_set_model(), MinimalMatching::permutation_model()]
    }

    #[test]
    fn centroid_of_full_set_is_mean() {
        let x = VectorSet::from_rows(2, &[&[1.0, 2.0], &[3.0, 4.0]]);
        let c = extended_centroid(&x, 2, &[0.0, 0.0]);
        assert_eq!(c, vec![2.0, 3.0]);
    }

    #[test]
    fn centroid_pads_with_omega() {
        let x = VectorSet::from_rows(2, &[&[3.0, 3.0]]);
        let c = extended_centroid(&x, 3, &[0.0, 0.0]);
        assert_eq!(c, vec![1.0, 1.0]);
        let c2 = extended_centroid(&x, 3, &[3.0, 3.0]);
        assert_eq!(c2, vec![3.0, 3.0]);
    }

    #[test]
    fn lower_bound_is_zero_for_identical_sets() {
        let x = VectorSet::from_rows(2, &[&[1.0, 0.5], &[2.0, 2.0]]);
        let c = extended_centroid(&x, 4, &[0.0, 0.0]);
        for mm in models() {
            assert_eq!(centroid_lower_bound(&mm, &c, &c, 4), 0.0);
        }
    }

    /// The factor `k` is tight for the vector set model and `√k` for the
    /// permutation model: `k` copies of `v` against `k` zero vectors.
    #[test]
    fn each_factor_is_attained() {
        let k = 4;
        let x = VectorSet::from_rows(2, &[&[3.0, 4.0][..]; 4]);
        let zero = VectorSet::from_rows(2, &[&[0.0, 0.0][..]; 4]);
        let (cx, c0) =
            (extended_centroid(&x, k, &[0.0; 2]), extended_centroid(&zero, k, &[0.0; 2]));
        for mm in models() {
            assert_eq!(centroid_lower_bound(&mm, &cx, &c0, k), mm.distance_value(&x, &zero));
        }
    }

    proptest! {
        /// Each model's centroid bound never exceeds its exact distance:
        /// `k · ‖ΔC‖` for the vector set model (Lemma 2), `√k · ‖ΔC‖` for
        /// the permutation model. Every cardinality from 0 to `k`, n < m
        /// and n = m, sets near the origin and up to 1e6 from it, where
        /// the tolerance follows the coordinates' rounding.
        #[test]
        fn centroid_bound_holds_for_each_model(
            coords in proptest::collection::vec(-4.0f64..4.0, 2 * 7 * 6),
            nx in 0usize..=7,
            ny in 0usize..=7,
            same_size in proptest::bool::ANY,
            slack in 0usize..=2,
            at in 0usize..5,
        ) {
            let offset = [0.0, 1.0, 1e2, 1e4, 1e6][at];
            let ny = if same_size { nx } else { ny };
            let k = nx.max(ny).max(1) + slack;
            let shifted = |v: &[f64]| v.iter().map(|c| c + offset).collect::<Vec<f64>>();
            let x = VectorSet::from_flat(6, shifted(&coords[..6 * nx]));
            let y = VectorSet::from_flat(6, shifted(&coords[6 * 7..6 * (7 + ny)]));
            let (cx, cy) = (extended_centroid(&x, k, &[0.0; 6]), extended_centroid(&y, k, &[0.0; 6]));
            let tol = 1e-9 + 64.0 * f64::EPSILON * k as f64 * offset;
            for mm in models() {
                let exact = mm.distance_value(&x, &y);
                let lb = centroid_lower_bound(&mm, &cx, &cy, k);
                prop_assert!(lb <= exact + tol,
                    "{mm:?}, {nx} v {ny}, k {k}, offset {offset}: bound {lb} > exact {exact}");
            }
        }

        /// The bound also holds with a non-zero ω. The `w_ω` distance is
        /// the vector set model on both sets translated by −ω, since
        /// `C_{k,ω}(X) − ω = C_{k,0}(X − ω)`.
        #[test]
        fn lemma2_with_nonzero_omega(
            xs in proptest::collection::vec(-4.0f64..4.0, 6),
            ys in proptest::collection::vec(-4.0f64..4.0, 4),
        ) {
            let x = VectorSet::from_flat(2, xs);
            let y = VectorSet::from_flat(2, ys);
            let k = 3;
            let omega = vec![10.0, -10.0]; // outside the data domain
            let minus_omega = |s: &VectorSet| {
                VectorSet::from_flat(2, s.iter().flat_map(|v| [v[0] - omega[0], v[1] - omega[1]]).collect())
            };
            let mm = MinimalMatching::vector_set_model();
            let exact = mm.distance_value(&minus_omega(&x), &minus_omega(&y));
            let cx = extended_centroid(&x, k, &omega);
            let cy = extended_centroid(&y, k, &omega);
            prop_assert!(centroid_lower_bound(&mm, &cx, &cy, k) <= exact + 1e-9);
        }
    }
}
