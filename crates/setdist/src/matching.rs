//! The minimal matching distance on vector sets (Definition 6) and the
//! minimum Euclidean distance under permutation (Definition 4) derived
//! from it (Section 4.2).
//!
//! [`MinimalMatching::match_sets`] and [`MinimalMatching::distance_value`]
//! run the exact stage of [`MatchingEngine`]: its module docs state the
//! n × m layout every exact value is solved in.

use crate::engine::MatchingEngine;
use crate::hungarian::{self, CostMatrix};
use crate::lp;
use crate::metric::Distance;
use crate::simd;
use crate::types::VectorSet;

/// Result of a minimal-matching-distance computation.
#[derive(Debug, Clone)]
pub struct MatchOutcome {
    /// The distance value.
    pub cost: f64,
    /// Matched pairs `(index in first set, index in second set)`, sorted.
    pub pairs: Vec<(usize, usize)>,
    /// True iff the optimal matching is strictly cheaper than the
    /// identity matching (`x_i ↔ y_i`). This is the statistic behind the
    /// paper's Table 1 ("percentage of proper permutations").
    pub permutation_needed: bool,
}

/// The minimal matching distance `dist_mm^{w, dist}` (Definition 6),
/// computed in `O(k³)` with the Kuhn–Munkres algorithm, in one of the
/// paper's two instances: [`vector_set_model`](Self::vector_set_model)
/// or [`permutation_model`](Self::permutation_model).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MinimalMatching(Model);

/// The point distance, weight and final root of each instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Model {
    /// Euclidean point distance, weight `‖x‖₂`, the sum as it is.
    VectorSet,
    /// Squared Euclidean point distance, weight `‖x‖₂²`, the square
    /// root of the sum.
    Permutation,
}

impl MinimalMatching {
    /// The paper's *vector set model*: Euclidean point distance, weight
    /// `w(x) = ‖x‖₂` (ω = 0). A metric by Lemma 1 as long as no vector is
    /// the zero vector (covers always have volume). The weight
    /// `‖x − ω‖₂` of another ω is this model on both sets translated by
    /// −ω.
    pub const fn vector_set_model() -> Self {
        MinimalMatching(Model::VectorSet)
    }

    /// The *minimum Euclidean distance under permutation* of the
    /// one-vector model (Definition 4), via the matching distance with
    /// squared Euclidean point distance and squared-norm weights; the
    /// square root of the total is returned (Section 4.2).
    pub const fn permutation_model() -> Self {
        MinimalMatching(Model::Permutation)
    }

    /// The factor `f` of the extended-centroid bound
    /// `f · ‖C_{k,0}(X) − C_{k,0}(Y)‖₂ ≤ dist_mm(X, Y)` for sets of at
    /// most `k` elements: `k` for the vector set model (Lemma 2), `√k`
    /// for the permutation model. Pad both sets with zero vectors to `k`
    /// elements; the model's optimal matching π pairs them, an element
    /// matched to a zero vector paying its weight. Then
    /// `k · ‖ΔC‖ = ‖Σᵢ (xᵢ − y_π(i))‖ ≤ Σᵢ ‖xᵢ − y_π(i)‖`, the vector set
    /// distance, and by Cauchy–Schwarz
    /// `Σᵢ ‖xᵢ − y_π(i)‖ ≤ √k · (Σᵢ ‖xᵢ − y_π(i)‖²)^½`, √k times the
    /// permutation distance. The index scales every centroid distance by
    /// this factor, and [`crate::centroid_lower_bound`] does too.
    pub fn lemma2_factor(&self, k: usize) -> f64 {
        match self.0 {
            Model::VectorSet => k as f64,
            Model::Permutation => (k as f64).sqrt(),
        }
    }

    /// Whether the point distance and the weights are squared and the
    /// total is rooted (the permutation model).
    #[inline]
    pub(crate) fn squared(&self) -> bool {
        self.0 == Model::Permutation
    }

    /// The point distance. For `dim ≤ 8` — which covers both paper
    /// feature models — this routes through the fixed-reduction-order
    /// lane kernels of [`crate::simd`], so per-pair calls here, the
    /// engine's padded-row fill and the prepared weight tables all
    /// produce bit-identical values for the same vectors (see the module
    /// contract in `simd.rs`). Larger dimensions fall back to the
    /// sequential [`crate::lp`] sums.
    #[inline]
    pub(crate) fn point_distance(&self, a: &[f64], b: &[f64]) -> f64 {
        if a.len() <= simd::LANES && b.len() <= simd::LANES {
            return self.point_distance_lanes(&simd::pad(a), &simd::pad(b));
        }
        match self.0 {
            Model::VectorSet => lp::euclidean(a, b),
            Model::Permutation => lp::sq_euclidean(a, b),
        }
    }

    /// [`point_distance`](Self::point_distance) over pre-padded lane
    /// blocks (the engine's hot fill), bit-identical to it on the
    /// unpadded vectors.
    #[inline]
    pub(crate) fn point_distance_lanes(
        &self,
        a: &[f64; simd::LANES],
        b: &[f64; simd::LANES],
    ) -> f64 {
        match self.0 {
            Model::VectorSet => simd::l2_f64(a, b),
            Model::Permutation => simd::sq_l2_f64(a, b),
        }
    }

    /// The weight `w(x)` an unmatched element pays (Definition 6),
    /// through the lane kernels for `dim ≤ 8` like
    /// [`point_distance`](Self::point_distance).
    #[inline]
    pub(crate) fn weight(&self, x: &[f64]) -> f64 {
        if x.len() <= simd::LANES {
            return self.weight_row(&simd::pad(x));
        }
        match self.0 {
            Model::VectorSet => lp::norm(x),
            Model::Permutation => lp::sq_norm(x),
        }
    }

    /// [`weight`](Self::weight) from an already lane-padded row: the
    /// engine computes the big set's weight table straight from its
    /// padded rows. Bit-identical to `weight` on the unpadded point, as
    /// zero-padding is exact.
    #[inline]
    pub(crate) fn weight_row(&self, row: &[f64; simd::LANES]) -> f64 {
        match self.0 {
            Model::VectorSet => simd::norm_f64(row),
            Model::Permutation => simd::sq_norm_f64(row),
        }
    }

    /// The distance from the summed matching cost: the permutation
    /// model's square root restores the metric (Section 4.2).
    pub(crate) fn finish(&self, total: f64) -> f64 {
        match self.0 {
            Model::VectorSet => total,
            // Guard tiny negative rounding noise.
            Model::Permutation => total.max(0.0).sqrt(),
        }
    }

    /// The distance with the optimal matching itself and the
    /// permutation statistic: the engine's exact stage, plus the cost of
    /// the identity matching.
    pub fn match_sets(&self, x: &VectorSet, y: &VectorSet) -> MatchOutcome {
        let mut engine = MatchingEngine::new(*self);
        let (total, big_is_first, col_to_row) = engine.exact(x.into(), y.into());
        let mut pairs: Vec<(usize, usize)> = col_to_row
            .iter()
            .enumerate()
            .filter_map(|(i, &j)| j.map(|j| if big_is_first { (i, j) } else { (j, i) }))
            .collect();
        pairs.sort_unstable();

        // Identity matching cost for the permutation statistic: the
        // larger set's surplus elements pay their weights.
        let (big, small) = if big_is_first { (x, y) } else { (y, x) };
        let n = small.len();
        let mut id_cost = 0.0;
        for i in 0..n {
            id_cost += self.point_distance(big.get(i), small.get(i));
        }
        for v in big.iter().skip(n) {
            id_cost += self.weight(v);
        }

        MatchOutcome { cost: self.finish(total), pairs, permutation_needed: total < id_cost - 1e-9 }
    }

    /// The distance alone: the engine's unbounded
    /// [`distance`](MatchingEngine::distance).
    pub fn distance_value(&self, x: &VectorSet, y: &VectorSet) -> f64 {
        let mut engine = MatchingEngine::new(*self);
        engine.distance(x, y, f64::INFINITY).value().expect("unbounded solve cannot prune")
    }
}

impl Distance<VectorSet> for MinimalMatching {
    fn distance(&self, a: &VectorSet, b: &VectorSet) -> f64 {
        self.distance_value(a, b)
    }
}

/// Brute-force minimal matching distance by enumerating all injections of
/// the smaller set into the larger — `O(m!/(m-n)!)`; validation baseline
/// and the paper's "consider all possible permutations" strawman.
pub fn brute_force_matching_distance(mm: &MinimalMatching, x: &VectorSet, y: &VectorSet) -> f64 {
    assert_eq!(x.dim(), y.dim());
    let (big, small) = if x.len() >= y.len() { (x, y) } else { (y, x) };
    let m = big.len();
    let n = small.len();
    if m == 0 {
        return mm.finish(0.0);
    }
    let cost = CostMatrix::from_fn(m, m, |i, j| {
        if j < n {
            mm.point_distance(big.get(i), small.get(j))
        } else {
            mm.weight(big.get(i))
        }
    });
    mm.finish(hungarian::solve_brute_force(&cost).cost)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metric::check_metric_axioms;
    use proptest::prelude::*;

    fn vs(rows: &[&[f64]]) -> VectorSet {
        VectorSet::from_rows(rows[0].len(), rows)
    }

    #[test]
    fn identical_sets_have_zero_distance() {
        let x = vs(&[&[1.0, 2.0], &[3.0, 4.0], &[0.5, -1.0]]);
        let mm = MinimalMatching::vector_set_model();
        let out = mm.match_sets(&x, &x);
        assert!(out.cost.abs() < 1e-12);
        assert!(!out.permutation_needed);
        assert_eq!(out.pairs.len(), 3);
    }

    #[test]
    fn permutation_is_found() {
        // y is x with rows swapped; distance must be 0 via permutation.
        let x = vs(&[&[0.0, 0.0], &[10.0, 10.0]]);
        let y = vs(&[&[10.0, 10.0], &[0.0, 0.0]]);
        let mm = MinimalMatching::vector_set_model();
        let out = mm.match_sets(&x, &y);
        assert!(out.cost.abs() < 1e-12);
        assert!(out.permutation_needed);
        assert_eq!(out.pairs, vec![(0, 1), (1, 0)]);
    }

    #[test]
    fn unmatched_elements_pay_their_norm() {
        let x = vs(&[&[3.0, 4.0], &[1.0, 0.0]]);
        let y = vs(&[&[1.0, 0.0]]);
        let mm = MinimalMatching::vector_set_model();
        let out = mm.match_sets(&x, &y);
        // [1,0] matches exactly; [3,4] is unmatched and pays norm 5.
        assert!((out.cost - 5.0).abs() < 1e-12);
        assert_eq!(out.pairs, vec![(1, 0)]);
    }

    #[test]
    fn symmetry_including_unequal_cardinalities() {
        let x = vs(&[&[1.0, 1.0], &[2.0, 0.0], &[0.0, 3.0]]);
        let y = vs(&[&[1.5, 0.5]]);
        let mm = MinimalMatching::vector_set_model();
        let a = mm.distance_value(&x, &y);
        let b = mm.distance_value(&y, &x);
        assert!((a - b).abs() < 1e-12);
        // Pairs are indexed first set first, whichever set is larger.
        let out = mm.match_sets(&y, &x);
        assert_eq!(out.pairs.len(), 1);
        assert_eq!(out.pairs[0].0, 0);
        assert_eq!(a.to_bits(), out.cost.to_bits());
    }

    #[test]
    fn empty_set_distance_is_total_weight() {
        let x = vs(&[&[3.0, 4.0], &[0.0, 2.0]]);
        let y = VectorSet::new(2);
        let mm = MinimalMatching::vector_set_model();
        assert!((mm.distance_value(&x, &y) - 7.0).abs() < 1e-12);
        assert!(mm.distance_value(&y, &y).abs() < 1e-12);
    }

    #[test]
    fn permutation_model_equals_min_euclid_over_permutations() {
        // Equal-cardinality sets: enumerate permutations directly and
        // compare against Definition 4 computed via the matching distance.
        let x = vs(&[&[0.0, 0.0], &[2.0, 1.0], &[5.0, 5.0]]);
        let y = vs(&[&[4.5, 5.5], &[0.5, 0.0], &[2.0, 2.0]]);
        let mm = MinimalMatching::permutation_model();
        let got = mm.distance_value(&x, &y);

        // Brute force over all 3! pairings of full concatenated vectors.
        let idx = [0usize, 1, 2];
        let mut best = f64::INFINITY;
        let perms = [[0, 1, 2], [0, 2, 1], [1, 0, 2], [1, 2, 0], [2, 0, 1], [2, 1, 0]];
        for p in perms {
            let mut sq = 0.0;
            for (i, &pi) in p.iter().enumerate() {
                sq += lp::sq_euclidean(x.get(idx[i]), y.get(pi));
            }
            best = best.min(sq.sqrt());
        }
        assert!((got - best).abs() < 1e-9, "{got} vs {best}");
    }

    #[test]
    fn vector_set_model_is_a_metric_on_samples() {
        let sample = vec![
            vs(&[&[1.0, 0.0], &[0.0, 1.0]]),
            vs(&[&[2.0, 2.0]]),
            vs(&[&[1.0, 1.0], &[3.0, 0.5], &[0.5, 3.0]]),
            vs(&[&[0.1, 0.1]]),
            vs(&[&[4.0, 4.0], &[1.0, 2.0]]),
        ];
        let mm = MinimalMatching::vector_set_model();
        check_metric_axioms(&mm, &sample, 1e-9).unwrap();
    }

    #[test]
    fn permutation_model_is_a_metric_on_samples() {
        let sample = vec![
            vs(&[&[1.0, 0.0], &[0.0, 1.0]]),
            vs(&[&[2.0, 2.0], &[0.3, 0.4]]),
            vs(&[&[1.0, 1.0], &[3.0, 0.5], &[0.5, 3.0]]),
            vs(&[&[4.0, 4.0], &[1.0, 2.0]]),
        ];
        let mm = MinimalMatching::permutation_model();
        check_metric_axioms(&mm, &sample, 1e-9).unwrap();
    }

    proptest! {
        #[test]
        fn kuhn_munkres_equals_brute_force(
            xs in proptest::collection::vec(-5.0f64..5.0, 2 * 4),
            ys in proptest::collection::vec(-5.0f64..5.0, 2 * 2),
        ) {
            let x = VectorSet::from_flat(2, xs);
            let y = VectorSet::from_flat(2, ys);
            for mm in [MinimalMatching::vector_set_model(), MinimalMatching::permutation_model()] {
                let fast = mm.distance_value(&x, &y);
                let slow = brute_force_matching_distance(&mm, &x, &y);
                prop_assert!((fast - slow).abs() < 1e-9, "fast {fast} vs slow {slow}");
            }
        }

        #[test]
        fn triangle_inequality_vector_set_model(
            xs in proptest::collection::vec(0.1f64..5.0, 3 * 2),
            ys in proptest::collection::vec(0.1f64..5.0, 2 * 2),
            zs in proptest::collection::vec(0.1f64..5.0, 4 * 2),
        ) {
            let x = VectorSet::from_flat(2, xs);
            let y = VectorSet::from_flat(2, ys);
            let z = VectorSet::from_flat(2, zs);
            let mm = MinimalMatching::vector_set_model();
            let xy = mm.distance_value(&x, &y);
            let xz = mm.distance_value(&x, &z);
            let zy = mm.distance_value(&z, &y);
            prop_assert!(xy <= xz + zy + 1e-9);
        }

        #[test]
        fn distance_is_nonnegative_and_symmetric(
            xs in proptest::collection::vec(-3.0f64..3.0, 3 * 2),
            ys in proptest::collection::vec(-3.0f64..3.0, 5 * 2),
        ) {
            let x = VectorSet::from_flat(2, xs);
            let y = VectorSet::from_flat(2, ys);
            for mm in [MinimalMatching::vector_set_model(), MinimalMatching::permutation_model()] {
                let d = mm.distance_value(&x, &y);
                prop_assert!(d >= 0.0);
                prop_assert!((d - mm.distance_value(&y, &x)).abs() < 1e-9);
            }
        }
    }
}
