//! The minimal matching distance on vector sets (Definition 6) and the
//! minimum Euclidean distance under permutation (Definition 4) derived
//! from it (Section 4.2).
//!
//! Definition 6 pads the smaller set with weight slots to a square
//! problem. [`MinimalMatching::match_sets`] solves the same matching as
//! an n × m problem instead: row j is element j of the smaller set,
//! column i element i of the larger, and with n < m the entry is
//! `d(big_i, small_j) − w(big_i)` (a matched element does not pay its
//! weight), so only the n real choices are made. The value is then
//! summed from the matching in big-element order, `d` for a matched
//! element and `w` for an unmatched one: the sum the square layout
//! forms. `MatchingEngine` builds the same slice, so both agree bit for
//! bit.

use crate::hungarian::{self, CostMatrix, Workspace};
use crate::lp;
use crate::metric::Distance;
use crate::simd;
use crate::types::VectorSet;

/// Point distance used inside the matching.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PointDistance {
    /// Plain Euclidean distance — the *vector set model* of the paper.
    Euclidean,
    /// Squared Euclidean — yields the squared minimum Euclidean distance
    /// under permutation (take the square root to restore the metric).
    SquaredEuclidean,
    /// Manhattan distance (extension).
    Manhattan,
}

impl PointDistance {
    /// Evaluate the point distance (used by the matching kernels).
    ///
    /// For `dim ≤ 8` — which covers both paper feature models — this
    /// routes through the fixed-reduction-order lane kernels of
    /// [`crate::simd`], so per-pair calls here, the engine's padded-row
    /// fill and the prepared weight tables all produce bit-identical
    /// values for the same vectors (see the module contract in
    /// `simd.rs`). Larger dimensions fall back to the sequential
    /// [`crate::lp`] sums.
    #[inline]
    pub fn eval(self, a: &[f64], b: &[f64]) -> f64 {
        if a.len() <= simd::LANES && b.len() <= simd::LANES {
            let (pa, pb) = (simd::pad(a), simd::pad(b));
            return match self {
                PointDistance::Euclidean => simd::l2_f64(&pa, &pb),
                PointDistance::SquaredEuclidean => simd::sq_l2_f64(&pa, &pb),
                PointDistance::Manhattan => simd::l1_f64(&pa, &pb),
            };
        }
        match self {
            PointDistance::Euclidean => lp::euclidean(a, b),
            PointDistance::SquaredEuclidean => lp::sq_euclidean(a, b),
            PointDistance::Manhattan => lp::manhattan(a, b),
        }
    }

    /// Evaluate over pre-padded lane blocks (the engine's hot fill) —
    /// bit-identical to [`PointDistance::eval`] on the unpadded vectors.
    #[inline]
    pub(crate) fn eval_lanes(self, a: &[f64; simd::LANES], b: &[f64; simd::LANES]) -> f64 {
        match self {
            PointDistance::Euclidean => simd::l2_f64(a, b),
            PointDistance::SquaredEuclidean => simd::sq_l2_f64(a, b),
            PointDistance::Manhattan => simd::l1_f64(a, b),
        }
    }

    /// The `f32` filter-precision twin of [`PointDistance::eval_lanes`].
    #[inline]
    pub(crate) fn eval_lanes_f32(self, a: &[f32; simd::LANES], b: &[f32; simd::LANES]) -> f32 {
        match self {
            PointDistance::Euclidean => simd::l2_f32(a, b),
            PointDistance::SquaredEuclidean => simd::sq_l2_f32(a, b),
            PointDistance::Manhattan => simd::l1_f32(a, b),
        }
    }
}

/// Weight function `w` for unmatched elements (Definition 6).
#[derive(Debug, Clone, PartialEq)]
pub enum WeightFunction {
    /// `w_ω(x) = ‖x − ω‖₂` (Definition 7). The paper chooses `ω = 0`.
    DistanceTo(Vec<f64>),
    /// `w(x) = ‖x‖₂` — shorthand for `DistanceTo(0)`.
    Norm,
    /// `w(x) = ‖x‖₂²` — pairs with [`PointDistance::SquaredEuclidean`].
    SqNorm,
    /// Constant penalty (extension; metric only if it dominates half the
    /// point diameter, cf. Lemma 1).
    Constant(f64),
}

impl WeightFunction {
    /// Evaluate the unmatched-element weight (used by the matching
    /// kernels and [`crate::engine::PreparedSet`]). Routed through the
    /// lane kernels for `dim ≤ 8`, like [`PointDistance::eval`].
    #[inline]
    pub fn eval(&self, x: &[f64]) -> f64 {
        if x.len() <= simd::LANES {
            return match self {
                WeightFunction::DistanceTo(w) if w.len() <= simd::LANES => {
                    simd::l2_f64(&simd::pad(x), &simd::pad(w))
                }
                WeightFunction::DistanceTo(w) => lp::euclidean(x, w),
                WeightFunction::Norm => simd::norm_f64(&simd::pad(x)),
                WeightFunction::SqNorm => simd::sq_norm_f64(&simd::pad(x)),
                WeightFunction::Constant(c) => *c,
            };
        }
        match self {
            WeightFunction::DistanceTo(w) => lp::euclidean(x, w),
            WeightFunction::Norm => lp::norm(x),
            WeightFunction::SqNorm => lp::sq_norm(x),
            WeightFunction::Constant(c) => *c,
        }
    }

    /// [`WeightFunction::eval`] from an already lane-padded row: the
    /// engine computes the big set's weight table straight from its
    /// padded rows, skipping the per-point pad. Bit-identical to `eval`
    /// on the unpadded point — same lane kernels, and zero-padding is
    /// exact. Caller guarantees `dim ≤ LANES` (so any `DistanceTo`
    /// anchor fits a lane block too).
    #[inline]
    pub(crate) fn eval_row(&self, row: &[f64; simd::LANES]) -> f64 {
        match self {
            WeightFunction::DistanceTo(w) => simd::l2_f64(row, &simd::pad(w)),
            WeightFunction::Norm => simd::norm_f64(row),
            WeightFunction::SqNorm => simd::sq_norm_f64(row),
            WeightFunction::Constant(c) => *c,
        }
    }
}

/// Result of a minimal-matching-distance computation.
#[derive(Debug, Clone)]
pub struct MatchOutcome {
    /// The distance value.
    pub cost: f64,
    /// Matched pairs `(index in first set, index in second set)`.
    pub pairs: Vec<(usize, usize)>,
    /// Indices of unmatched elements of the *larger* set, and which set
    /// they belong to (`0` = first argument, `1` = second).
    pub unmatched: Vec<usize>,
    pub unmatched_side: u8,
    /// True iff the optimal matching is strictly cheaper than the
    /// identity matching (`x_i ↔ y_i`). This is the statistic behind the
    /// paper's Table 1 ("percentage of proper permutations").
    pub permutation_needed: bool,
}

/// Reusable buffers for [`MinimalMatching::match_sets_with`]: the flat
/// cost matrix, the larger set's weights, the Hungarian solver
/// workspace and the matching. One scratch amortizes every per-call
/// allocation of the solve.
#[derive(Debug, Default)]
pub struct MatchScratch {
    cost: Vec<f64>,
    weights: Vec<f64>,
    ws: Workspace,
    col_to_row: Vec<Option<usize>>,
}

/// The minimal matching distance `dist_mm^{w, dist}` (Definition 6),
/// computed in `O(k³)` with the Kuhn–Munkres algorithm.
#[derive(Debug, Clone)]
pub struct MinimalMatching {
    pub point_distance: PointDistance,
    pub weight: WeightFunction,
    /// Take the square root of the matched sum (used by the
    /// permutation-distance instantiation to restore the metric,
    /// Section 4.2).
    pub sqrt_of_total: bool,
}

impl MinimalMatching {
    /// The paper's *vector set model*: Euclidean point distance, weight
    /// `w(x) = ‖x‖₂` (ω = 0). A metric by Lemma 1 as long as no vector is
    /// the zero vector (covers always have volume).
    pub fn vector_set_model() -> Self {
        MinimalMatching {
            point_distance: PointDistance::Euclidean,
            weight: WeightFunction::Norm,
            sqrt_of_total: false,
        }
    }

    /// The *minimum Euclidean distance under permutation* of the
    /// one-vector model (Definition 4), via the matching distance with
    /// squared Euclidean point distance and squared-norm weights; the
    /// square root of the total is returned (Section 4.2).
    pub fn permutation_model() -> Self {
        MinimalMatching {
            point_distance: PointDistance::SquaredEuclidean,
            weight: WeightFunction::SqNorm,
            sqrt_of_total: true,
        }
    }

    /// Full outcome including the matching itself.
    pub fn match_sets(&self, x: &VectorSet, y: &VectorSet) -> MatchOutcome {
        self.match_sets_with(x, y, &mut MatchScratch::default())
    }

    /// [`MinimalMatching::match_sets`] with caller-owned scratch: zero
    /// steady-state allocations beyond the returned [`MatchOutcome`].
    pub fn match_sets_with(
        &self,
        x: &VectorSet,
        y: &VectorSet,
        scratch: &mut MatchScratch,
    ) -> MatchOutcome {
        assert_eq!(x.dim(), y.dim(), "vector sets of different dimension");
        // Orient so that `big` is the larger set (its surplus elements pay
        // the weight penalty), per Definition 6 (w.l.o.g. |X| >= |Y|).
        let (big, small, big_is_first) =
            if x.len() >= y.len() { (x, y, true) } else { (y, x, false) };
        let m = big.len();
        let n = small.len();

        // The n × m problem of the module docs. With n = 0 nothing is
        // solved and every element is unmatched.
        let MatchScratch { cost, weights, ws, col_to_row } = scratch;
        weights.clear();
        if n < m {
            weights.extend(big.iter().map(|v| self.weight.eval(v)));
        }
        cost.clear();
        for j in 0..n {
            let sj = small.get(j);
            cost.extend(big.iter().map(|bi| self.point_distance.eval(bi, sj)));
            if n < m {
                for (c, &w) in cost[j * m..].iter_mut().zip(weights.iter()) {
                    *c -= w;
                }
            }
        }
        hungarian::solve_slice_into(n, m, cost, ws, col_to_row);

        // The value is summed from the matching in big-element order —
        // `d` for a matched element, `w` for an unmatched one — never
        // from the shifted entries.
        let mut sol_cost = 0.0;
        let mut pairs = Vec::with_capacity(n);
        let mut unmatched = Vec::with_capacity(m - n);
        for (i, &j) in col_to_row.iter().enumerate() {
            match j {
                Some(j) => {
                    sol_cost += if n == m {
                        cost[j * m + i]
                    } else {
                        self.point_distance.eval(big.get(i), small.get(j))
                    };
                    pairs.push(if big_is_first { (i, j) } else { (j, i) });
                }
                None => {
                    sol_cost += weights[i];
                    unmatched.push(i);
                }
            }
        }
        pairs.sort_unstable();

        // Identity matching cost for the permutation statistic.
        let mut id_cost = 0.0;
        for i in 0..n {
            id_cost += self.point_distance.eval(big.get(i), small.get(i));
        }
        for &w in weights.iter().skip(n) {
            id_cost += w;
        }
        let permutation_needed = sol_cost < id_cost - 1e-9;

        MatchOutcome {
            cost: self.finish(sol_cost),
            pairs,
            unmatched,
            unmatched_side: if big_is_first { 0 } else { 1 },
            permutation_needed,
        }
    }

    /// Distance value only.
    pub fn distance_value(&self, x: &VectorSet, y: &VectorSet) -> f64 {
        self.match_sets(x, y).cost
    }

    /// Alias for [`MinimalMatching::match_sets`] kept short in examples.
    pub fn distance(&self, x: &VectorSet, y: &VectorSet) -> MatchOutcome {
        self.match_sets(x, y)
    }

    pub(crate) fn finish(&self, total: f64) -> f64 {
        if self.sqrt_of_total {
            // Guard tiny negative rounding noise.
            total.max(0.0).sqrt()
        } else {
            total
        }
    }
}

impl Distance<VectorSet> for MinimalMatching {
    fn distance(&self, a: &VectorSet, b: &VectorSet) -> f64 {
        self.distance_value(a, b)
    }
}

/// Partial similarity (Section 4.1): compare only the `i` best-matching
/// vector pairs of the two sets — "where it is only necessary to compare
/// the closest `i < k` vectors of a set". Computes the full minimum
/// weight perfect matching, then sums the `i` cheapest matched pair
/// distances (unmatched elements and the remaining pairs are ignored).
///
/// Not a metric (partial comparisons cannot satisfy the triangle
/// inequality in general) — intended for exploratory partial-similarity
/// queries, exactly as the paper sketches.
pub fn partial_matching_distance(
    mm: &MinimalMatching,
    x: &VectorSet,
    y: &VectorSet,
    i: usize,
) -> f64 {
    assert!(i >= 1, "partial similarity needs at least one pair");
    let out = mm.match_sets(x, y);
    let mut pair_costs: Vec<f64> =
        out.pairs.iter().map(|&(a, b)| mm.point_distance.eval(x.get(a), y.get(b))).collect();
    pair_costs.sort_by(|a, b| a.total_cmp(b));
    let total: f64 = pair_costs.iter().take(i).sum();
    mm.finish(total)
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
            mm.point_distance.eval(big.get(i), small.get(j))
        } else {
            mm.weight.eval(big.get(i))
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
        assert_eq!(out.unmatched, vec![0]);
        assert_eq!(out.unmatched_side, 0);
    }

    #[test]
    fn symmetry_including_unequal_cardinalities() {
        let x = vs(&[&[1.0, 1.0], &[2.0, 0.0], &[0.0, 3.0]]);
        let y = vs(&[&[1.5, 0.5]]);
        let mm = MinimalMatching::vector_set_model();
        let a = mm.distance_value(&x, &y);
        let b = mm.distance_value(&y, &x);
        assert!((a - b).abs() < 1e-12);
        let out = mm.match_sets(&y, &x);
        assert_eq!(out.unmatched_side, 1);
        assert_eq!(out.unmatched.len(), 2);
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

    #[test]
    fn partial_similarity_uses_the_closest_pairs() {
        let mm = MinimalMatching::vector_set_model();
        // Two matched pairs with costs 0.1 and 5.0.
        let x = vs(&[&[0.0, 0.0], &[10.0, 0.0]]);
        let y = vs(&[&[0.1, 0.0], &[15.0, 0.0]]);
        let d1 = partial_matching_distance(&mm, &x, &y, 1);
        let d2 = partial_matching_distance(&mm, &x, &y, 2);
        assert!((d1 - 0.1).abs() < 1e-12);
        assert!((d2 - 5.1).abs() < 1e-12);
        assert!(d1 <= d2);
    }

    #[test]
    fn partial_similarity_ignores_unmatched_surplus() {
        let mm = MinimalMatching::vector_set_model();
        // x has a big surplus element that full matching penalizes but
        // partial similarity ignores.
        let x = vs(&[&[1.0, 0.0], &[100.0, 100.0]]);
        let y = vs(&[&[1.0, 0.0]]);
        let full = mm.distance_value(&x, &y);
        let partial = partial_matching_distance(&mm, &x, &y, 1);
        assert!(partial < 1e-12);
        assert!(full > 100.0);
    }

    proptest! {
        #[test]
        fn partial_similarity_is_monotone_in_i(
            xs in proptest::collection::vec(0.1f64..5.0, 4 * 2),
            ys in proptest::collection::vec(0.1f64..5.0, 4 * 2),
        ) {
            let mm = MinimalMatching::vector_set_model();
            let x = VectorSet::from_flat(2, xs);
            let y = VectorSet::from_flat(2, ys);
            let mut prev = 0.0;
            for i in 1..=4 {
                let d = partial_matching_distance(&mm, &x, &y, i);
                prop_assert!(d >= prev - 1e-12, "i={i}: {d} < {prev}");
                prev = d;
            }
            // Full-pair partial distance never exceeds the full matching
            // distance (which adds unmatched weights).
            prop_assert!(prev <= mm.distance_value(&x, &y) + 1e-9);
        }

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
