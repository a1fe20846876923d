//! The comparison distances on point sets surveyed by Eiter & Mannila
//! \[12\] and discussed in Section 4.2: Hausdorff, sum of minimum
//! distances, (fair) surjection, and link distance.
//!
//! The paper rejects these for CAD retrieval — the Hausdorff distance
//! "relies too much on the extreme positions", the others "are not
//! metric" — but they are the natural baselines for any set-distance
//! study, so the bench crate keeps exact implementations next to their
//! one caller, `exp_ablation_distances`, which quantifies the paper's
//! argument; `vsim-setdist` ships only the matching distance.

use crate::flow::MinCostFlow;
use vsim_setdist::{hungarian, lp, VectorSet};

/// Hausdorff distance: `max( max_x min_y d(x,y), max_y min_x d(x,y) )`.
/// A metric on non-empty compact sets, but dominated by outliers.
pub fn hausdorff(x: &VectorSet, y: &VectorSet) -> f64 {
    assert!(!x.is_empty() && !y.is_empty(), "Hausdorff requires non-empty sets");
    let one_sided = |a: &VectorSet, b: &VectorSet| {
        a.iter()
            .map(|p| b.iter().map(|q| lp::euclidean(p, q)).fold(f64::INFINITY, f64::min))
            .fold(0.0, f64::max)
    };
    one_sided(x, y).max(one_sided(y, x))
}

/// Sum of minimum distances:
/// `1/2 ( Σ_x min_y d(x,y) + Σ_y min_x d(x,y) )` — not a metric (no
/// triangle inequality), cheap and intuitive.
pub fn sum_of_min_distances(x: &VectorSet, y: &VectorSet) -> f64 {
    assert!(!x.is_empty() && !y.is_empty(), "SMD requires non-empty sets");
    let one_sided = |a: &VectorSet, b: &VectorSet| -> f64 {
        a.iter().map(|p| b.iter().map(|q| lp::euclidean(p, q)).fold(f64::INFINITY, f64::min)).sum()
    };
    0.5 * (one_sided(x, y) + one_sided(y, x))
}

/// Surjection distance: minimum total cost over surjective mappings from
/// the larger set onto the smaller. Exact via the Hungarian algorithm:
/// in an optimal surjection each element beyond one "representative" per
/// target independently maps to its individually-cheapest target, so the
/// problem reduces to an assignment with `m - n` free columns priced at
/// the row minimum.
pub fn surjection(x: &VectorSet, y: &VectorSet) -> f64 {
    surjection_with(x, y, &mut hungarian::Workspace::default())
}

/// [`surjection`] with a caller-owned solver workspace: the cost matrix
/// is filled flat and solved over the slice, so repeated calls (e.g. a
/// baseline sweep over all object pairs) amortize the solver buffers.
pub fn surjection_with(x: &VectorSet, y: &VectorSet, ws: &mut hungarian::Workspace) -> f64 {
    assert!(!x.is_empty() && !y.is_empty(), "surjection requires non-empty sets");
    let (big, small) = if x.len() >= y.len() { (x, y) } else { (y, x) };
    let m = big.len();
    let n = small.len();
    // Square m × m: the first n columns are point distances, the rest
    // are "free" columns priced at the row minimum (each surplus source
    // maps to its individually-cheapest target).
    let mut cost = vec![0.0; m * m];
    for i in 0..m {
        let row = &mut cost[i * m..(i + 1) * m];
        let mut row_min = f64::INFINITY;
        for (j, slot) in row.iter_mut().take(n).enumerate() {
            *slot = lp::euclidean(big.get(i), small.get(j));
            row_min = row_min.min(*slot);
        }
        for slot in row.iter_mut().skip(n) {
            *slot = row_min;
        }
    }
    hungarian::solve_cost_slice(m, m, &cost, ws)
}

/// Fair surjection distance: like [`surjection`] but every target must
/// receive either `⌊m/n⌋` or `⌈m/n⌉` sources. Solved exactly as a
/// min-cost transportation problem with lower bounds (encoded by a large
/// negative bonus on the mandatory units).
pub fn fair_surjection(x: &VectorSet, y: &VectorSet) -> f64 {
    assert!(!x.is_empty() && !y.is_empty(), "fair surjection requires non-empty sets");
    let (big, small) = if x.len() >= y.len() { (x, y) } else { (y, x) };
    let m = big.len();
    let n = small.len();
    let q = m / n; // lower bound per target
    let r = m % n; // targets receiving one extra

    // Big-M bonus dominating any achievable cost difference.
    let max_d = (0..m)
        .flat_map(|i| (0..n).map(move |j| (i, j)))
        .map(|(i, j)| lp::euclidean(big.get(i), small.get(j)))
        .fold(0.0, f64::max);
    let big_m = max_d * (m as f64 + 1.0) + 1.0;

    let source = 0;
    let sink = 1;
    let xoff = 2;
    let yoff = 2 + m;
    let mut net = MinCostFlow::new(2 + m + n);
    for i in 0..m {
        net.add_edge(source, xoff + i, 1, 0.0);
        for j in 0..n {
            net.add_edge(xoff + i, yoff + j, 1, lp::euclidean(big.get(i), small.get(j)));
        }
    }
    for j in 0..n {
        // Mandatory q units carry the big negative bonus so any feasible
        // optimum saturates them; up to one extra unit at true cost.
        if q > 0 {
            net.add_edge(yoff + j, sink, q as i64, -big_m);
        }
        net.add_edge(yoff + j, sink, 1, 0.0);
    }
    let (flow, cost) = net.min_cost_flow(source, sink, m as i64);
    assert_eq!(flow as usize, m, "fair surjection network must be feasible");
    // Remove the bonuses: all n*q mandatory units were saturated.
    let _ = r;
    cost + big_m * (n * q) as f64
}

/// Link distance: minimum total weight of a set of edges covering every
/// element of both sets (minimum-weight edge cover of the complete
/// bipartite distance graph). Exact via the classic reduction to
/// min-weight bipartite matching on reduced costs
/// `r(x,y) = d(x,y) − min_x − min_y`.
pub fn link_distance(x: &VectorSet, y: &VectorSet) -> f64 {
    assert!(!x.is_empty() && !y.is_empty(), "link distance requires non-empty sets");
    let m = x.len();
    let n = y.len();
    let d = |i: usize, j: usize| lp::euclidean(x.get(i), y.get(j));
    let min_x: Vec<f64> =
        (0..m).map(|i| (0..n).map(|j| d(i, j)).fold(f64::INFINITY, f64::min)).collect();
    let min_y: Vec<f64> =
        (0..n).map(|j| (0..m).map(|i| d(i, j)).fold(f64::INFINITY, f64::min)).collect();
    let base: f64 = min_x.iter().sum::<f64>() + min_y.iter().sum::<f64>();

    // Min-weight matching over negative reduced costs only.
    let source = 0;
    let sink = 1;
    let xoff = 2;
    let yoff = 2 + m;
    let mut net = MinCostFlow::new(2 + m + n);
    let mut any = false;
    for (i, &mxi) in min_x.iter().enumerate() {
        let mut attached = false;
        for (j, &myj) in min_y.iter().enumerate() {
            let r = d(i, j) - mxi - myj;
            if r < -1e-15 {
                net.add_edge(xoff + i, yoff + j, 1, r);
                attached = true;
            }
        }
        if attached {
            net.add_edge(source, xoff + i, 1, 0.0);
            any = true;
        }
    }
    for j in 0..n {
        net.add_edge(yoff + j, sink, 1, 0.0);
    }
    if !any {
        return base;
    }
    let (_, gain) = net.min_cost_flow_while_negative(source, sink, m.min(n) as i64);
    base + gain
}

/// Brute-force link distance by enumerating all edge subsets — only for
/// validating [`link_distance`] on tiny instances.
pub fn link_distance_brute(x: &VectorSet, y: &VectorSet) -> f64 {
    let m = x.len();
    let n = y.len();
    assert!(m * n <= 16, "brute force limited to 16 candidate edges");
    let mut best = f64::INFINITY;
    let edges: Vec<(usize, usize, f64)> = (0..m)
        .flat_map(|i| (0..n).map(move |j| (i, j)))
        .map(|(i, j)| (i, j, lp::euclidean(x.get(i), y.get(j))))
        .collect();
    for mask in 1u32..(1 << edges.len()) {
        let mut cx = vec![false; m];
        let mut cy = vec![false; n];
        let mut cost = 0.0;
        for (b, e) in edges.iter().enumerate() {
            if mask & (1 << b) != 0 {
                cx[e.0] = true;
                cy[e.1] = true;
                cost += e.2;
            }
        }
        if cx.iter().all(|&c| c) && cy.iter().all(|&c| c) {
            best = best.min(cost);
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn vs(rows: &[&[f64]]) -> VectorSet {
        VectorSet::from_rows(rows[0].len(), rows)
    }

    #[test]
    fn hausdorff_known_values() {
        let x = vs(&[&[0.0, 0.0], &[1.0, 0.0]]);
        let y = vs(&[&[0.0, 0.0], &[5.0, 0.0]]);
        // x->y: max(0, min(|1-0|,|1-5|)=1) = 1 ; y->x: max(0, 4) = 4.
        assert!((hausdorff(&x, &y) - 4.0).abs() < 1e-12);
        assert!(hausdorff(&x, &x).abs() < 1e-12);
    }

    #[test]
    fn hausdorff_dominated_by_outlier() {
        // The paper's critique: one extreme point controls the distance.
        let x = vs(&[&[0.0, 0.0], &[1.0, 1.0], &[2.0, 0.0]]);
        let mut y_rows: Vec<Vec<f64>> = x.iter().map(|r| r.to_vec()).collect();
        y_rows.push(vec![100.0, 100.0]);
        let y = VectorSet::from_rows(2, &y_rows.iter().map(|v| v.as_slice()).collect::<Vec<_>>());
        assert!(hausdorff(&x, &y) > 100.0);
    }

    #[test]
    fn smd_basic() {
        let x = vs(&[&[0.0], &[2.0]]);
        let y = vs(&[&[0.0], &[3.0]]);
        // x->y: 0 + 1 ; y->x: 0 + 1 ; smd = 0.5 * 2 = 1.
        assert!((sum_of_min_distances(&x, &y) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn smd_violates_triangle_inequality() {
        // Known failure mode: a small intermediate "hub" set collapses
        // both sums because each side only pays its nearest neighbor.
        let x = vs(&[&[0.0], &[1.0]]);
        let y = vs(&[&[2.0], &[3.0]]);
        let z = vs(&[&[1.5]]);
        let xy = sum_of_min_distances(&x, &y);
        let xz = sum_of_min_distances(&x, &z);
        let zy = sum_of_min_distances(&z, &y);
        assert!(xy > xz + zy + 1e-9, "expected triangle violation: {xy} vs {}", xz + zy);
    }

    #[test]
    fn surjection_equal_cardinality_is_assignment() {
        let x = vs(&[&[0.0, 0.0], &[5.0, 5.0]]);
        let y = vs(&[&[5.0, 5.0], &[0.0, 0.0]]);
        assert!(surjection(&x, &y).abs() < 1e-12);
    }

    #[test]
    fn surjection_spreads_extras_to_their_cheapest_target() {
        let x = vs(&[&[0.0], &[0.1], &[10.0]]);
        let y = vs(&[&[0.0], &[10.0]]);
        // Representatives: 0->0 (0), 10->10 (0); extra 0.1 -> nearest (0.1).
        assert!((surjection(&x, &y) - 0.1).abs() < 1e-12);
    }

    #[test]
    fn fair_surjection_forces_balance() {
        // 4 sources near y0, targets y0 and y1 far away: fair surjection
        // must send 2 sources to the far target.
        let x = vs(&[&[0.0], &[0.1], &[0.2], &[0.3]]);
        let y = vs(&[&[0.0], &[10.0]]);
        let fair = fair_surjection(&x, &y);
        let free = surjection(&x, &y);
        assert!(fair > free, "fair {fair} must exceed free {free}");
        // Two sources must travel ~10; cheapest choice sends 0.2 and 0.3.
        assert!((fair - (0.1 + 9.8 + 9.7)).abs() < 1e-9, "fair = {fair}");
    }

    #[test]
    fn fair_surjection_equal_split() {
        let x = vs(&[&[0.0], &[1.0], &[10.0], &[11.0]]);
        let y = vs(&[&[0.5], &[10.5]]);
        assert!((fair_surjection(&x, &y) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn link_distance_simple() {
        let x = vs(&[&[0.0], &[10.0]]);
        let y = vs(&[&[1.0]]);
        // Cover: (0,y)=1 and (10,y)=9 -> 10.
        assert!((link_distance(&x, &y) - 10.0).abs() < 1e-9);
    }

    proptest! {
        #[test]
        fn link_matches_brute_force(
            xs in proptest::collection::vec(0.0f64..10.0, 3),
            ys in proptest::collection::vec(0.0f64..10.0, 3),
        ) {
            let x = VectorSet::from_flat(1, xs);
            let y = VectorSet::from_flat(1, ys);
            let fast = link_distance(&x, &y);
            let slow = link_distance_brute(&x, &y);
            prop_assert!((fast - slow).abs() < 1e-9, "fast {fast} vs slow {slow}");
        }

        #[test]
        fn surjection_bounds(
            xs in proptest::collection::vec(0.0f64..10.0, 4 * 2),
            ys in proptest::collection::vec(0.0f64..10.0, 2 * 2),
        ) {
            let x = VectorSet::from_flat(2, xs);
            let y = VectorSet::from_flat(2, ys);
            let free = surjection(&x, &y);
            let fair = fair_surjection(&x, &y);
            // Fair surjection is a constrained version of surjection.
            prop_assert!(fair >= free - 1e-9);
            // Both are symmetric in our formulation.
            prop_assert!((surjection(&y, &x) - free).abs() < 1e-9);
        }

        #[test]
        fn hausdorff_and_smd_symmetry(
            xs in proptest::collection::vec(-5.0f64..5.0, 3 * 2),
            ys in proptest::collection::vec(-5.0f64..5.0, 4 * 2),
        ) {
            let x = VectorSet::from_flat(2, xs);
            let y = VectorSet::from_flat(2, ys);
            prop_assert!((hausdorff(&x, &y) - hausdorff(&y, &x)).abs() < 1e-9);
            prop_assert!((sum_of_min_distances(&x, &y) - sum_of_min_distances(&y, &x)).abs() < 1e-9);
        }
    }
}
