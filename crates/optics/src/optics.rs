//! The OPTICS cluster-ordering algorithm.

use crate::pairwise::CondensedDistanceMatrix;

/// OPTICS parameters.
#[derive(Debug, Clone, Copy)]
pub struct Optics {
    /// Neighborhood density requirement (the paper's evaluation uses
    /// whole-database orderings; typical values 2–10).
    pub min_pts: usize,
    /// Generating distance ε. `f64::INFINITY` yields the complete
    /// hierarchical ordering.
    pub eps: f64,
}

impl Default for Optics {
    fn default() -> Self {
        Optics { min_pts: 5, eps: f64::INFINITY }
    }
}

/// The output of OPTICS: a linear ordering of the objects with, for each
/// position, the *reachability distance* to its predecessors (undefined —
/// `f64::INFINITY` — for the first object of each connected component)
/// and the *core distance*.
#[derive(Debug, Clone)]
pub struct ClusterOrdering {
    /// Object indices in output order.
    pub order: Vec<usize>,
    /// `reachability[i]` belongs to `order[i]`.
    pub reachability: Vec<f64>,
    /// `core_distance[i]` belongs to `order[i]`.
    pub core_distance: Vec<f64>,
}

impl ClusterOrdering {
    pub fn len(&self) -> usize {
        self.order.len()
    }

    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }
}

impl Optics {
    /// Run OPTICS over a precomputed condensed distance matrix (build it
    /// with [`crate::pairwise_tiled`]). Distances are read in place and
    /// must be symmetric and non-negative.
    ///
    /// Each step processes the unprocessed object with the least
    /// `(reachability, index)`. A new connected component starts exactly
    /// when that least reachability is undefined (`f64::INFINITY`), and
    /// then at the lowest unprocessed index. This is the order a seed
    /// min-heap would pop in: a stale heap entry always carries a larger
    /// reachability than the live one. NaN distances never join an
    /// ε-neighbourhood's core distance but still receive the core
    /// distance as their reachability.
    ///
    /// # Panics
    ///
    /// If `min_pts` is 0.
    pub fn run_matrix(&self, m: &CondensedDistanceMatrix) -> ClusterOrdering {
        assert!(self.min_pts >= 1, "Optics::min_pts must be at least 1 (the object itself)");
        let n = m.len();
        let mut processed = vec![false; n];
        let mut reach = vec![f64::INFINITY; n];
        let mut out = ClusterOrdering {
            order: Vec::with_capacity(n),
            reachability: Vec::with_capacity(n),
            core_distance: Vec::with_capacity(n),
        };
        let mut row = vec![0.0f64; n];
        let mut within = Vec::with_capacity(n);

        for _ in 0..n {
            // `min_by` keeps the first of equal minima: the lowest index.
            let p = (0..n)
                .filter(|&o| !processed[o])
                .min_by(|&a, &b| reach[a].total_cmp(&reach[b]))
                .expect("one object is left per step");
            processed[p] = true;
            m.row_into(p, &mut row);

            // Core distance: MinPts-th smallest distance among the
            // ε-neighborhood (including p itself, following [3]).
            within.clear();
            within.extend(row.iter().copied().filter(|&d| d <= self.eps));
            let core = if within.len() >= self.min_pts {
                *within.select_nth_unstable_by(self.min_pts - 1, |a, b| a.total_cmp(b)).1
            } else {
                f64::INFINITY
            };

            out.order.push(p);
            out.reachability.push(reach[p]);
            out.core_distance.push(core);

            if core.is_finite() {
                for o in 0..n {
                    if processed[o] || row[o] > self.eps {
                        continue;
                    }
                    let new_reach = core.max(row[o]);
                    if new_reach < reach[o] {
                        reach[o] = new_reach;
                    }
                }
            }
        }
        out
    }
}

/// The priority-queue loop [`Optics::run_matrix`] replaced, kept as its
/// differential reference; compiled for tests only.
#[cfg(test)]
mod reference;

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use proptest::test_runner::TestRng;

    /// Two tight 1-D clusters far apart plus one outlier.
    fn toy() -> Vec<f64> {
        vec![0.0, 0.1, 0.2, 0.3, 10.0, 10.1, 10.2, 10.3, 50.0]
    }

    fn d1(pts: &[f64]) -> CondensedDistanceMatrix {
        crate::pairwise_tiled(pts.len(), 4, || (), |_, i, j| (pts[i] - pts[j]).abs())
    }

    #[test]
    fn ordering_is_a_permutation() {
        let pts = toy();
        let o = Optics { min_pts: 2, eps: f64::INFINITY }.run_matrix(&d1(&pts));
        assert_eq!(o.len(), pts.len());
        let mut sorted = o.order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..pts.len()).collect::<Vec<_>>());
    }

    #[test]
    fn clusters_form_valleys() {
        let pts = toy();
        let o = Optics { min_pts: 2, eps: f64::INFINITY }.run_matrix(&d1(&pts));
        // Within-cluster reachabilities are small (0.1-0.2); the jumps to
        // the second cluster and to the outlier are big.
        let big: Vec<usize> =
            o.reachability.iter().enumerate().filter(|(_, &r)| r > 5.0).map(|(i, _)| i).collect();
        // Position 0 is the undefined start (INF), plus two jumps.
        assert_eq!(big.len(), 3, "reachabilities: {:?}", o.reachability);
        assert_eq!(big[0], 0);
        // Cluster members follow each other consecutively.
        let small: usize = o.reachability.iter().filter(|&&r| r <= 0.2001).count();
        assert_eq!(small, 6, "two clusters of 4 contribute 3 small reachabilities each");
    }

    #[test]
    fn first_reachability_is_undefined() {
        let pts = toy();
        let o = Optics::default().run_matrix(&d1(&pts));
        assert!(o.reachability[0].is_infinite());
    }

    #[test]
    fn finite_eps_separates_components() {
        let pts = toy();
        // eps = 1: the two clusters and the outlier are separate
        // components; each component start has undefined reachability.
        let o = Optics { min_pts: 2, eps: 1.0 }.run_matrix(&d1(&pts));
        let undefined = o.reachability.iter().filter(|r| r.is_infinite()).count();
        assert_eq!(undefined, 3);
        // The outlier is no core point at eps=1 with min_pts=2 (only
        // itself in its neighborhood) -> its core distance is INF.
        let outlier_pos = o.order.iter().position(|&p| p == 8).unwrap();
        assert!(o.core_distance[outlier_pos].is_infinite());
    }

    #[test]
    fn min_pts_one_gives_zero_core_distance() {
        let pts = vec![1.0, 2.0, 4.0];
        let o = Optics { min_pts: 1, eps: f64::INFINITY }.run_matrix(&d1(&pts));
        // Every point's 1st-smallest neighborhood distance is d(p,p) = 0.
        assert!(o.core_distance.iter().all(|&c| c == 0.0));
    }

    #[test]
    fn deterministic_given_same_input() {
        let pts = toy();
        let a = Optics { min_pts: 3, eps: f64::INFINITY }.run_matrix(&d1(&pts));
        let b = Optics { min_pts: 3, eps: f64::INFINITY }.run_matrix(&d1(&pts));
        assert_eq!(a.order, b.order);
        assert_eq!(a.reachability, b.reachability);
    }

    #[test]
    fn single_object() {
        let o = Optics::default().run_matrix(&d1(&[7.0]));
        assert_eq!(o.order, vec![0]);
        assert!(o.reachability[0].is_infinite());
    }

    #[test]
    fn reachability_reflects_cluster_tightness() {
        // A tight cluster and a loose cluster: mean in-cluster
        // reachability must differ accordingly.
        let mut pts = Vec::new();
        for i in 0..10 {
            pts.push(i as f64 * 0.01); // tight
        }
        for i in 0..10 {
            pts.push(100.0 + i as f64 * 1.0); // loose
        }
        let o = Optics { min_pts: 2, eps: f64::INFINITY }.run_matrix(&d1(&pts));
        let pos: Vec<usize> = (0..o.len()).collect();
        let mean_reach = |sel: &dyn Fn(usize) -> bool| {
            let vals: Vec<f64> = pos
                .iter()
                .filter(|&&i| {
                    sel(o.order[i]) && o.reachability[i].is_finite() && o.reachability[i] < 50.0
                })
                .map(|&i| o.reachability[i])
                .collect();
            vals.iter().sum::<f64>() / vals.len() as f64
        };
        let tight = mean_reach(&|obj| obj < 10);
        let loose = mean_reach(&|obj| obj >= 10);
        assert!(loose > 10.0 * tight, "tight {tight} vs loose {loose}");
    }

    #[test]
    #[should_panic(expected = "Optics::min_pts must be at least 1")]
    fn zero_min_pts_is_refused() {
        Optics { min_pts: 0, eps: f64::INFINITY }.run_matrix(&d1(&toy()));
    }

    /// A condensed matrix over n ∈ 0..=40 objects with 1–6 distinct
    /// distance levels (ties everywhere), and NaN and ∞ cells.
    struct TieHeavyMatrix;

    impl Strategy for TieHeavyMatrix {
        type Value = (usize, u64, Vec<f64>);
        fn generate(&self, rng: &mut TestRng) -> Self::Value {
            let n = rng.below(41) as usize;
            let levels = 1 + rng.below(6);
            let cells = (0..n * n.saturating_sub(1) / 2)
                .map(|_| match rng.below(10) {
                    0 => f64::NAN,
                    1 => f64::INFINITY,
                    _ => rng.below(levels) as f64 * 0.5,
                })
                .collect();
            (n, levels, cells)
        }
    }

    proptest! {
        #[test]
        fn run_matrix_equals_the_heap_reference_bit_for_bit(
            matrix in TieHeavyMatrix,
            level in 0u64..8,
        ) {
            let (n, levels, cells) = matrix;
            let m = crate::pairwise_tiled(n, 8, || (), |_, i, j| {
                cells[i * n - i * (i + 1) / 2 + (j - i - 1)]
            });
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            // ε = 0, ε on one of the levels (so cells tie with ε), ε = ∞.
            let finite = (level % levels) as f64 * 0.5;
            for eps in [0.0, finite, f64::INFINITY] {
                for min_pts in 1..=n + 1 {
                    let opt = Optics { min_pts, eps };
                    let got = opt.run_matrix(&m);
                    let want = reference::run(&opt, n, |i, j| m.get(i, j));
                    prop_assert_eq!(&got.order, &want.order, "{:?} n {}", opt, n);
                    prop_assert_eq!(bits(&got.reachability), bits(&want.reachability));
                    prop_assert_eq!(bits(&got.core_distance), bits(&want.core_distance));
                }
            }
        }
    }
}
