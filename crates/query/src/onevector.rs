//! The one-vector access path (Table 2, row "1-Vect."): the
//! `6k`-dimensional cover-sequence feature vectors indexed directly in an
//! X-tree, Euclidean distance, no refinement step. In 42 dimensions the
//! X-tree degenerates toward a scan via supernodes — the effect the
//! paper's comparison exposes.

use crate::stats::QueryStats;
use std::time::{Duration, Instant};
use vsim_index::{QueryContext, StoreResult, XTree};
use vsim_setdist::lp;

/// Distance evaluations `ctx` has counted so far; this path reports the
/// tree's point-distance evaluations as its candidates.
fn evals(ctx: &QueryContext) -> u64 {
    ctx.stats(Duration::ZERO).distance_evals
}

/// An X-tree over one-vector (flattened) feature representations.
pub struct OneVectorIndex {
    dim: usize,
    tree: XTree,
}

impl OneVectorIndex {
    pub fn build(vectors: &[Vec<f64>]) -> Self {
        assert!(!vectors.is_empty());
        let dim = vectors[0].len();
        let mut tree = XTree::new(dim);
        for (i, v) in vectors.iter().enumerate() {
            assert_eq!(v.len(), dim, "vector {i} has wrong dimension");
            tree.insert(v, i as u64);
        }
        OneVectorIndex { dim, tree }
    }

    pub fn len(&self) -> usize {
        self.tree.len()
    }

    pub fn is_empty(&self) -> bool {
        self.tree.is_empty()
    }

    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Index statistics for reporting (pages, supernodes).
    pub fn index_pages(&self) -> (usize, usize) {
        (self.tree.total_pages(), self.tree.supernode_count())
    }

    pub fn knn(&self, q: &[f64], kq: usize) -> (Vec<(u64, f64)>, QueryStats) {
        let ctx = QueryContext::ephemeral();
        let t0 = Instant::now();
        let r = self.knn_with(q, kq, &ctx);
        crate::stats::settle(r, &ctx, t0)
    }

    /// [`knn`](Self::knn) against a caller-supplied context. Candidates
    /// here are the point-distance evaluations the tree performs (there
    /// is no refinement step on this path). The tree nodes live in
    /// memory, so this path cannot hit storage errors — the `Result` is
    /// for signature parity with the other access paths in the batch
    /// executor.
    pub fn knn_with(
        &self,
        q: &[f64],
        kq: usize,
        ctx: &QueryContext,
    ) -> StoreResult<Vec<(u64, f64)>> {
        let evals0 = evals(ctx);
        let result = self.tree.knn(q, kq, ctx);
        ctx.count_candidates(evals(ctx) - evals0);
        Ok(result)
    }

    /// Invariant k-NN (Section 3.2): run one X-tree k-NN per query
    /// variant ("48 different permutations of the query object at
    /// runtime") and merge by minimum distance.
    pub fn knn_invariant(&self, variants: &[Vec<f64>], kq: usize) -> (Vec<(u64, f64)>, QueryStats) {
        let ctx = QueryContext::ephemeral();
        let t0 = Instant::now();
        let r = self.knn_invariant_with(variants, kq, &ctx);
        crate::stats::settle(r, &ctx, t0)
    }

    /// [`knn_invariant`](Self::knn_invariant) against a caller-supplied
    /// context.
    pub fn knn_invariant_with(
        &self,
        variants: &[Vec<f64>],
        kq: usize,
        ctx: &QueryContext,
    ) -> StoreResult<Vec<(u64, f64)>> {
        let evals0 = evals(ctx);
        let mut best: std::collections::HashMap<u64, f64> = std::collections::HashMap::new();
        for q in variants {
            for (id, d) in self.tree.knn(q, kq, ctx) {
                let e = best.entry(id).or_insert(f64::INFINITY);
                if d < *e {
                    *e = d;
                }
            }
        }
        let mut result: Vec<(u64, f64)> = best.into_iter().collect();
        result.sort_by(|a, b| a.1.total_cmp(&b.1));
        result.truncate(kq);
        ctx.count_candidates(evals(ctx) - evals0);
        Ok(result)
    }

    pub fn range_query(&self, q: &[f64], eps: f64) -> (Vec<(u64, f64)>, QueryStats) {
        let ctx = QueryContext::ephemeral();
        let t0 = Instant::now();
        let r = self.range_query_with(q, eps, &ctx);
        crate::stats::settle(r, &ctx, t0)
    }

    /// [`range_query`](Self::range_query) against a caller-supplied
    /// context.
    pub fn range_query_with(
        &self,
        q: &[f64],
        eps: f64,
        ctx: &QueryContext,
    ) -> StoreResult<Vec<(u64, f64)>> {
        let mut result = self.tree.range_query(q, eps, ctx);
        result.sort_by(|a, b| a.1.total_cmp(&b.1));
        ctx.count_candidates(result.len() as u64);
        Ok(result)
    }

    /// Brute-force k-NN for validation.
    pub fn knn_linear(&self, vectors: &[Vec<f64>], q: &[f64], kq: usize) -> Vec<(u64, f64)> {
        let mut all: Vec<(u64, f64)> =
            vectors.iter().enumerate().map(|(i, v)| (i as u64, lp::euclidean(v, q))).collect();
        all.sort_by(|a, b| a.1.total_cmp(&b.1));
        all.truncate(kq);
        all
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::prelude::*;

    fn random_vectors(n: usize, dim: usize, seed: u64) -> Vec<Vec<f64>> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n).map(|_| (0..dim).map(|_| rng.gen_range(0.0..1.0)).collect()).collect()
    }

    #[test]
    fn knn_matches_linear_scan_in_42d() {
        let vecs = random_vectors(500, 42, 20);
        let idx = OneVectorIndex::build(&vecs);
        for qi in [0usize, 123, 400] {
            let (got, _) = idx.knn(&vecs[qi], 10);
            let want = idx.knn_linear(&vecs, &vecs[qi], 10);
            for (g, w) in got.iter().zip(&want) {
                assert!((g.1 - w.1).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn high_dim_tree_reads_large_page_fraction() {
        let vecs = random_vectors(1000, 42, 21);
        let idx = OneVectorIndex::build(&vecs);
        let (_, stats) = idx.knn(&vecs[0], 10);
        let (pages, supernodes) = idx.index_pages();
        assert!(supernodes > 0, "expected supernodes in 42-d");
        assert!(
            stats.io.pages as usize > pages / 4,
            "42-d query should read a large page fraction ({} of {pages})",
            stats.io.pages
        );
    }

    #[test]
    fn range_query_exact() {
        let vecs = random_vectors(300, 12, 22);
        let idx = OneVectorIndex::build(&vecs);
        let q = &vecs[7];
        let (got, _) = idx.range_query(q, 0.6);
        let want: std::collections::BTreeSet<u64> = vecs
            .iter()
            .enumerate()
            .filter(|(_, v)| lp::euclidean(v, q) <= 0.6)
            .map(|(i, _)| i as u64)
            .collect();
        assert_eq!(got.iter().map(|(i, _)| *i).collect::<std::collections::BTreeSet<_>>(), want);
    }
}
