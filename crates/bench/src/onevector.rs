//! The one-vector access path (Table 2, row "1-Vect."): the
//! `6k`-dimensional cover-sequence feature vectors indexed directly in an
//! X-tree, Euclidean distance, no refinement step. In 42 dimensions the
//! X-tree degenerates toward a scan via supernodes — the effect the
//! paper's comparison exposes. Candidates on this path are the
//! point-distance evaluations the tree performs.

use std::collections::HashMap;
use std::time::{Duration, Instant};
use vsim_index::{QueryContext, QueryStats, StoreResult, XTree};

/// Distance evaluations `ctx` has counted so far.
fn evals(ctx: &QueryContext) -> u64 {
    ctx.stats(Duration::ZERO).distance_evals
}

/// An X-tree over one-vector (flattened) feature representations.
pub struct OneVectorIndex {
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
        OneVectorIndex { tree }
    }

    /// Index statistics for reporting (pages, supernodes).
    pub fn index_pages(&self) -> (usize, usize) {
        (self.tree.total_pages(), self.tree.supernode_count())
    }

    /// k-NN of `q` against a fresh cold context.
    pub fn knn(&self, q: &[f64], kq: usize) -> (Vec<(u64, f64)>, QueryStats) {
        let ctx = QueryContext::ephemeral();
        let t0 = Instant::now();
        let hits = self.tree.knn(q, kq, &ctx);
        ctx.count_candidates(evals(&ctx));
        (hits, ctx.stats(t0.elapsed()))
    }

    /// Invariant k-NN (Section 3.2): one X-tree k-NN per query variant
    /// ("48 different permutations of the query object at runtime"),
    /// merged by each object's minimum distance and ordered by
    /// `(distance, id)`, so equal distances are cut at `kq` the same way
    /// on every run. The tree lives in memory, so this cannot fail; the
    /// `Result` is the batch executor's signature.
    pub fn knn_invariant_with(
        &self,
        variants: &[Vec<f64>],
        kq: usize,
        ctx: &QueryContext,
    ) -> StoreResult<Vec<(u64, f64)>> {
        let evals0 = evals(ctx);
        let mut best: HashMap<u64, f64> = HashMap::new();
        for q in variants {
            for (id, d) in self.tree.knn(q, kq, ctx) {
                let e = best.entry(id).or_insert(f64::INFINITY);
                if d < *e {
                    *e = d;
                }
            }
        }
        let mut result: Vec<(u64, f64)> = best.into_iter().collect();
        result.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
        result.truncate(kq);
        ctx.count_candidates(evals(ctx) - evals0);
        Ok(result)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::prelude::*;
    use vsim_setdist::lp;

    fn random_vectors(n: usize, dim: usize, seed: u64) -> Vec<Vec<f64>> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n).map(|_| (0..dim).map(|_| rng.gen_range(0.0..1.0)).collect()).collect()
    }

    /// Brute force: every object's minimum distance over `variants`,
    /// ordered by `(distance, id)`.
    fn linear_invariant(vectors: &[Vec<f64>], variants: &[Vec<f64>], kq: usize) -> Vec<(u64, f64)> {
        let mut all: Vec<(u64, f64)> = vectors
            .iter()
            .enumerate()
            .map(|(i, v)| {
                let d = variants.iter().map(|q| lp::euclidean(v, q)).fold(f64::INFINITY, f64::min);
                (i as u64, d)
            })
            .collect();
        all.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
        all.truncate(kq);
        all
    }

    #[test]
    fn knn_matches_linear_scan_in_42d() {
        let vecs = random_vectors(500, 42, 20);
        let idx = OneVectorIndex::build(&vecs);
        for qi in [0usize, 123, 400] {
            let (got, _) = idx.knn(&vecs[qi], 10);
            let want = linear_invariant(&vecs, &vecs[qi..=qi], 10);
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
    fn invariant_ties_are_cut_by_id_on_every_run() {
        // Six copies of `a` and six of its mirror `b`, among random
        // points: the two variants `a` and `b` put all twelve at distance
        // 0, and each variant's own 6-NN holds exactly its six copies.
        let a = vec![0.9, 0.1, 0.5, 0.3];
        let b = vec![0.1, 0.9, 0.5, 0.3];
        let mut vecs = random_vectors(200, 4, 23);
        for i in 0..6 {
            vecs[10 + 17 * i] = a.clone();
            vecs[15 + 19 * i] = b.clone();
        }
        let idx = OneVectorIndex::build(&vecs);
        let variants = vec![a, b];
        let run = || idx.knn_invariant_with(&variants, 6, &QueryContext::ephemeral()).unwrap();
        let first = run();
        let want = linear_invariant(&vecs, &variants, 6);
        assert_eq!(want.iter().filter(|h| h.1 == 0.0).count(), 6);
        for _ in 0..8 {
            assert_eq!(run(), first, "two runs cut the tie differently");
        }
        assert_eq!(first, want);
    }
}
