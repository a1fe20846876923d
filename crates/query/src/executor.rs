//! Parallel batch-query executor.
//!
//! The paper evaluates workloads of queries (e.g. Table 2 averages 100
//! invariant 10-NN queries). This module runs such workloads across
//! worker threads: each query gets its own [`QueryContext`] (so stats
//! stay per-query) while the [`PoolPolicy`] decides whether contexts
//! read through fresh cold pools — the paper's accounting — or one
//! shared warm [`BufferPool`].

use crate::filter::FilterRefineIndex;
use crate::planner::AccessPath;
use crate::stats::QueryStats;
use std::sync::Arc;
use std::time::Instant;
use vsim_index::{BufferPool, QueryContext, StoreResult};
use vsim_setdist::VectorSet;

/// How batch queries obtain their buffer pool.
#[derive(Debug, Clone)]
pub enum PoolPolicy {
    /// A fresh pool per query: `None` = unbounded (every first touch of
    /// a page is a miss — the paper's cold-cache accounting), `Some(n)`
    /// = LRU capacity of `n` pages.
    PerQuery(Option<usize>),
    /// Every query reads through this shared pool; later queries hit
    /// pages earlier queries faulted in.
    Shared(Arc<BufferPool>),
}

/// Result of a query batch: per-query hits and stats, plus the
/// aggregate over the whole workload.
///
/// A query that hit a storage error contributes empty `hits` and a
/// stats entry whose [`QueryStats::error`] names the failure — the
/// rest of the batch is unaffected (and keeps serving from the shared
/// pool under [`PoolPolicy::Shared`]).
#[derive(Debug)]
pub struct BatchResult {
    /// `hits[i]` answers `queries[i]`, in input order.
    pub hits: Vec<Vec<(u64, f64)>>,
    /// `stats[i]` is the cost of `queries[i]` alone.
    pub stats: Vec<QueryStats>,
    /// Sum of all per-query stats (CPU sums query time, not wall time).
    pub aggregate: QueryStats,
}

impl BatchResult {
    /// Indices of queries that failed with a storage error.
    pub fn failed(&self) -> Vec<usize> {
        (0..self.stats.len()).filter(|&i| self.stats[i].error.is_some()).collect()
    }
}

/// Fans independent queries across worker threads.
pub struct QueryExecutor {
    policy: PoolPolicy,
}

impl QueryExecutor {
    pub fn new(policy: PoolPolicy) -> Self {
        QueryExecutor { policy }
    }

    /// Executor with per-query unbounded pools (cold-cache accounting);
    /// batched results are identical to running each query alone.
    pub fn cold() -> Self {
        QueryExecutor::new(PoolPolicy::PerQuery(None))
    }

    /// Executor whose queries share one warm pool capped at
    /// `capacity_pages` cached pages. The capacity is distributed
    /// across the pool's lock shards; when a shard fills, its
    /// least-recently-used page is evicted (and counted in the batch's
    /// `cache.evictions`). Eviction changes *cost* only — a re-faulted
    /// page is a fresh miss — never results. This is the default way to
    /// share a pool; reach for [`shared_unbounded`](Self::shared_unbounded)
    /// only when modeling "everything fits in memory".
    pub fn shared(capacity_pages: usize) -> Self {
        QueryExecutor::new(PoolPolicy::Shared(BufferPool::new(capacity_pages)))
    }

    /// Executor whose queries share one unbounded warm pool: nothing is
    /// ever evicted, so memory grows with every distinct page touched.
    /// Prefer [`shared`](Self::shared) with an explicit budget unless
    /// the workload is known to fit.
    pub fn shared_unbounded() -> Self {
        QueryExecutor::new(PoolPolicy::Shared(BufferPool::unbounded()))
    }

    pub fn policy(&self) -> &PoolPolicy {
        &self.policy
    }

    fn context(&self) -> QueryContext {
        match &self.policy {
            PoolPolicy::PerQuery(None) => QueryContext::ephemeral(),
            PoolPolicy::PerQuery(Some(cap)) => QueryContext::with_pool(BufferPool::new(*cap)),
            PoolPolicy::Shared(pool) => QueryContext::with_pool(Arc::clone(pool)),
        }
    }

    /// Run one closure per query in parallel, each against its own
    /// context — the batch form of any index's `execute`:
    /// `ex.run_batch(&queries, |q, ctx| index.execute(q, ctx))`.
    ///
    /// Failure isolation: a closure that returns a storage error fails
    /// *that query only*. Its slot reports empty hits plus the costs
    /// incurred before the error, with the error kind recorded in
    /// [`QueryStats::error`]; every other query (and the shared buffer
    /// pool, if any) continues unaffected.
    pub fn run_batch<Q, F>(&self, queries: &[Q], run: F) -> BatchResult
    where
        Q: Sync,
        F: Fn(&Q, &QueryContext) -> StoreResult<Vec<(u64, f64)>> + Sync,
    {
        let per_query = vsim_parallel::par_map_slice(queries, |_, q| {
            let ctx = self.context();
            let t0 = Instant::now();
            let outcome = run(q, &ctx);
            crate::stats::settle(outcome, &ctx, t0)
        });
        let mut hits = Vec::with_capacity(per_query.len());
        let mut stats = Vec::with_capacity(per_query.len());
        let mut aggregate = QueryStats::default();
        for (h, s) in per_query {
            aggregate.accumulate(&s);
            hits.push(h);
            stats.push(s);
        }
        BatchResult { hits, stats, aggregate }
    }

    /// Batched k-NN over the filter/refine index on the access path the
    /// cost-based planner picks for this dataset. Planning runs once for
    /// the whole batch — the statistics are per-dataset, not per-query —
    /// and the chosen [`AccessPath`] is returned next to the results.
    /// Only the charged I/O depends on the path, never the hits.
    pub fn batch_knn_planned(
        &self,
        index: &FilterRefineIndex,
        queries: &[VectorSet],
        k: usize,
    ) -> (BatchResult, AccessPath) {
        let path = index.plan_knn(k).path;
        (self.run_batch(queries, |q, ctx| index.knn_via_with(path, q, k, ctx)), path)
    }

    /// Batched k-NN against a [`DynamicIndex`]: each query pins the
    /// latest published epoch through its own context (counted in that
    /// query's `epoch_pins`) and runs entirely against the pinned
    /// snapshot, so a writer thread can insert, delete, and publish
    /// concurrently without ever blocking a reader or leaking a partial
    /// update into one. Returns the per-query pinned generations next to
    /// the batch result: `generations[i]` is the epoch `queries[i]` saw,
    /// and its hits are bit-identical to a from-scratch rebuild of that
    /// epoch's insert/delete history.
    pub fn batch_knn_epoch(
        &self,
        index: &crate::epoch::DynamicIndex,
        queries: &[VectorSet],
        k: usize,
    ) -> (BatchResult, Vec<u64>) {
        use std::sync::atomic::{AtomicU64, Ordering};
        let generations: Vec<AtomicU64> = queries.iter().map(|_| AtomicU64::new(0)).collect();
        let items: Vec<(usize, &VectorSet)> = queries.iter().enumerate().collect();
        let batch = self.run_batch(&items, |&(i, q), ctx| {
            let epoch = index.pin(ctx);
            generations[i].store(epoch.generation(), Ordering::Relaxed);
            epoch.index().knn_with(q, k, ctx)
        });
        (batch, generations.into_iter().map(AtomicU64::into_inner).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::multistep::Query;
    use crate::scan::SequentialScanIndex;
    use rand::prelude::*;
    use std::slice::from_ref;

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

    /// `k`-NN by sequential scan as a `run_batch` closure.
    fn scan_knn(
        idx: &SequentialScanIndex,
        k: usize,
    ) -> impl Fn(&VectorSet, &QueryContext) -> StoreResult<Vec<(u64, f64)>> + Sync + '_ {
        move |q, ctx| idx.execute(&Query::knn(from_ref(q), k), ctx)
    }

    fn ids(hits: &[(u64, f64)]) -> std::collections::BTreeSet<u64> {
        hits.iter().map(|(i, _)| *i).collect()
    }

    #[test]
    fn batch_knn_matches_sequential_path_exactly() {
        let sets = random_sets(300, 5, 40);
        let idx = FilterRefineIndex::build(&sets, 6, 5);
        let queries: Vec<VectorSet> = (0..20).map(|i| sets[i * 13].clone()).collect();
        let batch = QueryExecutor::cold().run_batch(&queries, |q, ctx| idx.knn_with(q, 8, ctx));
        assert_eq!(batch.hits.len(), queries.len());
        for (i, q) in queries.iter().enumerate() {
            let (seq, seq_stats) = idx.knn(q, 8);
            assert_eq!(batch.hits[i], seq, "query {i}: batched hits must be bit-identical");
            let b = &batch.stats[i];
            assert_eq!(b.io, seq_stats.io, "query {i}: same simulated I/O");
            assert_eq!(b.refinements, seq_stats.refinements);
            assert_eq!(b.candidates, seq_stats.candidates);
        }
    }

    #[test]
    fn aggregate_sums_per_query_stats() {
        let sets = random_sets(200, 4, 41);
        let idx = SequentialScanIndex::build(&sets);
        let queries: Vec<VectorSet> = (0..7).map(|i| sets[i * 11].clone()).collect();
        let batch = QueryExecutor::cold().run_batch(&queries, scan_knn(&idx, 5));
        let pages: u64 = batch.stats.iter().map(|s| s.io.pages).sum();
        assert_eq!(batch.aggregate.io.pages, pages);
        assert_eq!(batch.aggregate.refinements, (queries.len() * sets.len()) as u64);
    }

    #[test]
    fn shared_pool_makes_later_queries_cheaper() {
        let sets = random_sets(200, 4, 42);
        let idx = SequentialScanIndex::build(&sets);
        let queries: Vec<VectorSet> = (0..6).map(|i| sets[i * 17].clone()).collect();
        let cold = QueryExecutor::cold().run_batch(&queries, scan_knn(&idx, 5));
        let warm = QueryExecutor::shared_unbounded().run_batch(&queries, scan_knn(&idx, 5));
        assert_eq!(cold.hits, warm.hits, "pool policy must not change results");
        // Scans share the whole file: only one batch-wide cold read.
        let file_pages = cold.stats[0].io.pages;
        assert_eq!(cold.aggregate.io.pages, file_pages * queries.len() as u64);
        assert_eq!(warm.aggregate.io.pages, file_pages);
        assert!(warm.aggregate.cache.hits > 0);
    }

    #[test]
    fn bounded_shared_pool_evicts_without_changing_results() {
        let sets = random_sets(200, 4, 42);
        let idx = SequentialScanIndex::build(&sets);
        let queries: Vec<VectorSet> = (0..6).map(|i| sets[i * 17].clone()).collect();
        let cold = QueryExecutor::cold().run_batch(&queries, scan_knn(&idx, 5));
        // A pool far smaller than the scan's working set must thrash...
        let tiny = QueryExecutor::shared(2).run_batch(&queries, scan_knn(&idx, 5));
        assert_eq!(cold.hits, tiny.hits, "eviction must not change results");
        assert!(tiny.aggregate.cache.evictions > 0, "{:?}", tiny.aggregate.cache);
        // ...while one sized for the file behaves like the unbounded pool.
        let file_pages = cold.stats[0].io.pages;
        let roomy = QueryExecutor::shared(file_pages as usize * 2);
        let roomy = roomy.run_batch(&queries, scan_knn(&idx, 5));
        assert_eq!(cold.hits, roomy.hits);
        assert_eq!(roomy.aggregate.io.pages, file_pages);
        assert_eq!(roomy.aggregate.cache.evictions, 0);
    }

    #[test]
    fn planned_batches_match_the_default_path_bit_for_bit() {
        let sets = random_sets(400, 5, 44);
        let idx = FilterRefineIndex::build(&sets, 6, 5);
        let queries: Vec<VectorSet> = (0..10).map(|i| sets[i * 31].clone()).collect();
        let ex = QueryExecutor::cold();

        let plain = ex.run_batch(&queries, |q, ctx| idx.knn_with(q, 8, ctx));
        let (planned, path) = ex.batch_knn_planned(&idx, &queries, 8);
        assert_eq!(path, idx.plan_knn(8).path);
        assert_eq!(plain.hits, planned.hits, "planner choice must not change k-NN results");

        let range = |q: &VectorSet, path, ctx: &QueryContext| {
            idx.execute(&Query { path, ..Query::range(from_ref(q), 0.5) }, ctx)
        };
        let plain_r = ex.run_batch(&queries, |q, ctx| range(q, Some(AccessPath::XTreeCursor), ctx));
        let planned_r = ex.run_batch(&queries, |q, ctx| range(q, None, ctx));
        assert_eq!(plain_r.hits, planned_r.hits, "planner choice must not change range results");
    }

    #[test]
    fn batch_range_and_invariant_agree_across_backends() {
        let sets = random_sets(150, 4, 43);
        let filt = FilterRefineIndex::build(&sets, 6, 4);
        let scan = SequentialScanIndex::build(&sets);
        let queries: Vec<VectorSet> = (0..5).map(|i| sets[i * 29].clone()).collect();
        let ex = QueryExecutor::cold();
        let a = ex.run_batch(&queries, |q, ctx| filt.execute(&Query::range(from_ref(q), 0.5), ctx));
        let b = ex.run_batch(&queries, |q, ctx| scan.execute(&Query::range(from_ref(q), 0.5), ctx));
        for (x, y) in a.hits.iter().zip(&b.hits) {
            assert_eq!(ids(x), ids(y));
        }

        // A workload of variant lists: one `Query` per list.
        let workloads: Vec<Vec<VectorSet>> =
            queries.iter().map(|q| vec![q.clone(), sets[3].clone()]).collect();
        let inv_f = ex.run_batch(&workloads, |v, ctx| filt.execute(&Query::knn(v, 6), ctx));
        let inv_s = ex.run_batch(&workloads, |v, ctx| scan.execute(&Query::knn(v, 6), ctx));
        for (x, y) in inv_f.hits.iter().zip(&inv_s.hits) {
            for (a, b) in x.iter().zip(y) {
                assert!((a.1 - b.1).abs() < 1e-12);
            }
        }
    }
}
