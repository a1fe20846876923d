//! Parallel batch-query executor.
//!
//! The paper evaluates workloads of queries (e.g. Table 2 averages 100
//! invariant 10-NN queries). This module runs such workloads across
//! worker threads: each query gets its own [`QueryContext`] (so stats
//! stay per-query), reading through a fresh cold pool of its own — the
//! paper's accounting — or through one shared warm [`BufferPool`].

use crate::filter::FilterRefineIndex;
use crate::planner::AccessPath;
use crate::stats::QueryStats;
use std::sync::Arc;
use std::time::Instant;
use vsim_index::{BufferPool, QueryContext, StoreResult};
use vsim_setdist::VectorSet;

/// Result of a query batch: per-query hits and stats, plus the
/// aggregate over the whole workload.
///
/// A query that hit a storage error contributes empty `hits` and a
/// stats entry whose [`QueryStats::error`] names the failure — the
/// rest of the batch is unaffected (and keeps serving from the shared
/// pool of a [`QueryExecutor::shared`] executor).
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
    /// The pool every query shares, or `None` for a fresh one per query.
    shared: Option<Arc<BufferPool>>,
}

impl QueryExecutor {
    /// Executor with per-query unbounded pools (cold-cache accounting);
    /// batched results are identical to running each query alone.
    pub fn cold() -> Self {
        QueryExecutor { shared: None }
    }

    /// Executor whose queries share one warm pool capped at
    /// `capacity_pages` cached pages. The capacity is distributed
    /// across the pool's lock shards; when a shard fills, its
    /// least-recently-used page is evicted (and counted in the batch's
    /// `cache.evictions`). Eviction changes *cost* only — a re-faulted
    /// page is a fresh miss — never results.
    pub fn shared(capacity_pages: usize) -> Self {
        QueryExecutor { shared: Some(BufferPool::new(capacity_pages)) }
    }

    fn context(&self) -> QueryContext {
        match &self.shared {
            None => QueryContext::ephemeral(),
            Some(pool) => QueryContext::with_pool(Arc::clone(pool)),
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::multistep::Query;
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
}
