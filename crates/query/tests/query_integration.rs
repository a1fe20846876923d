//! Cross-layer integration tests for the multi-step query engine: the
//! optimal multi-step k-NN must be bit-identical to the unbounded naive
//! baseline and to the parallel batch executor, never refine more than
//! the Korn-style batch baseline, agree with the sequential scan (the
//! three baselines live in `vsim-bench`), equal the loop recomposed
//! from the public layer functions counter for counter, and the
//! cost-based planner must pick the expected access paths at the size
//! extremes. The executor's batches sum their per-query stats, and a
//! shared pool — bounded or roomy — changes what a batch costs, never
//! what it answers.

use rand::prelude::*;
use std::collections::BTreeSet;
use std::slice::from_ref;
use vsim_bench::{knn_korn, knn_naive, SequentialScanIndex};
use vsim_index::{QueryContext, StoreResult};
use vsim_query::{multi_step_knn, AccessPath, FilterRefineIndex, Query, QueryExecutor};
use vsim_setdist::matching::MinimalMatching;
use vsim_setdist::{extended_centroid, MatchingEngine, PrefilteredDistance, VectorSet};

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

fn ids(hits: &[(u64, f64)]) -> BTreeSet<u64> {
    hits.iter().map(|(i, _)| *i).collect()
}

/// `k`-NN by sequential scan as a `run_batch` closure.
fn scan_knn(
    idx: &SequentialScanIndex,
    k: usize,
) -> impl Fn(&VectorSet, &QueryContext) -> StoreResult<Vec<(u64, f64)>> + Sync + '_ {
    move |q, ctx| idx.execute(&Query::knn(from_ref(q), k), ctx)
}

#[test]
fn multi_step_knn_is_bit_identical_across_engines_and_never_refines_more() {
    let n = 500;
    let knn = 10;
    let sets = random_sets(n, 6, 2026);
    let idx = FilterRefineIndex::build(&sets, 6, 6);
    let queries: Vec<VectorSet> = (0..20).map(|i| sets[i * 23].clone()).collect();

    // The PR-1 parallel batch executor answers the same queries.
    let ex = QueryExecutor::cold();
    let batch_exec = ex.run_batch(&queries, |q, ctx| idx.knn_with(q, knn, ctx));
    let (planned_exec, _) = ex.batch_knn_planned(&idx, &queries, knn);

    let model = MinimalMatching::vector_set_model();
    let (mut strictly_fewer, mut pruned) = (0u32, 0u64);
    for (i, q) in queries.iter().enumerate() {
        let (optimal, os) = idx.knn(q, knn);
        let (naive, ns) = knn_naive(&idx, 6, q, knn);
        let (korn, ks) = knn_korn(&idx, &model, 6, q, knn);

        // Bit-identity across every engine that answers the query.
        for (label, other) in [
            ("naive", &naive),
            ("korn batch", &korn),
            ("batch executor", &batch_exec.hits[i]),
            ("planned executor", &planned_exec.hits[i]),
        ] {
            assert_eq!(optimal.len(), other.len(), "query {i}: {label} size");
            for (a, b) in optimal.iter().zip(other) {
                assert_eq!(a.0, b.0, "query {i}: {label} ids");
                assert_eq!(a.1.to_bits(), b.1.to_bits(), "query {i}: {label} distances");
            }
        }

        // Same candidates examined, same refinements attempted as the
        // naive baseline — the bounded kernel only aborts them earlier.
        assert_eq!(os.refinements, ns.refinements, "query {i}");
        assert_eq!(ns.pruned, 0, "query {i}: the naive baseline never prunes");
        assert!(os.pruned <= os.refinements, "query {i}");
        pruned += os.pruned;

        // Refinement optimality: on every query the optimal algorithm
        // refines no more than the batch baseline.
        assert!(
            os.refinements <= ks.refinements,
            "query {i}: optimal refined {} > batch {}",
            os.refinements,
            ks.refinements
        );
        if os.refinements < ks.refinements {
            strictly_fewer += 1;
        }

        // Accounting invariant: every pulled candidate is refined or
        // dismissed by the termination bound.
        assert_eq!(os.filter_steps, os.refinements + os.refinements_saved, "query {i}");
    }
    assert!(strictly_fewer > 0, "optimal never saved a refinement over 20 queries");
    assert!(pruned > 0, "bounded refinement never aborted on 500 objects");
}

/// The benchmark's traced run answers k-NN with this loop, composed
/// from the public layer functions, and asserts it equal to
/// `knn_via_with`. Pinned here so a drift shows in `cargo test` first.
#[test]
fn knn_via_with_equals_the_loop_recomposed_from_public_layer_functions() {
    let sets = random_sets(400, 5, 2030);
    let idx = FilterRefineIndex::build(&sets, 6, 5);
    for path in [AccessPath::XTreeCursor, AccessPath::SeqScan] {
        for q in [&sets[0], &sets[77], &sets[311]] {
            let ctx = QueryContext::ephemeral();
            let got = idx.knn_via_with(path, q, 10, &ctx).unwrap();

            let rctx = QueryContext::ephemeral();
            let mut engine = MatchingEngine::new(MinimalMatching::vector_set_model());
            let pq = engine.prepare(q.clone());
            let cq = extended_centroid(q, 5, &[0.0; 6]);
            let want = idx.with_candidate_source(path, &cq, &rctx, |src| {
                multi_step_knn(src, 10, &rctx, |id, upper| {
                    let set = idx.record(id, &rctx)?;
                    Ok(match engine.distance_bounded_prefiltered_half(&pq, &set, upper) {
                        PrefilteredDistance::Exact(d) => Some(d),
                        PrefilteredDistance::PrunedByF32 => {
                            rctx.count_f32_prefilter(1);
                            None
                        }
                        PrefilteredDistance::Pruned => None,
                    })
                })
            });
            assert_eq!(got, want.unwrap(), "{path}");

            let z = std::time::Duration::ZERO;
            let (s, r) = (ctx.stats(z), rctx.stats(z));
            assert_eq!(
                (s.refinements, s.filter_steps, s.pruned, s.f32_prefilter, s.refinements_saved),
                (r.refinements, r.filter_steps, r.pruned, r.f32_prefilter, r.refinements_saved),
                "{path}"
            );
            assert_eq!(s.io.pages, r.io.pages, "{path}");
            assert!(s.refinements > 0 && s.io.pages > 0, "{path}");
        }
    }
}

#[test]
fn multi_step_range_matches_exhaustive_scan() {
    let sets = random_sets(300, 5, 2027);
    let idx = FilterRefineIndex::build(&sets, 6, 5);
    let scan = SequentialScanIndex::build(&sets);
    for qi in [3usize, 111, 250] {
        for eps in [0.3, 0.7] {
            let (got, _) = idx.range_query(&sets[qi], eps);
            let (want, _) = scan.run(&Query::range(from_ref(&sets[qi]), eps));
            assert_eq!(ids(&got), ids(&want), "query {qi} eps {eps}");
        }
    }
}

#[test]
fn planner_smoke_scan_for_tiny_xtree_for_large() {
    let tiny = random_sets(20, 4, 2028);
    let tiny_idx = FilterRefineIndex::build(&tiny, 6, 4);
    assert_eq!(tiny_idx.plan_knn(10).path, AccessPath::SeqScan);
    assert_eq!(tiny_idx.plan_range().path, AccessPath::SeqScan);

    let large = random_sets(1500, 4, 2029);
    let large_idx = FilterRefineIndex::build(&large, 6, 4);
    assert_eq!(large_idx.plan_knn(10).path, AccessPath::XTreeCursor);
    assert_eq!(large_idx.plan_range().path, AccessPath::XTreeCursor);
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
    // A pool with room for the whole file on every shard never evicts.
    let file_pages = cold.stats[0].io.pages;
    let warm = QueryExecutor::shared(file_pages as usize * 8);
    let warm = warm.run_batch(&queries, scan_knn(&idx, 5));
    assert_eq!(cold.hits, warm.hits, "pool policy must not change results");
    // Scans share the whole file: only one batch-wide cold read.
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
