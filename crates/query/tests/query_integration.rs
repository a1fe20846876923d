//! Cross-layer integration tests for the multi-step query engine: the
//! optimal multi-step k-NN must be bit-identical to the unbounded naive
//! baseline and to the parallel batch executor, never refine more than
//! the Korn-style batch baseline (both baselines live in `vsim-bench`),
//! equal the loop recomposed from the public layer functions counter
//! for counter, and the cost-based planner must pick the expected access
//! paths at the size extremes.

use rand::prelude::*;
use vsim_bench::{knn_korn, knn_naive};
use vsim_index::QueryContext;
use vsim_query::{
    multi_step_knn, AccessPath, FilterRefineIndex, QueryExecutor, SequentialScanIndex,
};
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
            let (want, _) = scan.range_query(&sets[qi], eps);
            let gids: std::collections::BTreeSet<u64> = got.iter().map(|(i, _)| *i).collect();
            let wids: std::collections::BTreeSet<u64> = want.iter().map(|(i, _)| *i).collect();
            assert_eq!(gids, wids, "query {qi} eps {eps}");
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
