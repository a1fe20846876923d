//! Cross-crate integration of the query stack on realistic (datagen)
//! vector sets: filter/refine vs. sequential scan vs. M-tree, plus the
//! invariance-aware query pattern of Section 3.2 (48 query permutations
//! at runtime).

use rand::prelude::*;
use std::slice::from_ref;
use std::sync::Arc;
use vsim_bench::{knn_korn, knn_naive};
use vsim_core::prelude::*;
use vsim_features::cover::transform_vector_set;
use vsim_geom::Mat3;
use vsim_index::StoreResult;
use vsim_query::{AccessPath, QueryKind};

/// 10-NN by sequential scan as a `run_batch` closure.
fn scan_10nn(
    scan: &SequentialScanIndex,
) -> impl Fn(&VectorSet, &QueryContext) -> StoreResult<Vec<(u64, f64)>> + Sync + '_ {
    |q, ctx| scan.execute(&Query::knn(from_ref(q), 10), ctx)
}

/// Sets of 1..=k uniform 6-d vectors: unlike the aircraft parts, no two
/// objects are duplicates, so a ranking has no ties to order.
fn random_sets(n: usize, k: usize, seed: u64) -> Vec<VectorSet> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|i| {
            let mut s = VectorSet::new(6);
            for _ in 0..1 + i % k {
                s.push(&[(); 6].map(|_| rng.gen_range(0.05..1.0)));
            }
            s
        })
        .collect()
}

fn aircraft_sets(n: usize, k: usize, seed: u64) -> (Vec<VectorSet>, Vec<usize>) {
    let data = aircraft_dataset(seed, n);
    let labels = data.labels();
    let processed = ProcessedDataset::build(data, k);
    (processed.vector_sets(k), labels)
}

#[test]
fn filter_refine_equals_scan_on_real_data() {
    let (sets, _) = aircraft_sets(300, 7, 9);
    let filter = FilterRefineIndex::build(&sets, 6, 7);
    let scan = SequentialScanIndex::build(&sets);
    for q in [0usize, 50, 123, 299] {
        let (a, sa) = filter.knn(&sets[q], 10);
        let (b, _) = scan.knn(&sets[q], 10);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert!((x.1 - y.1).abs() < 1e-9, "query {q}");
        }
        assert!((sa.refinements as usize) < sets.len(), "filter must prune");
    }
}

#[test]
fn mtree_on_matching_distance_equals_scan() {
    let (sets, _) = aircraft_sets(200, 5, 10);
    let mm = MinimalMatching::vector_set_model();
    let dist: Arc<dyn vsim_setdist::Distance<VectorSet>> = Arc::new(mm);
    let mut mtree: MTree<VectorSet> = MTree::new(dist, 16, 344);
    for (i, s) in sets.iter().enumerate() {
        mtree.insert(s.clone(), i as u64);
    }
    let scan = SequentialScanIndex::build(&sets);
    for q in [3usize, 77, 150] {
        let ctx = QueryContext::ephemeral();
        let got = mtree.knn(&sets[q], 8, &ctx);
        let (want, _) = scan.knn(&sets[q], 8);
        for (g, w) in got.iter().zip(&want) {
            assert!((g.1 - w.1).abs() < 1e-9, "query {q}: {g:?} vs {w:?}");
        }
    }
    // Metric pruning must beat the trivial bound of evaluating the
    // routing objects of every node plus every leaf entry.
    let ctx = QueryContext::ephemeral();
    let _ = mtree.knn(&sets[0], 5, &ctx);
    let used = ctx.stats(std::time::Duration::ZERO).distance_evals;
    assert!((used as usize) < 2 * sets.len());
}

#[test]
fn range_queries_agree_across_paths() {
    let (sets, _) = aircraft_sets(250, 7, 11);
    let filter = FilterRefineIndex::build(&sets, 6, 7);
    let scan = SequentialScanIndex::build(&sets);
    let mm = MinimalMatching::vector_set_model();
    for q in [5usize, 99] {
        for eps in [0.1, 0.3, 0.8] {
            let (a, _) = filter.range_query(&sets[q], eps);
            let (b, _) = scan.range_query(&sets[q], eps);
            let ids = |v: &[(u64, f64)]| {
                v.iter().map(|(i, _)| *i).collect::<std::collections::BTreeSet<_>>()
            };
            assert_eq!(ids(&a), ids(&b), "eps {eps} query {q}");
            // Every reported distance is correct.
            for (id, d) in &a {
                let exact = mm.distance_value(&sets[q], &sets[*id as usize]);
                assert!((d - exact).abs() < 1e-9);
            }
        }
    }
}

#[test]
fn knn_neighbors_are_mostly_same_family() {
    // Effectiveness smoke test: most of the 5 nearest neighbors of a
    // part belong to its own family.
    let (sets, labels) = aircraft_sets(400, 7, 12);
    let filter = FilterRefineIndex::build(&sets, 6, 7);
    let mut hits = 0usize;
    let mut total = 0usize;
    for q in (0..400).step_by(23) {
        let (res, _) = filter.knn(&sets[q], 6);
        for (id, _) in res.iter().skip(1) {
            // skip the query itself
            total += 1;
            if labels[*id as usize] == labels[q] {
                hits += 1;
            }
        }
    }
    let frac = hits as f64 / total as f64;
    assert!(frac > 0.6, "only {frac:.2} of neighbors share the query family");
}

#[test]
fn invariant_queries_via_48_runtime_permutations() {
    // Section 3.2: "carrying out 48 different permutations of the query
    // object at runtime". A rotated query still finds its original.
    let (sets, _) = aircraft_sets(150, 7, 13);
    let filter = FilterRefineIndex::build(&sets, 6, 7);
    let target = 42usize;
    let rot = Mat3::cube_rotations()[9];
    let rotated_query = transform_vector_set(&sets[target], &rot);

    // Without invariance handling, the rotated query may miss.
    // With the 48-permutation merge, the original is the top hit.
    let mut best: Option<(u64, f64)> = None;
    for m in Mat3::cube_symmetries() {
        let tq = transform_vector_set(&rotated_query, &m);
        let (hits, _) = filter.knn(&tq, 1);
        if let Some(h) = hits.first() {
            if best.is_none_or(|b| h.1 < b.1) {
                best = Some(*h);
            }
        }
    }
    let (id, d) = best.unwrap();
    assert_eq!(id, target as u64);
    assert!(d < 1e-9, "rotated query should match its original exactly");
}

#[test]
fn batch_executor_is_bit_identical_to_per_query_path() {
    // The parallel executor with cold per-query pools must reproduce the
    // sequential wrappers exactly — hits AND simulated I/O.
    let (sets, _) = aircraft_sets(500, 7, 15);
    let filter = FilterRefineIndex::build(&sets, 6, 7);
    let queries: Vec<VectorSet> = (0..25).map(|i| sets[i * 19].clone()).collect();
    let batch = QueryExecutor::cold().run_batch(&queries, |q, ctx| filter.knn_with(q, 10, ctx));
    for (i, q) in queries.iter().enumerate() {
        let (seq, seq_stats) = filter.knn(q, 10);
        assert_eq!(batch.hits[i], seq, "query {i}: hits must be bit-identical");
        assert_eq!(batch.stats[i].io, seq_stats.io, "query {i}: simulated I/O");
        assert_eq!(batch.stats[i].candidates, seq_stats.candidates);
        assert_eq!(batch.stats[i].refinements, seq_stats.refinements);
    }
    let scan = SequentialScanIndex::build(&sets);
    let sbatch = QueryExecutor::cold().run_batch(&queries, scan_10nn(&scan));
    for (b, s) in sbatch.hits.iter().zip(batch.hits.iter()) {
        for (x, y) in b.iter().zip(s) {
            assert!((x.1 - y.1).abs() < 1e-9);
        }
    }
}

#[test]
fn bounded_refinement_knn_is_bit_identical_to_unbounded_paths() {
    // The bounded matching kernel (k-th-best abort bound) must reproduce
    // both the legacy unbounded refinement and the PR-1 batch executor
    // path exactly — ids, distances (to the bit) and refinement counts —
    // while actually aborting a nonzero share of refinements.
    let (sets, _) = aircraft_sets(400, 7, 18);
    let filter = FilterRefineIndex::build(&sets, 6, 7);
    let queries: Vec<VectorSet> = (0..20).map(|i| sets[i * 17].clone()).collect();

    let batch = QueryExecutor::cold().run_batch(&queries, |q, ctx| filter.knn_with(q, 10, ctx));
    let mut pruned_total = 0u64;
    for (i, q) in queries.iter().enumerate() {
        let (bounded, bs) = filter.knn(q, 10);
        let (naive, ns) = knn_naive(&filter, 7, q, 10);
        assert_eq!(bounded, naive, "query {i}: bounded vs naive hits");
        assert_eq!(batch.hits[i], bounded, "query {i}: executor vs bounded hits");
        for (b, n) in bounded.iter().zip(&naive) {
            assert_eq!(b.1.to_bits(), n.1.to_bits(), "query {i}: distance bits");
        }
        // Same candidates examined, same refinements attempted; the
        // bounded path only aborts some of them mid-solve.
        assert_eq!(bs.candidates, ns.candidates, "query {i}");
        assert_eq!(bs.refinements, ns.refinements, "query {i}");
        assert_eq!(ns.pruned, 0, "naive path must never prune");
        assert!(bs.pruned <= bs.refinements);
        pruned_total += bs.pruned;
    }
    assert!(pruned_total > 0, "k-th-best bound never aborted a refinement");
}

#[test]
fn counter_audit_scan_bytes_match_analytic_value() {
    // Table 2 row consistency: the three access paths must account
    // candidates, refinements, pages, and bytes on the same definitions.
    let (sets, _) = aircraft_sets(300, 7, 16);
    let n = sets.len();
    let scan = SequentialScanIndex::build(&sets);
    let filter = FilterRefineIndex::build(&sets, 6, 7);

    // Sequential scan, cold pool: bytes == the packed heap file's exact
    // byte size, pages == ceil(bytes / PAGE_SIZE), one candidate and one
    // refinement per object.
    let (_, ss) = scan.knn(&sets[0], 10);
    let file_bytes: usize = sets.iter().map(|s| s.storage_bytes()).sum();
    let page_size = vsim_index::PAGE_SIZE;
    assert_eq!(ss.io.bytes as usize, file_bytes);
    assert_eq!(ss.io.pages as usize, file_bytes.div_ceil(page_size));
    assert_eq!(ss.candidates, n as u64);
    assert_eq!(ss.refinements, n as u64);
    assert_eq!(ss.cache.hits + ss.cache.misses, ss.cache.accesses());

    // Filter path: every refinement was first a candidate, the filter
    // prunes (refinements < n), and cache counters balance.
    let (_, fs) = filter.knn(&sets[0], 10);
    assert!(fs.refinements <= fs.candidates);
    assert!(fs.refinements < n as u64);
    assert_eq!(fs.cache.hits + fs.cache.misses, fs.cache.accesses());

    // M-tree: pages are charged per node read, so the page count is
    // bounded by the tree's node/page total; distance evaluations are
    // counted on the same tracker.
    let mm = MinimalMatching::vector_set_model();
    let dist: Arc<dyn vsim_setdist::Distance<VectorSet>> = Arc::new(mm);
    let mut mtree: MTree<VectorSet> = MTree::new(dist, 16, 344);
    for (i, s) in sets.iter().enumerate() {
        mtree.insert(s.clone(), i as u64);
    }
    let ctx = QueryContext::ephemeral();
    let _ = mtree.knn(&sets[0], 10, &ctx);
    let ms = ctx.stats(std::time::Duration::ZERO);
    assert!(ms.io.pages > 0);
    assert!(ms.io.pages <= mtree.page_store().page_count());
    assert!(ms.distance_evals > 0);
    assert_eq!(ms.cache.hits + ms.cache.misses, ms.cache.accesses());
}

#[test]
fn knn_results_identical_across_buffer_capacities() {
    // The buffer pool only changes what I/O costs, never what a query
    // returns: capacities 1, 8, and unbounded must give identical hits.
    let (sets, _) = aircraft_sets(250, 7, 17);
    let filter = FilterRefineIndex::build(&sets, 6, 7);
    let scan = SequentialScanIndex::build(&sets);
    let queries: Vec<VectorSet> = (0..10).map(|i| sets[i * 23].clone()).collect();

    let policies =
        [PoolPolicy::PerQuery(Some(1)), PoolPolicy::PerQuery(Some(8)), PoolPolicy::PerQuery(None)];
    let run = |p: &PoolPolicy| {
        let ex = QueryExecutor::new(p.clone());
        let f = ex.run_batch(&queries, |q, ctx| filter.knn_with(q, 10, ctx));
        (f, ex.run_batch(&queries, scan_10nn(&scan)))
    };
    let (baseline_f, baseline_s) = run(&policies[0]);
    for p in &policies[1..] {
        let (f, s) = run(p);
        assert_eq!(f.hits, baseline_f.hits, "{p:?}");
        assert_eq!(s.hits, baseline_s.hits, "{p:?}");
    }
    // Tiny pools thrash: capacity 1 must cost at least as many page
    // faults as unbounded on the filter path.
    let (unbounded, _) = run(&PoolPolicy::PerQuery(None));
    assert!(baseline_f.aggregate.io.pages >= unbounded.aggregate.io.pages);
}

#[test]
fn centroid_filter_bound_holds_on_real_data() {
    // Lemma 2 on datagen vector sets: no false dismissals possible.
    let (sets, _) = aircraft_sets(120, 7, 14);
    let mm = MinimalMatching::vector_set_model();
    let omega = vec![0.0; 6];
    for i in (0..sets.len()).step_by(7) {
        let ci = extended_centroid(&sets[i], 7, &omega);
        for j in (0..sets.len()).step_by(11) {
            let cj = extended_centroid(&sets[j], 7, &omega);
            let lb = centroid_lower_bound(&mm, &ci, &cj, 7);
            let exact = mm.distance_value(&sets[i], &sets[j]);
            assert!(lb <= exact + 1e-9, "Lemma 2 violated for ({i},{j}): {lb} > {exact}");
        }
    }
}

const PATHS: [Option<AccessPath>; 3] = [
    Some(AccessPath::XTreeCursor),
    Some(AccessPath::SeqScan),
    None, // the planner's choice
];

/// The one table for the one query path: kind × variants × access path
/// × refinement model. On every row `execute` equals a brute-force
/// `min_T dist(T(q), o)` scan bit for bit — ids in order, distance bits
/// — and the multi-step counters add up; single-variant k-NN rows also
/// equal the naive and Korn baselines and refine no more than Korn.
#[test]
fn execute_equals_brute_force_for_every_kind_variant_count_path_and_model() {
    let sets = random_sets(220, 7, 19);
    let scan = SequentialScanIndex::build(&sets);
    let syms = Mat3::cube_symmetries();
    for mm in [MinimalMatching::vector_set_model(), MinimalMatching::permutation_model()] {
        let idx = FilterRefineIndex::build(&sets, 6, 7).with_model(mm);
        for q in [&sets[7], &sets[140]] {
            // The 48 images of the query, built as `exp_table2` builds them.
            let images: Vec<VectorSet> = syms.iter().map(|m| transform_vector_set(q, m)).collect();
            let (naive, _) = knn_naive(&idx, 7, q, 10);
            let (korn, korn_stats) = knn_korn(&idx, &mm, 7, q, 10);
            // ε is itself a distance of the database, so `≤ ε` is
            // exercised on its boundary.
            for kind in [QueryKind::Knn(10), QueryKind::Range(naive[9].1)] {
                for variants in [&images[..1], &images[..3], &images[..]] {
                    let mut want: Vec<(u64, f64)> = sets
                        .iter()
                        .map(|o| variants.iter().map(|v| mm.distance_value(v, o)))
                        .map(|ds| ds.fold(f64::INFINITY, f64::min))
                        .enumerate()
                        .map(|(id, d)| (id as u64, d))
                        .collect();
                    want.sort_by(|a, b| a.1.total_cmp(&b.1));
                    match kind {
                        QueryKind::Knn(k) => want.truncate(k),
                        QueryKind::Range(eps) => want.retain(|h| h.1 <= eps),
                    }
                    assert!(want.len() >= 10, "a row must have something to find");
                    let bits = |hits: &[(u64, f64)]| {
                        hits.iter().map(|h| (h.0, h.1.to_bits())).collect::<Vec<_>>()
                    };

                    for path in PATHS {
                        let row = format!("{mm:?} {kind:?} x{} via {path:?}", variants.len());
                        let (got, s) = idx.run(&Query { variants, kind, path });
                        assert_eq!(bits(&got), bits(&want), "{row}");
                        assert_eq!(s.filter_steps, s.refinements + s.refinements_saved, "{row}");
                        assert!(s.f32_prefilter <= s.pruned && s.pruned <= s.refinements, "{row}");
                        if variants.len() == 1 && kind == QueryKind::Knn(10) {
                            assert_eq!(bits(&got), bits(&naive), "{row}: naive baseline");
                            assert_eq!(bits(&got), bits(&korn), "{row}: Korn baseline");
                            assert!(s.refinements <= korn_stats.refinements, "{row}: vs Korn");
                        }
                    }
                    if mm == MinimalMatching::vector_set_model() {
                        // The scan index refines with the vector-set model.
                        let (got, s) = scan.run(&Query { variants, kind, path: None });
                        assert_eq!(bits(&got), bits(&want), "scan {kind:?} x{}", variants.len());
                        assert_eq!(s.refinements, (sets.len() * variants.len()) as u64);
                    }
                }
            }
        }
    }
}

/// Queries nothing can answer — `k = 0`, no variants, a NaN ε — return
/// no hits without pulling a candidate or touching a page.
#[test]
fn vacuous_queries_return_nothing_without_pulling_a_candidate() {
    let sets = random_sets(60, 7, 20);
    let idx = FilterRefineIndex::build(&sets, 6, 7);
    let scan = SequentialScanIndex::build(&sets);
    let q = from_ref(&sets[3]);
    for (variants, kind) in [
        (q, QueryKind::Knn(0)),
        (q, QueryKind::Range(f64::NAN)),
        (&sets[..0], QueryKind::Knn(10)),
        (&sets[..0], QueryKind::Range(0.5)),
    ] {
        let runs = PATHS.map(|path| idx.run(&Query { variants, kind, path }));
        for (hits, s) in runs.into_iter().chain([scan.run(&Query { variants, kind, path: None })]) {
            assert!(hits.is_empty() && s.error.is_none(), "{kind:?}");
            assert_eq!((s.filter_steps, s.candidates, s.refinements, s.io.pages), (0, 0, 0, 0));
        }
    }
}
