//! Ablation (DESIGN.md §7): access-method choice for vector-set k-NN —
//! the paper's centroid-filter X-tree pipeline vs. the M-tree it
//! mentions as the "simplest approach" (Section 4.3) vs. a sequential
//! scan, across database sizes. Reports exact-distance computations,
//! simulated I/O, and measured CPU per query.
//!
//! All three access paths run their query workload through the same
//! [`QueryExecutor`] (cold per-query buffer pools), so the comparison is
//! apples-to-apples down to the accounting. The filter/refine row runs
//! on whichever access path the cost-based planner picks for each
//! database size (shown in the row label).
//!
//! `cargo run --release -p vsim-bench --bin exp_ablation_index`
//! (env: `AIRCRAFT_N` caps the largest size)

use std::slice::from_ref;
use std::sync::Arc;
use vsim_core::prelude::*;
use vsim_setdist::Distance;

fn report(n: usize, name: &str, comps: u64, io: f64, cpu_ms: f64) {
    println!("{:>6} {:20} {:>12} {:>12.2} {:>12.1}", n, name, comps, io, cpu_ms);
}

fn main() {
    let max_n = vsim_bench::aircraft_n().min(4000);
    let k_covers = 7;
    let n_queries = 30;
    let knn = 10;

    println!(
        "\n=== Index ablation: vector-set {knn}-NN, {n_queries} queries each ===\n\
         {:>6} {:20} {:>12} {:>12} {:>12}",
        "n", "access path", "dist.comps", "I/O [s]", "CPU [ms]"
    );

    for n in [500usize, 1000, 2000, max_n] {
        if n > max_n {
            continue;
        }
        let data = aircraft_dataset(1, n);
        let p = ProcessedDataset::build(data, k_covers);
        let sets = p.vector_sets(k_covers);
        let cm = CostModel::default();
        let queries: Vec<VectorSet> =
            (0..n_queries).map(|qi| sets[(qi * 53) % n].clone()).collect();
        let ex = QueryExecutor::cold();

        // Filter/refine on the planner-chosen access path: distance
        // computations = refinements.
        let filter = FilterRefineIndex::build(&sets, 6, k_covers);
        let (b, path) = ex.batch_knn_planned(&filter, &queries, knn);
        report(
            n,
            &format!("filter ({path})"),
            b.aggregate.refinements,
            b.aggregate.io_seconds(&cm),
            b.aggregate.cpu.as_secs_f64() * 1e3,
        );

        // M-tree directly on the metric: distance computations counted
        // by the tree itself (routing + leaf evaluations).
        let dist: Arc<dyn Distance<VectorSet>> = Arc::new(MinimalMatching::vector_set_model());
        let mut mtree: MTree<VectorSet> = MTree::new(dist, 16, 344);
        for (i, s) in sets.iter().enumerate() {
            mtree.insert(s.clone(), i as u64);
        }
        let b = ex.run_batch(&queries, |q, ctx| Ok(mtree.knn(q, knn, ctx)));
        report(
            n,
            "M-tree",
            b.aggregate.distance_evals,
            b.aggregate.io_seconds(&cm),
            b.aggregate.cpu.as_secs_f64() * 1e3,
        );

        // Sequential scan: one exact distance per object per query.
        let scan = SequentialScanIndex::build(&sets);
        let b = ex.run_batch(&queries, |q, ctx| scan.execute(&Query::knn(from_ref(q), knn), ctx));
        report(
            n,
            "sequential scan",
            b.aggregate.refinements,
            b.aggregate.io_seconds(&cm),
            b.aggregate.cpu.as_secs_f64() * 1e3,
        );
    }
    println!(
        "\nexpected: both index paths prune a large share of the exact \
         matching-distance computations; the M-tree needs no filter bound \
         (metric pruning) but computes distances during routing; the scan \
         is the distance-computation upper bound."
    );
}
