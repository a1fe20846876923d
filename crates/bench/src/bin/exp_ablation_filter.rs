//! Ablation (DESIGN.md §7): selectivity of the extended-centroid filter
//! (Lemma 2) across the number of covers k and the query radius ε —
//! candidates per ε-range query, exact results, and the resulting
//! filter efficiency (fraction of the database pruned without an exact
//! distance computation).
//!
//! The per-(k, ε) query workloads run batched on the [`QueryExecutor`]
//! with cold per-query buffer pools, on the access path the cost-based
//! planner picks for each index (printed per k).
//!
//! `cargo run --release -p vsim-bench --bin exp_ablation_filter`

use std::slice::from_ref;
use vsim_bench::processed_aircraft;
use vsim_core::prelude::*;

fn main() {
    let p = processed_aircraft(9).processed;
    let n = p.len();
    let n_queries = 25;

    println!(
        "\n=== Centroid-filter selectivity (Aircraft, n = {n}, {n_queries} range queries) ===\n\
         {:>3} {:>8} {:>12} {:>12} {:>12} {:>10}",
        "k", "eps", "candidates", "results", "cand/result", "pruned"
    );
    let ex = QueryExecutor::cold();
    for k in [3usize, 5, 7, 9] {
        let sets = p.vector_sets(k);
        let index = FilterRefineIndex::build(&sets, 6, k);
        let queries: Vec<VectorSet> =
            (0..n_queries).map(|qi| sets[(qi * 101) % n].clone()).collect();
        // One plan per index: the statistics are per-dataset, not per-query.
        let path = index.plan_range().path;
        eprintln!("[plan ] k = {k}: planner picks {path}");
        for eps in [0.1f64, 0.25, 0.5, 1.0] {
            let batch = ex.run_batch(&queries, |q, ctx| {
                index.execute(&Query::range(from_ref(q), eps).via(path), ctx)
            });
            let cands = batch.aggregate.refinements as usize;
            let results: usize = batch.hits.iter().map(|h| h.len()).sum();
            let pruned = 1.0 - cands as f64 / (n * n_queries) as f64;
            println!(
                "{:>3} {:>8.2} {:>12} {:>12} {:>12.1} {:>9.1}%",
                k,
                eps,
                cands,
                results,
                cands as f64 / results.max(1) as f64,
                100.0 * pruned
            );
        }
    }
    println!(
        "\nreading: 'pruned' is the share of the database never refined \
         (the filter's benefit); 'cand/result' is the refinement overhead \
         per reported object (1.0 = perfect filter). Selectivity improves \
         for small eps and degrades as eps approaches the data diameter."
    );
}
