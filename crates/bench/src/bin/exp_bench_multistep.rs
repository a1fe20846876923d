//! Optimal multi-step k-NN vs. the batch filter/refine baseline →
//! `BENCH_multistep.json`.
//!
//! The optimal multi-step algorithm (Seidl & Kriegel [29]) pulls
//! candidates lazily from the incremental centroid ranking and tightens
//! its refinement bound after every exact distance; the batch (Korn
//! style) baseline fixes a conservative cutoff `d_max` from the first
//! `kq` refinements and then refines everything the filter cannot
//! exclude at that cutoff. Both are correct and return bit-identical
//! results (asserted here per query); the optimal path never performs
//! more exact refinements and usually performs strictly fewer — this
//! binary measures that gap on the Aircraft Dataset, plus the cost-based
//! planner's access-path choice for the same workload.
//!
//! `cargo run --release -p vsim-bench --bin exp_bench_multistep`
//! (env: `AIRCRAFT_N` — dataset size, default 5000; `BENCH_OUT` —
//! output path, default `BENCH_multistep.json`)

use rand::prelude::*;
use std::time::Instant;
use vsim_bench::{knn_korn, processed_aircraft};
use vsim_core::prelude::*;
use vsim_query::{AccessPath, QueryExecutor};

fn main() {
    let k_covers = 7;
    let knn = 10;
    let n_queries = 25;
    let p = processed_aircraft(k_covers);
    let sets = p.vector_sets(k_covers);
    let n = sets.len();
    eprintln!("[setup] building filter/refine index (n = {n}) ...");
    let idx = FilterRefineIndex::build(&sets, 6, k_covers);

    let plan = idx.plan_knn(knn);
    eprintln!("[plan ] chosen access path: {} ({:.2} ms est)", plan.path, plan.chosen_ms());
    for (path, ms) in plan.est_ms {
        eprintln!("[plan ]   {path}: {ms:.2} ms");
    }

    let mut rng = StdRng::seed_from_u64(0xbead);
    let queries: Vec<usize> = (0..n_queries).map(|_| rng.gen_range(0..n)).collect();

    eprintln!("[run ] {n_queries} x {knn}-NN, batch baseline (Korn-style d_max cutoff) ...");
    let model = MinimalMatching::vector_set_model();
    let t0 = Instant::now();
    let batch: Vec<_> =
        queries.iter().map(|&q| knn_korn(&idx, &model, k_covers, &sets[q], knn)).collect();
    let wall_batch = t0.elapsed();

    eprintln!("[run ] {n_queries} x {knn}-NN, optimal multi-step ...");
    let t0 = Instant::now();
    let optimal: Vec<_> = queries.iter().map(|&q| idx.knn(&sets[q], knn)).collect();
    let wall_optimal = t0.elapsed();

    let mut ref_batch = 0u64;
    let mut ref_optimal = 0u64;
    let mut steps_batch = 0u64;
    let mut steps_optimal = 0u64;
    let mut saved_optimal = 0u64;
    let mut strictly_fewer = 0usize;
    for (i, ((rb, sb), (ro, so))) in batch.iter().zip(&optimal).enumerate() {
        assert_eq!(rb.len(), ro.len(), "query {i}: result sizes differ");
        for (a, b) in rb.iter().zip(ro) {
            assert_eq!(a.0, b.0, "query {i}: batch and multi-step disagree on ids");
            assert_eq!(a.1.to_bits(), b.1.to_bits(), "query {i}: distances not bit-identical");
        }
        assert!(
            so.refinements <= sb.refinements,
            "query {i}: optimal refined {} > batch {}",
            so.refinements,
            sb.refinements
        );
        if so.refinements < sb.refinements {
            strictly_fewer += 1;
        }
        ref_batch += sb.refinements;
        ref_optimal += so.refinements;
        steps_batch += sb.filter_steps;
        steps_optimal += so.filter_steps;
        saved_optimal += so.refinements_saved;
    }
    eprintln!(
        "[res ] refinements: batch {ref_batch}  optimal {ref_optimal}  \
         (strictly fewer on {strictly_fewer}/{n_queries} queries)"
    );
    eprintln!(
        "[res ] wall: batch {:.1} ms  optimal {:.1} ms",
        wall_batch.as_secs_f64() * 1e3,
        wall_optimal.as_secs_f64() * 1e3
    );

    // The planned batch executor must agree bit-for-bit with the
    // per-query path regardless of which access path the planner picks.
    let query_sets: Vec<_> = queries.iter().map(|&q| sets[q].clone()).collect();
    let (planned, chosen) = QueryExecutor::cold().batch_knn_planned(&idx, &query_sets, knn);
    for (i, (hits, (ro, _))) in planned.hits.iter().zip(&optimal).enumerate() {
        assert_eq!(hits.len(), ro.len(), "query {i}: planned batch result size differs");
        for (a, b) in hits.iter().zip(ro) {
            assert_eq!(a.0, b.0, "query {i}: planned batch ids differ");
            assert_eq!(a.1.to_bits(), b.1.to_bits(), "query {i}: planned batch distances differ");
        }
    }
    eprintln!("[res ] planned batch executor: path {chosen}, results bit-identical");

    // Tiny datasets should plan a sequential scan; the CI smoke run
    // (AIRCRAFT_N=60) exercises that branch, the full run the X-tree.
    let expect_scan = n < 200;
    if expect_scan {
        assert_eq!(plan.path, AccessPath::SeqScan, "tiny dataset should plan a scan");
    }

    let est_json: Vec<String> = plan
        .est_ms
        .iter()
        .map(|(p, ms)| format!("    {{\"path\": \"{p}\", \"est_ms\": {ms:.3}}}"))
        .collect();
    let json = format!(
        "{{\n  \"bench\": \"multistep_knn\",\n  \"dataset\": \"aircraft\",\n  \"n\": {n},\n  \"k_covers\": {k_covers},\n  \"queries\": {n_queries},\n  \"knn\": {knn},\n  \"planner_choice\": \"{}\",\n  \"planner_estimates\": [\n{}\n  ],\n  \"batch\": {{\n    \"wall_ms\": {:.2},\n    \"filter_steps\": {steps_batch},\n    \"refinements\": {ref_batch}\n  }},\n  \"multistep\": {{\n    \"wall_ms\": {:.2},\n    \"filter_steps\": {steps_optimal},\n    \"refinements\": {ref_optimal},\n    \"refinements_saved\": {saved_optimal}\n  }},\n  \"refinements_delta\": {},\n  \"queries_strictly_fewer\": {strictly_fewer},\n  \"bit_identical\": true\n}}\n",
        plan.path,
        est_json.join(",\n"),
        wall_batch.as_secs_f64() * 1e3,
        wall_optimal.as_secs_f64() * 1e3,
        ref_batch - ref_optimal,
    );

    let out = std::env::var("BENCH_OUT").unwrap_or_else(|_| "BENCH_multistep.json".into());
    std::fs::write(&out, &json).expect("cannot write BENCH output");
    println!("{json}");
    eprintln!("[done] written to {out}");
}
