//! Query throughput under concurrent index churn → `BENCH_churn.json`.
//!
//! A writer thread drives the dynamic index lifecycle — incremental
//! inserts, tombstoning deletes, epoch publishes — while the batch
//! executor runs k-NN readers against pinned epoch snapshots. Readers
//! never block on the writer (an epoch pin is one `Arc` clone under a
//! read lock), so batch throughput under churn should stay close to the
//! static build-once baseline; this binary measures the gap and asserts
//! it stays within 2x. It also asserts the epoch machinery's
//! correctness anchors: a pre-churn batch pinned at generation 0 is
//! bit-identical to the static index's results, and every reader pins
//! exactly one epoch.
//!
//! `cargo run --release -p vsim-bench --bin exp_bench_churn`
//! (env: `AIRCRAFT_N` — dataset size, default 5000; `CHURN_BATCHES` —
//! reader batches per run, default 8; `CHURN_OPS` — writer ops per
//! publish, default 40; `BENCH_OUT` — output path, default
//! `BENCH_churn.json`)

use rand::prelude::*;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use vsim_bench::processed_aircraft;
use vsim_core::prelude::*;
use vsim_query::DynamicIndex;

fn env_usize(key: &str, default: usize) -> usize {
    std::env::var(key).ok().and_then(|v| v.parse().ok()).unwrap_or(default)
}

fn random_set(rng: &mut StdRng, k: usize) -> VectorSet {
    let card = rng.gen_range(1..=k);
    let mut s = VectorSet::new(6);
    for _ in 0..card {
        let v: Vec<f64> = (0..6).map(|_| rng.gen_range(0.05..1.0)).collect();
        s.push(&v);
    }
    s
}

fn main() {
    let k_covers = 7;
    let knn = 10;
    let n_queries = 25;
    let batches = env_usize("CHURN_BATCHES", 8);
    let ops_per_publish = env_usize("CHURN_OPS", 40);

    let p = processed_aircraft(k_covers);
    let sets = p.vector_sets(k_covers);
    let n = sets.len();
    let mut rng = StdRng::seed_from_u64(0xc4a0);
    let queries: Vec<VectorSet> =
        (0..n_queries).map(|_| sets[rng.gen_range(0..n)].clone()).collect();
    let ex = QueryExecutor::cold();

    // Static baseline: the build-once index, same batches.
    eprintln!("[setup] building static filter/refine index (n = {n}) ...");
    let static_idx = FilterRefineIndex::build(&sets, 6, k_covers);
    eprintln!("[run  ] static: {batches} x {n_queries} x {knn}-NN ...");
    let t0 = Instant::now();
    let mut static_hits: Vec<Vec<(u64, f64)>> = Vec::new();
    for b in 0..batches {
        let batch = ex.run_batch(&queries, |q, ctx| static_idx.knn_with(q, knn, ctx));
        assert!(batch.failed().is_empty(), "static batch {b} had failures");
        if b == 0 {
            static_hits = batch.hits;
        }
    }
    let wall_static = t0.elapsed();
    let qps_static = (batches * n_queries) as f64 / wall_static.as_secs_f64();

    // Dynamic index seeded with the same database. Generation 0 is a
    // snapshot of the same deterministic build, so a batch pinned there
    // must reproduce the static results bit for bit.
    eprintln!("[setup] building dynamic index ...");
    let idx = Arc::new(DynamicIndex::build(&sets, 6, k_covers).expect("dynamic build"));
    let (warm, gens) = ex.batch_knn_epoch(&idx, &queries, knn);
    assert!(gens.iter().all(|&g| g == 0), "pre-churn batch must pin generation 0");
    for (i, (a, b)) in warm.hits.iter().zip(&static_hits).enumerate() {
        assert_eq!(a.len(), b.len(), "query {i}: generation-0 result size");
        for (x, y) in a.iter().zip(b) {
            assert_eq!(x.0, y.0, "query {i}: generation-0 ids differ from static");
            assert_eq!(x.1.to_bits(), y.1.to_bits(), "query {i}: generation-0 distance bits");
        }
    }
    eprintln!("[ok   ] generation-0 epoch is bit-identical to the static index");

    // Writer thread: churn + publish until the readers are done.
    let stop = Arc::new(AtomicBool::new(false));
    let writer = {
        let idx = Arc::clone(&idx);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || -> (u64, u64, u64) {
            let ctx = QueryContext::ephemeral();
            let mut rng = StdRng::seed_from_u64(0x0b5e);
            let mut live: Vec<u64> = (0..n as u64).collect();
            let mut next_id = n as u64;
            let mut generations = 0u64;
            while !stop.load(Ordering::Relaxed) {
                for _ in 0..ops_per_publish {
                    // Mean-reverting around the static size n, so the
                    // readers' workload stays comparable to the
                    // baseline instead of drifting bigger or smaller.
                    let insert = if live.len() < n.saturating_sub(ops_per_publish) {
                        true
                    } else if live.len() > n + ops_per_publish {
                        false
                    } else {
                        rng.gen_bool(0.5)
                    };
                    if insert {
                        idx.insert(&random_set(&mut rng, k_covers), &ctx).expect("insert");
                        live.push(next_id);
                        next_id += 1;
                    } else {
                        let id = live.swap_remove(rng.gen_range(0..live.len()));
                        assert!(idx.delete(id, &ctx).expect("delete"));
                    }
                }
                idx.publish().expect("publish");
                generations += 1;
                // Publishing deep-copies the index; pace it like a real
                // writer instead of saturating the allocator.
                std::thread::sleep(Duration::from_millis(1));
            }
            let s = ctx.stats(Duration::ZERO);
            (s.inserts, s.deletes, generations)
        })
    };

    eprintln!("[run  ] churn: {batches} x {n_queries} x {knn}-NN with a concurrent writer ...");
    let t0 = Instant::now();
    let mut epoch_pins = 0u64;
    let mut max_gen = 0u64;
    for b in 0..batches {
        let (batch, gens) = ex.batch_knn_epoch(&idx, &queries, knn);
        assert!(batch.failed().is_empty(), "churn batch {b} had failures");
        assert_eq!(
            batch.aggregate.epoch_pins, n_queries as u64,
            "churn batch {b}: one epoch pin per reader"
        );
        epoch_pins += batch.aggregate.epoch_pins;
        max_gen = max_gen.max(gens.into_iter().max().unwrap_or(0));
    }
    let wall_churn = t0.elapsed();
    stop.store(true, Ordering::Relaxed);
    let (inserts, deletes, generations) = writer.join().expect("writer thread");
    let qps_churn = (batches * n_queries) as f64 / wall_churn.as_secs_f64();
    let slowdown = qps_static / qps_churn;

    eprintln!(
        "[res  ] static {qps_static:.0} q/s  churn {qps_churn:.0} q/s  (slowdown {slowdown:.2}x)"
    );
    eprintln!(
        "[res  ] writer: {inserts} inserts, {deletes} deletes, {generations} generations \
         (readers saw up to generation {max_gen}); live now {}",
        idx.live_len()
    );
    assert!(
        slowdown <= 2.0,
        "churn throughput {qps_churn:.0} q/s is more than 2x below the static \
         baseline {qps_static:.0} q/s"
    );
    assert!(generations > 0, "the writer must have published at least one epoch");

    let json = format!(
        "{{\n  \"bench\": \"churn\",\n  \"dataset\": \"aircraft\",\n  \"n\": {n},\n  \
         \"k_covers\": {k_covers},\n  \"queries\": {n_queries},\n  \"knn\": {knn},\n  \
         \"batches\": {batches},\n  \"ops_per_publish\": {ops_per_publish},\n  \
         \"static\": {{\n    \"wall_ms\": {:.2},\n    \"qps\": {qps_static:.1}\n  }},\n  \
         \"churn\": {{\n    \"wall_ms\": {:.2},\n    \"qps\": {qps_churn:.1},\n    \
         \"generations\": {generations},\n    \"inserts\": {inserts},\n    \
         \"deletes\": {deletes},\n    \"epoch_pins\": {epoch_pins},\n    \
         \"max_generation_seen\": {max_gen},\n    \"live_final\": {}\n  }},\n  \
         \"slowdown\": {slowdown:.3},\n  \"within_2x\": true,\n  \
         \"generation0_bit_identical\": true\n}}\n",
        wall_static.as_secs_f64() * 1e3,
        wall_churn.as_secs_f64() * 1e3,
        idx.live_len(),
    );

    let out = std::env::var("BENCH_OUT").unwrap_or_else(|_| "BENCH_churn.json".into());
    std::fs::write(&out, &json).expect("cannot write BENCH output");
    println!("{json}");
    eprintln!("[done ] written to {out}");
}
