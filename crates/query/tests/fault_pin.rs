//! The charges of one client through a bounded shared pool, pinned.
//!
//! With one client, which frame a miss evicts depends only on the order
//! of touches, so the hits, misses and evictions of a fixed query
//! sequence are a function of the pool's policy. The constants were
//! recorded with the shard-local exact LRU: a policy or charging change
//! that moves any of them shows here before it shows as a benchmark's
//! fault rate.
//!
//! This test is alone in its binary on purpose. A page's shard is a
//! hash of its store's process-wide id, and tests running beside it
//! would draw ids in scheduling order.

use rand::prelude::*;
use std::sync::Arc;
use vsim_index::{Backend, BufferPool, CacheCounts, QueryContext};
use vsim_query::FilterRefineIndex;
use vsim_setdist::VectorSet;

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
fn single_client_charges_through_a_bounded_pool_are_pinned() {
    // 8 000 sets save to well over 256 pages, so the pool (8 shards of
    // 32 frames, the `knn_file` shape) evicts on most misses.
    let sets = random_sets(8000, 5, 76);
    let path = std::env::temp_dir().join(format!("vsim_fault_pin_{}.vsix", std::process::id()));
    FilterRefineIndex::build(&sets, 6, 5).save(&path).unwrap();
    let file = FilterRefineIndex::open(&path).unwrap();
    assert_eq!(file.backend(), Backend::File);

    let pool = BufferPool::new(256);
    let mut summed = CacheCounts::default();
    for q in &random_sets(64, 5, 77) {
        let ctx = QueryContext::with_pool(Arc::clone(&pool));
        file.knn_with(q, 10, &ctx).unwrap();
        summed = summed + ctx.stats(std::time::Duration::ZERO).cache;
    }
    let _ = std::fs::remove_file(&path);
    assert_eq!(pool.stats().counts, summed, "pool totals are the queries' sum");
    assert_eq!(summed, CacheCounts { hits: 101_737, misses: 7_105, evictions: 6_849 });
}
