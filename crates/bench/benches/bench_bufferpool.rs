//! Buffer-pool behavior under the paper's access paths: cold per-query
//! pools (every page fault charged, the Table 2 accounting) vs. a shared
//! warm pool (capacity ≥ working set ⇒ repeat queries issue zero
//! simulated page costs). Also measures the pool's raw access overhead.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::prelude::*;
use std::sync::Arc;
use vsim_index::{checksum, BufferPool, InMemoryPageStore, PageStore, QueryContext, PAGE_SIZE};
use vsim_query::{FilterRefineIndex, QueryExecutor};
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

/// Raw pool overhead: hit and miss paths on a synthetic page stream.
fn bench_pool_access(c: &mut Criterion) {
    let mut g = c.benchmark_group("bufferpool_access");
    g.sample_size(30);
    let store = InMemoryPageStore::new();
    store.allocate(1024).unwrap();

    // 128 pages: every one of the 8 shards of 32 frames holds its part
    // of them (256 pages would overfill some shards and time misses).
    g.bench_function("hits_resident_working_set", |b| {
        let ctx = QueryContext::with_pool(BufferPool::new(256));
        ctx.access(store.id(), 0, 128);
        let mut p = 0u64;
        b.iter(|| {
            p = (p + 37) % 128;
            let missed = ctx.access(store.id(), p, 1);
            assert_eq!(missed, 0, "the working set is resident");
        })
    });

    // One `knn_mem`-shaped query's charge: a fresh per-query context
    // takes ≈ 250 distinct pages over a node store and a heap store,
    // and ≈ 75 repeats of pages it touched before.
    let stores = [InMemoryPageStore::new().id(), InMemoryPageStore::new().id()];
    let mut rng = StdRng::seed_from_u64(41);
    let mut touches: Vec<(usize, u64)> = Vec::with_capacity(325);
    for i in 0..325 {
        let touch = if i % 13 < 3 && !touches.is_empty() {
            touches[rng.gen_range(0..touches.len())]
        } else {
            (usize::from(i % 5 == 0), rng.gen_range(0..50_000))
        };
        touches.push(touch);
    }
    let distinct = touches.iter().collect::<std::collections::HashSet<_>>().len() as u64;
    g.bench_function("ephemeral_query", |b| {
        b.iter(|| {
            let ctx = QueryContext::ephemeral();
            for &(store, page) in &touches {
                ctx.access(stores[store], page, 1);
            }
            let s = ctx.stats(std::time::Duration::ZERO);
            assert_eq!(s.io.pages, distinct, "every distinct page misses once");
        })
    });

    g.bench_function("misses_streaming_evictions", |b| {
        let ctx = QueryContext::with_pool(BufferPool::new(64));
        let mut p = 0u64;
        b.iter(|| {
            p = (p + 1) % 1024; // working set ≫ capacity: always a miss
            ctx.access(store.id(), p, 1)
        })
    });

    // The file-backed read path, layer by layer: the checksum of one
    // page, a verified load served from a verified frame (no hash), and
    // one that reads, hashes and evicts.
    let image: Vec<u8> = (0..PAGE_SIZE).map(|i| (i * 31 + i / 5) as u8).collect();
    let sum = checksum(&image);
    for page in 0..1024 {
        store.write_page(page, &image).unwrap();
    }
    g.bench_function("checksum_page", |b| b.iter(|| checksum(std::hint::black_box(&image))));

    g.bench_function("load_verified_hit", |b| {
        let ctx = QueryContext::with_pool(BufferPool::unbounded());
        for page in 0..256 {
            ctx.load_verified(&store, page, sum).unwrap();
        }
        let mut p = 0u64;
        b.iter(|| {
            p = (p + 37) % 256;
            let (_, missed) = ctx.load_verified(&store, p, sum).unwrap();
            assert_eq!(missed, 0, "the working set is resident");
        })
    });

    // One exact LRU of 64 frames, then the `knn_file` pool's shape: 256
    // pages in 8 shards. Every miss reads, hashes and evicts.
    for (name, capacity) in [("load_verified_miss", 64), ("load_verified_miss_sharded", 256)] {
        g.bench_function(name, |b| {
            let ctx = QueryContext::with_pool(BufferPool::new(capacity));
            let mut p = 0u64;
            b.iter(|| {
                p = (p + 1) % 1024;
                let (_, missed) = ctx.load_verified(&store, p, sum).unwrap();
                assert_eq!(missed, 1, "working set ≫ capacity: always a miss");
            })
        });
    }
    g.finish();
}

/// k-NN through cold vs. warm pools; warm repeats must charge zero pages.
fn bench_knn_cold_vs_warm(c: &mut Criterion) {
    let mut g = c.benchmark_group("bufferpool_knn");
    g.sample_size(20);
    let sets = random_sets(1000, 5, 77);
    let idx = FilterRefineIndex::build(&sets, 6, 5);

    g.bench_function("cold_per_query_pool", |b| {
        let mut qi = 0usize;
        b.iter(|| {
            qi = (qi + 13) % sets.len();
            idx.knn(&sets[qi], 10)
        })
    });

    g.bench_function("warm_shared_pool", |b| {
        let pool = BufferPool::unbounded();
        // Prime the pool: an exhaustive k-NN touches every tree node and
        // every heap-file record, so repeat queries can only hit.
        let prime = QueryContext::with_pool(Arc::clone(&pool));
        let _ = idx.knn_with(&sets[0], sets.len(), &prime);
        let mut qi = 0usize;
        b.iter(|| {
            qi = (qi + 13) % sets.len();
            let ctx = QueryContext::with_pool(Arc::clone(&pool));
            let r = idx.knn_with(&sets[qi], 10, &ctx);
            let s = ctx.stats(std::time::Duration::ZERO);
            assert_eq!(s.io.pages, 0, "warm pool must charge zero page costs");
            r
        })
    });
    g.finish();
}

/// Batched executor throughput across pool policies.
fn bench_executor_batch(c: &mut Criterion) {
    let mut g = c.benchmark_group("bufferpool_executor_batch");
    g.sample_size(10);
    let sets = random_sets(1000, 5, 78);
    let idx = FilterRefineIndex::build(&sets, 6, 5);
    let queries: Vec<VectorSet> = (0..32).map(|i| sets[i * 31].clone()).collect();

    // 8 192 pages: room for the whole index (tree and heap file) on
    // every shard, so the shared pool never evicts.
    for (name, ex) in
        [("cold", QueryExecutor::cold()), ("warm_shared", QueryExecutor::shared(8192))]
    {
        g.bench_with_input(BenchmarkId::from_parameter(name), &name, |b, _| {
            b.iter(|| {
                let batch = ex.run_batch(&queries, |q, ctx| idx.knn_with(q, 10, ctx));
                assert_eq!(batch.aggregate.cache.evictions, 0, "the pool holds the working set");
                batch
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench_pool_access, bench_knn_cold_vs_warm, bench_executor_batch);
criterion_main!(benches);
