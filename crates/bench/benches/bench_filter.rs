//! Ablation: the extended-centroid filter step (Section 4.3) on vs. off
//! for k-NN and ε-range queries over synthetic vector sets.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::prelude::*;
use std::slice::from_ref;
use vsim_bench::SequentialScanIndex;
use vsim_query::{FilterRefineIndex, Query};
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

fn bench_knn(c: &mut Criterion) {
    let mut g = c.benchmark_group("knn_10");
    g.sample_size(20);
    for n in [500usize, 2000] {
        let sets = random_sets(n, 7, 3);
        let filter = FilterRefineIndex::build(&sets, 6, 7);
        let scan = SequentialScanIndex::build(&sets);
        g.bench_with_input(BenchmarkId::new("filter_refine", n), &n, |b, _| {
            let mut qi = 0usize;
            b.iter(|| {
                qi = (qi + 7) % n;
                filter.knn(&sets[qi], 10)
            })
        });
        g.bench_with_input(BenchmarkId::new("sequential_scan", n), &n, |b, _| {
            let mut qi = 0usize;
            b.iter(|| {
                qi = (qi + 7) % n;
                scan.run(&Query::knn(from_ref(&sets[qi]), 10))
            })
        });
    }
    g.finish();
}

fn bench_range(c: &mut Criterion) {
    let mut g = c.benchmark_group("range_query");
    g.sample_size(20);
    let n = 1000;
    let sets = random_sets(n, 7, 4);
    let filter = FilterRefineIndex::build(&sets, 6, 7);
    let scan = SequentialScanIndex::build(&sets);
    for eps in [0.1f64, 0.3, 0.6] {
        g.bench_with_input(BenchmarkId::new("filter_refine", format!("{eps}")), &eps, |b, &e| {
            let mut qi = 0usize;
            b.iter(|| {
                qi = (qi + 13) % n;
                filter.range_query(&sets[qi], e)
            })
        });
        g.bench_with_input(BenchmarkId::new("sequential_scan", format!("{eps}")), &eps, |b, &e| {
            let mut qi = 0usize;
            b.iter(|| {
                qi = (qi + 13) % n;
                scan.run(&Query::range(from_ref(&sets[qi]), e))
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench_knn, bench_range);
criterion_main!(benches);
