//! The paper's core efficiency claim (Section 4.2): the minimal matching
//! distance costs `O(k³)` via Kuhn–Munkres instead of the `k!` of naive
//! permutation enumeration. This bench measures both as a function of k
//! (ablation: matching solver choice).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::prelude::*;
use vsim_setdist::matching::{brute_force_matching_distance, MinimalMatching};
use vsim_setdist::{MatchingEngine, VectorSet};

fn random_set(rng: &mut StdRng, k: usize) -> VectorSet {
    let mut s = VectorSet::new(6);
    for _ in 0..k {
        let v: Vec<f64> = (0..6).map(|_| rng.gen_range(0.05..1.0)).collect();
        s.push(&v);
    }
    s
}

fn bench_kuhn_munkres_vs_brute(c: &mut Criterion) {
    let mut g = c.benchmark_group("matching_distance");
    let mm = MinimalMatching::vector_set_model();
    for k in [3usize, 5, 7, 8] {
        let mut rng = StdRng::seed_from_u64(k as u64);
        let a = random_set(&mut rng, k);
        let b = random_set(&mut rng, k);
        g.bench_with_input(BenchmarkId::new("kuhn_munkres", k), &k, |bench, _| {
            bench.iter(|| mm.distance_value(std::hint::black_box(&a), std::hint::black_box(&b)))
        });
        g.bench_with_input(BenchmarkId::new("brute_force_k_factorial", k), &k, |bench, _| {
            bench.iter(|| {
                brute_force_matching_distance(
                    &mm,
                    std::hint::black_box(&a),
                    std::hint::black_box(&b),
                )
            })
        });
    }
    g.finish();
}

fn bench_matching_scaling(c: &mut Criterion) {
    // O(k^3) scaling beyond the brute-force-feasible region.
    let mut g = c.benchmark_group("matching_scaling");
    let mm = MinimalMatching::vector_set_model();
    for k in [8usize, 16, 32, 64] {
        let mut rng = StdRng::seed_from_u64(100 + k as u64);
        let a = random_set(&mut rng, k);
        let b = random_set(&mut rng, k);
        g.bench_with_input(BenchmarkId::from_parameter(k), &k, |bench, _| {
            bench.iter(|| mm.distance_value(std::hint::black_box(&a), std::hint::black_box(&b)))
        });
    }
    g.finish();
}

fn bench_unbalanced_sets(c: &mut Criterion) {
    // Different cardinalities: `match_sets` solves the n × m problem,
    // one row per element of the smaller set; unmatched elements of the
    // larger set pay their weight.
    let mut g = c.benchmark_group("matching_unbalanced");
    let mm = MinimalMatching::vector_set_model();
    let mut rng = StdRng::seed_from_u64(7);
    let a = random_set(&mut rng, 7);
    for nb in [1usize, 3, 5, 7] {
        let b = random_set(&mut rng, nb);
        g.bench_with_input(BenchmarkId::from_parameter(format!("7v{nb}")), &nb, |bench, _| {
            bench.iter(|| mm.distance_value(std::hint::black_box(&a), std::hint::black_box(&b)))
        });
    }
    g.finish();
}

fn bench_engine_vs_naive(c: &mut Criterion) {
    // The allocation-free engine, `distance(x, y, upper)`, against the
    // allocating `distance_value` path, at the paper's k range
    // (acceptance: a measured speedup at k = 7).
    let mut g = c.benchmark_group("matching_engine");
    let mm = MinimalMatching::vector_set_model();
    for k in [3usize, 7, 9] {
        let mut rng = StdRng::seed_from_u64(200 + k as u64);
        let a = random_set(&mut rng, k);
        let b = random_set(&mut rng, k);
        g.bench_with_input(BenchmarkId::new("naive_distance_value", k), &k, |bench, _| {
            bench.iter(|| mm.distance_value(std::hint::black_box(&a), std::hint::black_box(&b)))
        });
        let mut engine = MatchingEngine::new(mm.clone());
        let inf = f64::INFINITY;
        engine.distance(&a, &b, inf); // warm the scratch buffers
        g.bench_with_input(BenchmarkId::new("engine", k), &k, |bench, _| {
            bench.iter(|| engine.distance(std::hint::black_box(&a), std::hint::black_box(&b), inf))
        });
        let pa = engine.prepare(a.clone());
        let pb = engine.prepare(b.clone());
        g.bench_with_input(BenchmarkId::new("engine_prepared", k), &k, |bench, _| {
            bench
                .iter(|| engine.distance(std::hint::black_box(&pa), std::hint::black_box(&pb), inf))
        });
        // A tight bound (half the exact distance): measures the abort
        // path the k-NN refinement takes on losing candidates — query
        // prepared, candidate raw, f32 stage first.
        let upper = mm.distance_value(&a, &b) * 0.5;
        g.bench_with_input(BenchmarkId::new("engine_bounded_tight", k), &k, |bench, _| {
            bench.iter(|| {
                engine.distance(
                    std::hint::black_box(&pa),
                    std::hint::black_box(&b),
                    std::hint::black_box(upper),
                )
            })
        });
    }
    // Unequal sizes, prepared, `upper = ∞`: the exact stage's n × m
    // path, as `cluster` runs it for most pairs.
    let mut rng = StdRng::seed_from_u64(207);
    let mut engine = MatchingEngine::new(mm.clone());
    let pa = engine.prepare(random_set(&mut rng, 7));
    let inf = f64::INFINITY;
    for nb in [3usize, 5] {
        let pb = engine.prepare(random_set(&mut rng, nb));
        engine.distance(&pa, &pb, inf);
        let id = BenchmarkId::new("engine_prepared", format!("7v{nb}"));
        g.bench_with_input(id, &nb, |bench, _| {
            bench
                .iter(|| engine.distance(std::hint::black_box(&pa), std::hint::black_box(&pb), inf))
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_kuhn_munkres_vs_brute,
    bench_matching_scaling,
    bench_unbalanced_sets,
    bench_engine_vs_naive
);
criterion_main!(benches);
