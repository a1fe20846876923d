//! OPTICS evaluation-harness cost: a whole-dataset cluster ordering
//! under the vector set model (the workhorse behind Figures 6-9), plus
//! the per-distance-model comparison at fixed n.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use vsim_bench::{Corpus, SimilarityModel};
use vsim_core::prelude::*;

fn bench_optics_scaling(c: &mut Criterion) {
    let mut g = c.benchmark_group("optics_vector_set");
    g.sample_size(10);
    for n in [50usize, 100, 200] {
        let p = Corpus::car(5, n, 7);
        let model = SimilarityModel::vector_set(7);
        let reprs = model.representations(&p);
        g.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| {
                let matrix = model.pairwise_matrix(&reprs);
                Optics { min_pts: 5, eps: f64::INFINITY }.run_matrix(&matrix)
            })
        });
    }
    g.finish();
}

fn bench_optics_by_model(c: &mut Criterion) {
    let mut g = c.benchmark_group("optics_by_model");
    g.sample_size(10);
    let n = 100;
    let p = Corpus::car(6, n, 7);
    let models = [
        SimilarityModel::volume(6),
        SimilarityModel::solid_angle(6, 3),
        SimilarityModel::cover_sequence(7),
        SimilarityModel::vector_set(7),
    ];
    for model in models {
        let reprs = model.representations(&p);
        g.bench_with_input(BenchmarkId::from_parameter(model.name()), &model, |b, m| {
            b.iter(|| {
                let matrix = m.pairwise_matrix(&reprs);
                Optics { min_pts: 5, eps: f64::INFINITY }.run_matrix(&matrix)
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench_optics_scaling, bench_optics_by_model);
criterion_main!(benches);
