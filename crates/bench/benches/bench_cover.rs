//! Cost of the greedy cover-sequence search (Section 3.3.3) — the
//! dominant preprocessing step — as a function of the number of covers k
//! and the raster resolution r, and over real aircraft parts.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use vsim_features::greedy_cover_sequence;
use vsim_geom::solid::{difference, CylinderZ, SolidExt};
use vsim_voxel::{voxelize_solid, NormalizeMode, VoxelGrid};

fn test_grid(r: usize) -> VoxelGrid {
    let tube = difference(
        CylinderZ { radius: 1.0, half_height: 1.0 }.boxed(),
        CylinderZ { radius: 0.45, half_height: 1.5 }.boxed(),
    );
    voxelize_solid(tube.as_ref(), r, NormalizeMode::Uniform).grid
}

fn bench_k_sweep(c: &mut Criterion) {
    let mut g = c.benchmark_group("greedy_cover_k");
    g.sample_size(10);
    let grid = test_grid(15);
    for k in [3usize, 5, 7, 9] {
        g.bench_with_input(BenchmarkId::from_parameter(k), &k, |b, &k| {
            b.iter(|| greedy_cover_sequence(std::hint::black_box(&grid), k))
        });
    }
    g.finish();
}

/// r = 31 is the largest raster searched in `i16` lanes, r = 32 the
/// smallest in `i32`.
fn bench_r_sweep(c: &mut Criterion) {
    let mut g = c.benchmark_group("greedy_cover_r");
    g.sample_size(10);
    for r in [10usize, 15, 20, 31, 32] {
        let grid = test_grid(r);
        g.bench_with_input(BenchmarkId::from_parameter(r), &r, |b, _| {
            b.iter(|| greedy_cover_sequence(std::hint::black_box(&grid), 7))
        });
    }
    g.finish();
}

/// The tube has one shape; how much of the search the bound prunes
/// differs between a nut, a washer and a wing.
fn bench_aircraft(c: &mut Criterion) {
    let mut g = c.benchmark_group("greedy_cover_aircraft");
    g.sample_size(10);
    let parts = vsim_datagen::aircraft::aircraft_dataset(7, 64);
    g.bench_function("64_parts_k7", |b| {
        b.iter(|| {
            for o in &parts.objects {
                std::hint::black_box(greedy_cover_sequence(std::hint::black_box(&o.grid15), 7));
            }
        })
    });
    g.finish();
}

criterion_group!(benches, bench_k_sweep, bench_r_sweep, bench_aircraft);
criterion_main!(benches);
