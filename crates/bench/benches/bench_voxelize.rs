//! Voxelization substrate costs: implicit solids (center sampling) vs.
//! triangle meshes (SAT rasterization + flood fill), at the paper's two
//! raster resolutions.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::prelude::*;
use vsim_datagen::aircraft::aircraft_families;
use vsim_datagen::greeble::standard_greebles;
use vsim_datagen::{dataset_solids, parts};
use vsim_geom::solid::{CylinderZ, SolidExt, TorusZ};
use vsim_geom::TriMesh;
use vsim_voxel::{voxelize_mesh, voxelize_solid, NormalizeMode};

fn bench_solid(c: &mut Criterion) {
    let mut g = c.benchmark_group("voxelize_solid");
    let torus = TorusZ { major: 2.0, minor: 0.6 }.boxed();
    for r in [15usize, 30] {
        g.bench_with_input(BenchmarkId::new("torus", r), &r, |b, &r| {
            b.iter(|| voxelize_solid(torus.as_ref(), r, NormalizeMode::Uniform))
        });
    }
    let nested = vsim_geom::solid::difference(
        CylinderZ { radius: 1.0, half_height: 1.0 }.boxed(),
        CylinderZ { radius: 0.5, half_height: 1.5 }.boxed(),
    );
    for r in [15usize, 30] {
        g.bench_with_input(BenchmarkId::new("csg_tube", r), &r, |b, &r| {
            b.iter(|| voxelize_solid(nested.as_ref(), r, NormalizeMode::Uniform))
        });
    }
    // What `ingest` voxelizes: a part under its greebles, a tree of
    // unions, differences and `translated(..)` nodes. The bare torus above
    // only ever takes `contains_row`'s default loop; these take the
    // combinators' overrides (the wing `TaperZ`'s too).
    let mut rng = StdRng::seed_from_u64(24);
    let greebled = [
        ("greebled_nut", standard_greebles(parts::nut(1.0, 0.6, 0.5), &mut rng)),
        ("greebled_bolt", standard_greebles(parts::bolt(0.4, 2.0, 0.8, 0.4), &mut rng)),
        ("greebled_wing", standard_greebles(parts::wing(6.0, 2.0, 0.35, 0.3), &mut rng)),
    ];
    for (name, solid) in &greebled {
        for r in [15usize, 30] {
            g.bench_with_input(BenchmarkId::new(*name, r), &r, |b, &r| {
                b.iter(|| voxelize_solid(solid.as_ref(), r, NormalizeMode::Uniform))
            });
        }
    }
    g.finish();
}

/// The greebled solids `aircraft_dataset(7, 64)` voxelizes, in the
/// catalogue's mix of nuts, rivets and wings: what `ingest` pays per
/// object at each raster, where the three parts above are hand-picked.
fn bench_aircraft(c: &mut Criterion) {
    let mut g = c.benchmark_group("voxelize_aircraft");
    g.sample_size(20);
    let solids = dataset_solids(&aircraft_families(), 64, 7);
    for r in [15usize, 30] {
        g.bench_function(format!("64_parts_r{r}"), |b| {
            b.iter(|| {
                for s in &solids {
                    std::hint::black_box(voxelize_solid(s.as_ref(), r, NormalizeMode::Uniform));
                }
            })
        });
    }
    g.finish();
}

fn bench_mesh(c: &mut Criterion) {
    let mut g = c.benchmark_group("voxelize_mesh");
    g.sample_size(30);
    let sphere = TriMesh::make_sphere(1.0, 24, 48);
    let cyl = TriMesh::make_cylinder(1.0, 2.0, 64);
    for r in [15usize, 30] {
        g.bench_with_input(
            BenchmarkId::new(format!("sphere_{}tris", sphere.triangles.len()), r),
            &r,
            |b, &r| b.iter(|| voxelize_mesh(&sphere, r, NormalizeMode::Uniform)),
        );
        g.bench_with_input(
            BenchmarkId::new(format!("cylinder_{}tris", cyl.triangles.len()), r),
            &r,
            |b, &r| b.iter(|| voxelize_mesh(&cyl, r, NormalizeMode::Uniform)),
        );
    }
    g.finish();
}

criterion_group!(benches, bench_solid, bench_aircraft, bench_mesh);
criterion_main!(benches);
