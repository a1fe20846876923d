//! Access-method ablation: X-tree k-NN across dimensionalities (the
//! curse of dimensionality that motivates the 6-d centroid filter) and
//! M-tree k-NN directly on the metric vector-set distance.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::prelude::*;
use std::sync::Arc;
use vsim_index::{MTree, PointFile, QueryContext, VectorSetStore, XTree};
use vsim_setdist::matching::MinimalMatching;
use vsim_setdist::{Distance, VectorSet};

fn random_points(n: usize, dim: usize, seed: u64) -> Vec<Vec<f64>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n).map(|_| (0..dim).map(|_| rng.gen_range(0.0..1.0)).collect()).collect()
}

fn bench_xtree_dimensionality(c: &mut Criterion) {
    let mut g = c.benchmark_group("xtree_knn_by_dim");
    g.sample_size(30);
    let n = 2000;
    for dim in [2usize, 6, 12, 42] {
        let pts = random_points(n, dim, dim as u64);
        let tree = insert_built(&pts);
        g.bench_with_input(BenchmarkId::from_parameter(dim), &dim, |b, _| {
            let mut qi = 0usize;
            b.iter(|| {
                qi = (qi + 31) % n;
                tree.knn(&pts[qi], 10, &QueryContext::ephemeral())
            })
        });
    }
    g.finish();
}

/// A tree over 2 000 points built by inserting them one at a time, at
/// 6-d (the centroids) and 42-d (the one-vector baseline, which is
/// built so), and packed at 6-d, as `FilterRefineIndex::build` does.
fn bench_xtree_build(c: &mut Criterion) {
    let mut g = c.benchmark_group("xtree_build");
    g.sample_size(10);
    for dim in [6usize, 42] {
        let pts = random_points(2000, dim, 7);
        g.bench_with_input(BenchmarkId::new("inserted", dim), &dim, |b, _| {
            b.iter(|| insert_built(&pts).len())
        });
    }
    let pts = random_points(2000, 6, 7);
    g.bench_with_input(BenchmarkId::new("packed", 6), &6, |b, _| {
        b.iter(|| XTree::bulk_load(6, &pts).len())
    });
    g.finish();
}

/// Centroid-like data: points jittered around 120 overlapping centres
/// of unequal spread, sized so that 250 pulls at n = 50 000 read about
/// what a 10-NN query of the benchmark's `knn_mem` reads: ≈ 62 node
/// pages and ≈ 3 700 leaf points of the packed tree (the benchmark's
/// query ≈ 55 node pages), ≈ 86 and ≈ 3 100 of an insert-built one.
fn clustered_points(n: usize, dim: usize, seed: u64) -> Vec<Vec<f64>> {
    let mut rng = StdRng::seed_from_u64(seed);
    let centres: Vec<(Vec<f64>, f64)> = (0..120)
        .map(|_| ((0..dim).map(|_| rng.gen_range(0.0..0.4)).collect(), rng.gen_range(0.03..0.12)))
        .collect();
    (0..n)
        .map(|_| {
            let (c, spread) = &centres[rng.gen_range(0..centres.len())];
            c.iter().map(|&v| v + rng.gen_range(-spread..*spread)).collect()
        })
        .collect()
}

/// Sets of one to seven 6-d vectors, as the covers of an object are.
fn random_sets(n: usize, seed: u64) -> Vec<VectorSet> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let mut s = VectorSet::new(6);
            for _ in 0..rng.gen_range(1..=7usize) {
                let v: Vec<f64> = (0..6).map(|_| rng.gen_range(0.05..1.0)).collect();
                s.push(&v);
            }
            s
        })
        .collect()
}

fn insert_built(pts: &[Vec<f64>]) -> XTree {
    let mut tree = XTree::new(pts[0].len());
    for (i, p) in pts.iter().enumerate() {
        tree.insert(p, i as u64);
    }
    tree
}

/// The filter step alone, at the benchmark's size: what one 10-NN query
/// of `knn_mem` pulls from the cursor before the multi-step loop stops,
/// on a packed tree as `FilterRefineIndex::build` makes it.
fn bench_xtree_pull(c: &mut Criterion) {
    let mut g = c.benchmark_group("xtree_pull");
    g.sample_size(30);
    let pts = clustered_points(50_000, 6, 19);
    let tree = XTree::bulk_load(6, &pts);
    g.bench_function("250_pulls_n50000", |b| {
        let mut qi = 0usize;
        b.iter(|| {
            qi = (qi + 7919) % pts.len();
            let ctx = QueryContext::ephemeral();
            tree.nn_iter(&pts[qi], &ctx).take(250).map(|(id, _)| id).sum::<u64>()
        })
    });
    g.finish();
}

/// One `churn` round's share of the X-tree: 150 deletes, 150 inserts,
/// on a tree that starts packed, as a `DynamicIndex` does.
fn bench_xtree_churn(c: &mut Criterion) {
    let mut g = c.benchmark_group("xtree_churn");
    g.sample_size(20);
    let pts = clustered_points(20_000, 6, 23);
    let mut tree = XTree::bulk_load(6, &pts);
    g.bench_function("150_deletes_150_inserts_n20000", |b| {
        let mut at = 0usize;
        b.iter(|| {
            let round: Vec<usize> = (0..150).map(|j| (at + j * 131) % pts.len()).collect();
            at = (at + 150 * 131) % pts.len();
            for &i in &round {
                assert!(tree.delete(&pts[i], i as u64));
            }
            for &i in &round {
                tree.insert(&pts[i], i as u64);
            }
            tree.len()
        })
    });
    g.finish();
}

/// What `DynamicIndex::publish` costs the writer, on the three
/// structures of the filter/refine index alone: one `churn` round (150
/// deletes, 150 inserts) by itself, and the same round followed by the
/// three `snapshot()`s, the snapshots before them kept alive through
/// the round as a published epoch is. The second minus the first is the
/// publish: pointer clones, the round's first-touch copies of what the
/// snapshot shares, and the free of the snapshot it replaces. The round
/// itself grows with n — an X-tree delete searches every subtree whose
/// rectangle holds the point — the publish by the pointer clones only;
/// copying all three structures, as it used to, was ten times the work
/// at ten times the points. The tree starts packed, as a
/// `DynamicIndex` does.
fn bench_index_publish(c: &mut Criterion) {
    let mut g = c.benchmark_group("index_publish");
    g.sample_size(20);
    let pool = random_sets(1024, 29);
    for n in [20_000usize, 200_000] {
        let pts = clustered_points(n, 6, 23);
        let mut tree = XTree::bulk_load(6, &pts);
        let mut points = PointFile::build(6, &pts);
        let mut heap = VectorSetStore::build(&[]);
        for i in 0..n {
            heap.append(&pool[i % pool.len()]).unwrap();
        }
        let mut at = 0usize;
        let mut round = |tree: &mut XTree, points: &mut PointFile, heap: &mut VectorSetStore| {
            let ids: Vec<usize> = (0..150).map(|j| (at + j * 131) % n).collect();
            at = (at + 150 * 131) % n;
            for &i in &ids {
                assert!(tree.delete(&pts[i], i as u64));
                points.tombstone(i as u64);
                heap.tombstone(i as u64);
            }
            for &i in &ids {
                tree.insert(&pts[i], i as u64);
                points.append(&pts[i]).unwrap();
                heap.append(&pool[i % pool.len()]).unwrap();
            }
        };
        g.bench_with_input(BenchmarkId::new("round", n), &n, |b, _| {
            b.iter(|| {
                round(&mut tree, &mut points, &mut heap);
                tree.len()
            })
        });
        g.bench_with_input(BenchmarkId::new("round_then_3_snapshots", n), &n, |b, _| {
            let mut epoch = None;
            b.iter(|| {
                round(&mut tree, &mut points, &mut heap);
                epoch = Some((
                    tree.snapshot().unwrap(),
                    points.snapshot().unwrap(),
                    heap.snapshot().unwrap(),
                ));
                tree.len()
            })
        });
    }
    g.finish();
}

fn bench_mtree_vector_sets(c: &mut Criterion) {
    let mut g = c.benchmark_group("mtree_knn_vector_sets");
    g.sample_size(20);
    let sets = random_sets(1000, 11);
    let dist: Arc<dyn Distance<VectorSet>> = Arc::new(MinimalMatching::vector_set_model());
    let mut tree = MTree::new(dist, 16, 344);
    for (i, s) in sets.iter().enumerate() {
        tree.insert(s.clone(), i as u64);
    }
    g.bench_function("knn10_n1000", |b| {
        let mut qi = 0usize;
        b.iter(|| {
            qi = (qi + 17) % sets.len();
            tree.knn(&sets[qi], 10, &QueryContext::ephemeral())
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_xtree_dimensionality,
    bench_xtree_build,
    bench_xtree_pull,
    bench_xtree_churn,
    bench_index_publish,
    bench_mtree_vector_sets
);
criterion_main!(benches);
