//! Property tests for the `CandidateSource` contract: every access path
//! — X-tree cursor, sorted sequential scan — must emit
//! candidates in nondecreasing filter-distance order and cover exactly
//! the id set a full scan would produce. Checked for the paper's two
//! feature models: 6-d extended centroids of vector sets (via
//! `FilterRefineIndex::with_candidate_source`) and the `6k`-d
//! one-vector cover-sequence features (the raw X-tree cursor).
//!
//! The X-tree cursor is also checked against a sorted brute-force scan
//! on trees of every origin (inserted, bulk-loaded, churned, reopened),
//! with supernodes, duplicates and non-finite coordinates on both
//! sides of the distance.

use proptest::prelude::*;
use rand::prelude::*;
use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::Duration;
use vsim_index::{cursor, InMemoryPageStore, PageStore, QueryContext, XTree};
use vsim_query::{AccessPath, FilterRefineIndex};
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

/// The filter distance as both access paths compute it.
fn euclid2(p: &[f64], q: &[f64]) -> f64 {
    p.iter().zip(q).map(|(a, b)| (a - b) * (a - b)).sum()
}

/// `n` points in the unit cube. With `dups`, half of them are copies of
/// three fixed points: more equal entries than a leaf page holds, which
/// no split can separate (leaf supernodes). With `inf`, one point in
/// ten has one coordinate at +∞ or −∞.
fn cursor_points(n: usize, dim: usize, dups: bool, inf: bool, rng: &mut StdRng) -> Vec<Vec<f64>> {
    let unit =
        |rng: &mut StdRng| -> Vec<f64> { (0..dim).map(|_| rng.gen_range(0.0..1.0)).collect() };
    let pool: Vec<Vec<f64>> = (0..3).map(|_| unit(rng)).collect();
    (0..n)
        .map(|_| {
            if dups && rng.gen_bool(0.5) {
                return pool[rng.gen_range(0..pool.len())].clone();
            }
            let mut p = unit(rng);
            if inf && rng.gen_bool(0.1) {
                p[rng.gen_range(0..dim)] =
                    if rng.gen_bool(0.5) { f64::INFINITY } else { f64::NEG_INFINITY };
            }
            p
        })
        .collect()
}

/// A tree over `pts` (ids are positions) built the `how`-th way, and
/// which ids are live in it: 0 inserted one by one, 1 bulk-loaded,
/// 2 inserted with every third point deleted again two inserts later,
/// 3 inserted, saved and reopened.
fn cursor_tree(how: usize, dim: usize, pts: &[Vec<f64>]) -> (XTree, Vec<u64>) {
    let mut live: Vec<u64> = (0..pts.len() as u64).collect();
    if how == 1 {
        return (XTree::bulk_load(dim, pts), live);
    }
    let mut tree = XTree::new(dim);
    for (i, p) in pts.iter().enumerate() {
        tree.insert(p, i as u64);
        if how == 2 && i % 3 == 2 {
            assert!(tree.delete(&pts[i - 2], i as u64 - 2), "point {} was inserted", i - 2);
        }
    }
    if how == 2 {
        live.retain(|id| id % 3 != 0 || *id as usize + 2 >= pts.len());
    }
    if how == 3 {
        let target: Arc<dyn PageStore> = Arc::new(InMemoryPageStore::new());
        let handle = tree.save_to(target.as_ref()).unwrap();
        tree = XTree::load_from(target, handle.first).unwrap();
    }
    (tree, live)
}

const PATHS: [AccessPath; 2] = [AccessPath::XTreeCursor, AccessPath::SeqScan];

proptest! {
    /// Vector-set model: each access path streams every id exactly once,
    /// in nondecreasing lower-bound order, and both paths emit
    /// bit-identical bounds per id.
    #[test]
    fn all_paths_stream_the_full_id_set_in_order(
        n in 1usize..120,
        k in 1usize..5,
        seed in 0u64..1000,
        qseed in 0u64..1000,
    ) {
        let sets = random_sets(n, k, seed);
        let idx = FilterRefineIndex::build(&sets, 6, k);
        let q = &random_sets(1, k, qseed.wrapping_add(7777))[0];
        let cq = vsim_setdist::extended_centroid(q, k, &[0.0; 6]);

        let mut streams = Vec::new();
        for path in PATHS {
            let ctx = QueryContext::ephemeral();
            let drained =
                idx.with_candidate_source(path, &cq, &ctx, |src| Ok(cursor::drain(src))).unwrap();
            prop_assert_eq!(drained.len(), n, "{} must emit every object", path);
            for w in drained.windows(2) {
                prop_assert!(
                    w[0].1 <= w[1].1,
                    "{} emitted a decreasing pair: {:?} then {:?}", path, w[0], w[1]
                );
            }
            let ids: BTreeSet<u64> = drained.iter().map(|(id, _)| *id).collect();
            prop_assert_eq!(ids, (0..n as u64).collect::<BTreeSet<u64>>(), "{} id coverage", path);
            streams.push(drained);
        }

        // Bounds are bit-identical across paths (per id — tie order may
        // legitimately differ between a heap traversal and a sort).
        let mut by_id = streams[0].clone();
        by_id.sort_by_key(|(id, _)| *id);
        for other in &streams[1..] {
            let mut o = other.clone();
            o.sort_by_key(|(id, _)| *id);
            for (a, b) in by_id.iter().zip(&o) {
                prop_assert_eq!(a.0, b.0);
                prop_assert_eq!(a.1.to_bits(), b.1.to_bits(), "bound mismatch for id {}", a.0);
            }
        }
    }

    /// One-vector model: the raw X-tree cursor over `6k`-d cover
    /// features obeys the same contract at high dimensionality.
    #[test]
    fn one_vector_xtree_cursor_obeys_the_contract(
        n in 1usize..80,
        seed in 0u64..1000,
    ) {
        let dim = 42; // 6 coordinates x 7 covers, the paper's setting
        let mut rng = StdRng::seed_from_u64(seed);
        let vectors: Vec<Vec<f64>> =
            (0..n).map(|_| (0..dim).map(|_| rng.gen_range(0.0..1.0)).collect()).collect();
        let mut tree = XTree::new(dim);
        for (i, v) in vectors.iter().enumerate() {
            tree.insert(v, i as u64);
        }
        let q: Vec<f64> = (0..dim).map(|_| rng.gen_range(0.0..1.0)).collect();
        let ctx = QueryContext::ephemeral();
        let drained = cursor::drain(&mut tree.nn_iter(&q, &ctx));
        prop_assert_eq!(drained.len(), n);
        for w in drained.windows(2) {
            prop_assert!(w[0].1 <= w[1].1, "decreasing pair {:?} {:?}", w[0], w[1]);
        }
        let ids: BTreeSet<u64> = drained.iter().map(|(id, _)| *id).collect();
        prop_assert_eq!(ids, (0..n as u64).collect::<BTreeSet<u64>>());
    }

    /// The X-tree cursor against a sorted brute-force scan. Every live
    /// id comes out exactly once with the brute-force distance's bits —
    /// a NaN distance (a NaN query coordinate, or ∞ − ∞) counts as a
    /// distance and may fall anywhere in the stream — the numbers among
    /// them ascend exactly as the sorted scan's do, and draining the
    /// stream evaluates every point once.
    #[test]
    fn xtree_cursor_equals_sorted_brute_force(
        dim in 0usize..3,
        how in 0usize..4,
        n in 1usize..3000,
        dups in proptest::bool::ANY,
        inf in proptest::bool::ANY,
        odd_query in 0usize..4,
        seed in 0u64..1_000_000,
    ) {
        let dim = [2, 6, 42][dim];
        let mut rng = StdRng::seed_from_u64(seed);
        let pts = cursor_points(n, dim, dups, inf, &mut rng);
        let (tree, live) = cursor_tree(how, dim, &pts);
        prop_assert_eq!(tree.len(), live.len());
        let mut q: Vec<f64> = (0..dim).map(|_| rng.gen_range(0.0..1.0)).collect();
        if odd_query > 0 {
            q[rng.gen_range(0..dim)] = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY][odd_query - 1];
        }

        let ctx = QueryContext::ephemeral();
        let drained = cursor::drain(&mut tree.nn_iter(&q, &ctx));
        prop_assert_eq!(ctx.stats(Duration::ZERO).distance_evals, live.len() as u64);
        let mut ids: Vec<u64> = drained.iter().map(|c| c.0).collect();
        ids.sort_unstable();
        prop_assert_eq!(&ids, &live, "every live id exactly once");
        for &(id, d) in &drained {
            let want = euclid2(&pts[id as usize], &q).sqrt();
            prop_assert!(
                d.to_bits() == want.to_bits() || (d.is_nan() && want.is_nan()),
                "id {} came with {} and is at {}", id, d, want
            );
        }
        let emitted: Vec<u64> =
            drained.iter().filter(|c| !c.1.is_nan()).map(|c| c.1.to_bits()).collect();
        let mut sorted: Vec<f64> = live
            .iter()
            .map(|&id| euclid2(&pts[id as usize], &q).sqrt())
            .filter(|d| !d.is_nan())
            .collect();
        sorted.sort_by(f64::total_cmp);
        let sorted: Vec<u64> = sorted.into_iter().map(f64::to_bits).collect();
        prop_assert_eq!(&emitted, &sorted, "emission order");

    }
}
