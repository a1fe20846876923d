//! Dynamic-lifecycle integration tests: insert/delete interleavings on
//! the filter/refine index must be indistinguishable — bit for bit,
//! including the cost counters — from a from-scratch rebuild of the
//! same history, and epoch snapshots must give concurrent readers that
//! exact rebuild even while a writer thread churns and publishes.

use proptest::prelude::*;
use rand::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::thread;
use std::time::Duration;
use vsim_index::QueryContext;
use vsim_query::{AccessPath, DynamicIndex, FilterRefineIndex, QueryExecutor, QueryStats};
use vsim_setdist::matching::MinimalMatching;
use vsim_setdist::VectorSet;

const PATHS: [AccessPath; 2] = [AccessPath::XTreeCursor, AccessPath::SeqScan];

fn random_set(rng: &mut StdRng, k: usize) -> VectorSet {
    let card = rng.gen_range(1..=k);
    let mut s = VectorSet::new(6);
    for _ in 0..card {
        let v: Vec<f64> = (0..6).map(|_| rng.gen_range(0.05..1.0)).collect();
        s.push(&v);
    }
    s
}

fn random_sets(n: usize, k: usize, seed: u64) -> Vec<VectorSet> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n).map(|_| random_set(&mut rng, k)).collect()
}

/// One logged mutation, replayable against a fresh build.
#[derive(Clone)]
enum Op {
    Insert(VectorSet),
    Delete(u64),
}

/// From-scratch rebuild of a history: build the initial database, then
/// apply the identical op sequence through the same incremental code
/// path. This is the reference every snapshot is compared against.
fn replay(initial: &[VectorSet], ops: &[Op], k: usize, mm: &MinimalMatching) -> FilterRefineIndex {
    let mut idx = FilterRefineIndex::build(initial, 6, k).with_model(*mm);
    for op in ops {
        match op {
            Op::Insert(s) => {
                idx.insert(s).unwrap();
            }
            Op::Delete(id) => {
                assert!(idx.delete(*id).unwrap());
            }
        }
    }
    idx
}

fn knn_with_stats(
    idx: &FilterRefineIndex,
    path: AccessPath,
    q: &VectorSet,
    kq: usize,
) -> (Vec<(u64, f64)>, QueryStats) {
    let ctx = QueryContext::ephemeral();
    let hits = idx.knn_via_with(path, q, kq, &ctx).unwrap();
    (hits, ctx.stats(Duration::ZERO))
}

/// Bit-identity: same ids in the same (tie) order, same distance bits,
/// and the same work counters — the two indexes are indistinguishable.
fn assert_bit_identical(
    a: &FilterRefineIndex,
    b: &FilterRefineIndex,
    q: &VectorSet,
    kq: usize,
    path: AccessPath,
) {
    let (ah, astats) = knn_with_stats(a, path, q, kq);
    let (bh, bstats) = knn_with_stats(b, path, q, kq);
    assert_eq!(ah.len(), bh.len(), "{path}: result cardinality");
    for (i, (x, y)) in ah.iter().zip(&bh).enumerate() {
        assert_eq!(x.0, y.0, "{path}: id at rank {i}");
        assert_eq!(x.1.to_bits(), y.1.to_bits(), "{path}: distance bits at rank {i}");
    }
    assert_eq!(astats.refinements, bstats.refinements, "{path}: refinements");
    assert_eq!(astats.refinements_saved, bstats.refinements_saved, "{path}: refinements_saved");
    assert_eq!(astats.candidates, bstats.candidates, "{path}: candidates");
    assert_eq!(astats.filter_steps, bstats.filter_steps, "{path}: filter_steps");
    assert_eq!(astats.pruned, bstats.pruned, "{path}: pruned");
}

proptest! {
    /// Any insert/delete interleaving, snapshotted at interior points
    /// and at the end, answers k-NN bit-identically (ids, tie order,
    /// distance bits, refinement counts) to a from-scratch rebuild of
    /// the same history — on both access paths and both paper
    /// feature models. The end state is additionally checked against a
    /// *dense* rebuild (only the live sets, ids remapped monotonically)
    /// on the sequential-scan path, whose candidate order depends only
    /// on relative id order.
    #[test]
    fn interleavings_match_from_scratch_rebuilds(
        seed in 0u64..1000,
        raw_ops in proptest::collection::vec(0u64..1_000_000, 5..32),
    ) {
        for mm in [MinimalMatching::vector_set_model(), MinimalMatching::permutation_model()] {
            let k = 4;
            let initial = random_sets(20, k, seed);
            let mut dynamic = FilterRefineIndex::build(&initial, 6, k).with_model(mm);
            let mut rng = StdRng::seed_from_u64(seed ^ 0xBEEF);
            let mut applied: Vec<Op> = Vec::new();
            let mut live: Vec<u64> = (0..20).collect();
            let mut sets_by_id: Vec<VectorSet> = initial.clone();
            for &raw in &raw_ops {
                if raw % 3 != 0 || live.len() < 4 {
                    let s = random_set(&mut rng, k);
                    let id = dynamic.insert(&s).unwrap();
                    prop_assert_eq!(id as usize, sets_by_id.len(), "append-order dense ids");
                    sets_by_id.push(s.clone());
                    live.push(id);
                    applied.push(Op::Insert(s));
                } else {
                    let id = live.remove((raw / 3) as usize % live.len());
                    prop_assert!(dynamic.delete(id).unwrap());
                    applied.push(Op::Delete(id));
                }
                // Interior snapshot point (~1 in 8 ops): one rotating
                // access path keeps the per-case cost bounded.
                if raw % 8 == 1 {
                    let snap = dynamic.snapshot().unwrap();
                    let rebuilt = replay(&initial, &applied, k, &mm);
                    let q = random_set(&mut rng, k);
                    let path = PATHS[(raw / 8) as usize % PATHS.len()];
                    assert_bit_identical(&snap, &rebuilt, &q, 5, path);
                }
            }
            // Final snapshot point: both paths.
            let snap = dynamic.snapshot().unwrap();
            let rebuilt = replay(&initial, &applied, k, &mm);
            let q = random_set(&mut rng, k);
            for path in PATHS {
                assert_bit_identical(&snap, &rebuilt, &q, 5, path);
            }

            // Dense rebuild: live sets only, ids remapped monotonically.
            live.sort_unstable();
            let dense_sets: Vec<VectorSet> =
                live.iter().map(|&id| sets_by_id[id as usize].clone()).collect();
            let dense = FilterRefineIndex::build(&dense_sets, 6, k).with_model(mm);
            let (sh, ss) = knn_with_stats(&snap, AccessPath::SeqScan, &q, 5);
            let (dh, ds) = knn_with_stats(&dense, AccessPath::SeqScan, &q, 5);
            prop_assert_eq!(sh.len(), dh.len());
            for (x, y) in sh.iter().zip(&dh) {
                prop_assert_eq!(x.0, live[y.0 as usize], "dense id maps back to the live id");
                prop_assert_eq!(x.1.to_bits(), y.1.to_bits());
            }
            prop_assert_eq!(ss.refinements, ds.refinements);
            prop_assert_eq!(ss.refinements_saved, ds.refinements_saved);
            prop_assert_eq!(ss.filter_steps, ds.filter_steps);
        }
    }
}

/// The tentpole acceptance scenario: a writer thread churns (inserts,
/// deletes, publishes) while batches of k-NN readers run concurrently
/// through the executor. Every reader pins an epoch; afterwards each
/// observed (query, generation, hits, stats) tuple is checked
/// bit-identical — ids, tie order, distance bits, and refinement
/// counters — against a from-scratch rebuild of exactly that epoch's
/// history, reconstructed from the writer's op log.
#[test]
fn concurrent_readers_get_rebuild_identical_epochs() {
    let k = 5;
    let kq = 6;
    let initial = random_sets(80, k, 101);
    let idx = Arc::new(DynamicIndex::build(&initial, 6, k).unwrap());
    let queries: Vec<VectorSet> = (0..8).map(|i| initial[i * 9].clone()).collect();
    let ex = QueryExecutor::cold();

    // Each observation: the query index, the pinned generation, the
    // hits, and the per-query stats.
    type Observation = (usize, u64, Vec<(u64, f64)>, QueryStats);
    let mut observed: Vec<Observation> = Vec::new();
    let run_batch = |observed: &mut Vec<Observation>| {
        // Each reader pins the latest epoch through its own context and
        // answers from that snapshot alone.
        let gens: Vec<AtomicU64> = queries.iter().map(|_| AtomicU64::new(0)).collect();
        let items: Vec<(usize, &VectorSet)> = queries.iter().enumerate().collect();
        let batch = ex.run_batch(&items, |&(i, q), ctx| {
            let epoch = idx.pin(ctx);
            gens[i].store(epoch.generation(), Ordering::Relaxed);
            epoch.index().knn_with(q, kq, ctx)
        });
        assert!(batch.failed().is_empty(), "no reader may fail under churn");
        assert_eq!(
            batch.aggregate.epoch_pins,
            queries.len() as u64,
            "exactly one epoch pin per reader"
        );
        for (i, gen) in gens.into_iter().map(AtomicU64::into_inner).enumerate() {
            observed.push((i, gen, batch.hits[i].clone(), batch.stats[i]));
        }
    };

    // One batch before the writer starts: pins generation 0.
    run_batch(&mut observed);

    let writer = {
        let idx = Arc::clone(&idx);
        thread::spawn(move || -> (Vec<Op>, Vec<usize>) {
            let ctx = QueryContext::ephemeral();
            let mut rng = StdRng::seed_from_u64(202);
            let mut ops: Vec<Op> = Vec::new();
            // offsets[g] = how many ops generation g's epoch contains.
            let mut offsets: Vec<usize> = vec![0];
            let mut live: Vec<u64> = (0..80).collect();
            let mut next_id = 80u64;
            for _ in 0..6 {
                for _ in 0..12 {
                    if rng.gen_bool(0.65) || live.len() < 20 {
                        let s = random_set(&mut rng, k);
                        assert_eq!(idx.insert(&s, &ctx).unwrap(), next_id);
                        ops.push(Op::Insert(s));
                        live.push(next_id);
                        next_id += 1;
                    } else {
                        let id = live.remove(rng.gen_range(0..live.len()));
                        assert!(idx.delete(id, &ctx).unwrap());
                        ops.push(Op::Delete(id));
                    }
                }
                let gen = idx.publish().unwrap();
                assert_eq!(gen as usize, offsets.len(), "generations publish in order");
                offsets.push(ops.len());
                thread::sleep(Duration::from_millis(2));
            }
            let s = ctx.stats(Duration::ZERO);
            assert_eq!(s.inserts + s.deletes, ops.len() as u64);
            (ops, offsets)
        })
    };

    // Reader batches concurrent with the churn.
    for _ in 0..8 {
        run_batch(&mut observed);
        thread::sleep(Duration::from_millis(1));
    }

    let (ops, offsets) = writer.join().unwrap();
    assert_eq!(offsets.len(), 7, "six publishes after the built generation 0");

    // One batch after the writer is done: pins the final generation.
    run_batch(&mut observed);
    let gens_seen: std::collections::BTreeSet<u64> =
        observed.iter().map(|(_, g, _, _)| *g).collect();
    assert!(gens_seen.contains(&0), "the pre-writer batch pinned generation 0");
    assert!(gens_seen.contains(&6), "the post-writer batch pinned the final generation");

    // Verify every observation against a from-scratch rebuild of its
    // pinned epoch (one rebuild per distinct generation observed).
    for &gen in &gens_seen {
        let rebuilt = replay(
            &initial,
            &ops[..offsets[gen as usize]],
            k,
            &MinimalMatching::vector_set_model(),
        );
        for (qi, _, hits, stats) in observed.iter().filter(|(_, g, _, _)| *g == gen) {
            let ctx = QueryContext::ephemeral();
            let expect = rebuilt.knn_with(&queries[*qi], kq, &ctx).unwrap();
            let estats = ctx.stats(Duration::ZERO);
            assert_eq!(hits.len(), expect.len(), "gen {gen} query {qi}: cardinality");
            for (a, b) in hits.iter().zip(&expect) {
                assert_eq!(a.0, b.0, "gen {gen} query {qi}: ids and tie order");
                assert_eq!(a.1.to_bits(), b.1.to_bits(), "gen {gen} query {qi}: distance bits");
            }
            assert_eq!(stats.refinements, estats.refinements, "gen {gen} query {qi}");
            assert_eq!(stats.refinements_saved, estats.refinements_saved, "gen {gen} query {qi}");
            assert_eq!(stats.candidates, estats.candidates, "gen {gen} query {qi}");
            assert_eq!(stats.filter_steps, estats.filter_steps, "gen {gen} query {qi}");
        }
    }
}

/// Publishes serialize on the writer lock: the published slot's one
/// write path takes the writer's `&mut Working`. Four publishers beside
/// a pinning reader hand out every generation exactly once, and no pin
/// ever sees the published generation go back.
#[test]
fn concurrent_publishers_hand_out_each_generation_once_in_order() {
    let idx = DynamicIndex::build(&random_sets(40, 4, 303), 6, 4).unwrap();
    let start = Barrier::new(5);
    let mut gens: Vec<u64> = thread::scope(|s| {
        s.spawn(|| {
            let ctx = QueryContext::ephemeral();
            start.wait();
            let mut last = 0;
            while last < 200 {
                let g = idx.pin(&ctx).generation();
                assert!(g >= last, "a pin saw generation {g} after {last}");
                last = g;
            }
        });
        let publishers: Vec<_> = (0..4)
            .map(|_| {
                s.spawn(|| {
                    start.wait();
                    (0..50).map(|_| idx.publish().unwrap()).collect::<Vec<u64>>()
                })
            })
            .collect();
        publishers.into_iter().flat_map(|p| p.join().unwrap()).collect()
    });
    gens.sort_unstable();
    assert_eq!(gens, (1..=200).collect::<Vec<u64>>(), "each generation returned exactly once");
    assert_eq!(idx.published_generation(), 200);
}

/// Deleting every object and inserting a fresh population keeps the
/// index answering correctly — the degenerate lifecycles (empty index,
/// full turnover) hold up across snapshot and rebuild.
#[test]
fn full_turnover_keeps_snapshots_consistent() {
    let k = 4;
    let initial = random_sets(30, k, 77);
    let mut idx = FilterRefineIndex::build(&initial, 6, k);
    let mut ops: Vec<Op> = Vec::new();
    for id in 0..30 {
        assert!(idx.delete(id).unwrap());
        ops.push(Op::Delete(id));
    }
    assert_eq!(idx.live_len(), 0);
    let empty_snap = idx.snapshot().unwrap();
    let q = random_set(&mut StdRng::seed_from_u64(78), k);
    let ctx = QueryContext::ephemeral();
    assert!(empty_snap.knn_with(&q, 3, &ctx).unwrap().is_empty());

    let fresh = random_sets(40, k, 79);
    for s in &fresh {
        idx.insert(s).unwrap();
        ops.push(Op::Insert(s.clone()));
    }
    assert_eq!(idx.live_len(), 40);
    let snap = idx.snapshot().unwrap();
    let rebuilt = replay(&initial, &ops, k, &MinimalMatching::vector_set_model());
    for path in PATHS {
        assert_bit_identical(&snap, &rebuilt, &q, 5, path);
    }
    // Dense equivalence: the survivors are exactly the fresh sets with
    // ids offset by the 30 deleted originals.
    let dense = FilterRefineIndex::build(&fresh, 6, k);
    let (sh, _) = knn_with_stats(&snap, AccessPath::SeqScan, &q, 5);
    let (dh, _) = knn_with_stats(&dense, AccessPath::SeqScan, &q, 5);
    assert_eq!(sh.len(), dh.len());
    for (a, b) in sh.iter().zip(&dh) {
        assert_eq!(a.0, b.0 + 30);
        assert_eq!(a.1.to_bits(), b.1.to_bits());
    }
}

/// HEAD inserted a set with a NaN coordinate but could not delete it: the X-tree matched no entry (NaN equals nothing), the
/// index tombstoned the record all the same, and the next query whose
/// cursor reached the stale entry panicked in the record fetch.
#[test]
fn a_set_with_a_nan_coordinate_is_deleted_like_any_other() {
    let sets = random_sets(50, 5, 0x4e61);
    let idx = DynamicIndex::build(&sets, 6, 5).unwrap();
    let ctx = QueryContext::ephemeral();
    let mut odd = VectorSet::new(6);
    odd.push(&[0.5, f64::NAN, 0.5, 0.5, 0.5, 0.5]);
    let id = idx.insert(&odd, &ctx).unwrap();
    idx.publish().unwrap();
    assert_eq!(idx.pin(&ctx).index().live_len(), 51);
    assert!(idx.delete(id, &ctx).unwrap());
    assert!(!idx.delete(id, &ctx).unwrap(), "a second delete finds nothing");
    idx.publish().unwrap();
    assert_eq!(idx.live_len(), 50);
    let epoch = idx.pin(&ctx);
    assert_eq!(epoch.index().live_len(), 50);
    for path in PATHS {
        let hits = epoch.index().knn_via_with(path, &sets[0], 60, &ctx).unwrap();
        assert!(hits.len() == 50 && hits.iter().all(|h| h.0 != id), "{path:?}: {hits:?}");
    }
}
