//! Bit-identity of the mixed-precision refinement path: multi-step
//! k-NN with the `f32` filter-precision prefilter must return exactly
//! the ids, distances and tie order of the pure-f64 naive baseline, for
//! both paper models (minimal-matching over vector sets and the
//! permutation/sqrt variant). The prefilter's δ margin makes every f32
//! prune provably sound, so the only observable difference is in the
//! counters — checked here too: `f32_prefilter ⊆ pruned`, and on a
//! realistic workload the f32 stage actually fires.

use proptest::prelude::*;
use rand::prelude::*;
use vsim_bench::knn_naive;
use vsim_query::FilterRefineIndex;
use vsim_setdist::matching::MinimalMatching;
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

fn models() -> [MinimalMatching; 2] {
    [MinimalMatching::vector_set_model(), MinimalMatching::permutation_model()]
}

proptest! {
    /// Random databases, random queries, both models: the prefiltered
    /// k-NN and the naive pure-f64 k-NN agree bit for bit — same ids in
    /// the same order (ties included) and identical distance bits.
    #[test]
    fn f32_prefiltered_knn_is_bit_identical_to_pure_f64(
        n in 30usize..100,
        k in 1usize..5,
        kq in 1usize..12,
        seed in 0u64..1000,
        qseed in 0u64..1000,
    ) {
        let sets = random_sets(n, k, seed);
        let q = &random_sets(1, k, qseed.wrapping_add(424242))[0];
        for mm in models() {
            let idx = FilterRefineIndex::build(&sets, 6, k).with_model(mm);
            let (fast, fs) = idx.knn(q, kq);
            let (naive, ns) = knn_naive(&idx, k, q, kq);
            prop_assert_eq!(fast.len(), naive.len(), "{:?}", mm);
            for (f, nv) in fast.iter().zip(&naive) {
                prop_assert_eq!(f.0, nv.0, "{:?}: id/tie order diverged", mm);
                prop_assert_eq!(
                    f.1.to_bits(), nv.1.to_bits(),
                    "{:?}: distance bits diverged for id {}: {} vs {}", mm, f.0, f.1, nv.1
                );
            }
            // Same optimal multi-step loop on both sides: identical
            // refinement schedule, and every f32 dismissal is a prune.
            prop_assert_eq!(fs.refinements, ns.refinements, "{:?}", mm);
            prop_assert!(fs.f32_prefilter <= fs.pruned, "{:?}", mm);
        }
    }
}

/// Deterministic companion: on a database large enough that bounds
/// bite, the f32 stage must actually dismiss refinements for both
/// models — otherwise the proptest above would be vacuous.
#[test]
fn f32_prefilter_fires_on_realistic_workloads() {
    let sets = random_sets(500, 6, 11);
    for mm in models() {
        let idx = FilterRefineIndex::build(&sets, 6, 6).with_model(mm);
        let mut f32_prunes = 0;
        for qi in [0usize, 42, 199, 387] {
            let (fast, fs) = idx.knn(&sets[qi], 10);
            let (naive, _) = knn_naive(&idx, 6, &sets[qi], 10);
            assert_eq!(fast.len(), naive.len());
            for (f, nv) in fast.iter().zip(&naive) {
                assert_eq!(f.0, nv.0, "{mm:?} query {qi}");
                assert_eq!(f.1.to_bits(), nv.1.to_bits(), "{mm:?} query {qi}");
            }
            assert!(fs.f32_prefilter <= fs.pruned, "{mm:?} query {qi}");
            f32_prunes += fs.f32_prefilter;
        }
        assert!(f32_prunes > 0, "{mm:?}: f32 prefilter never fired on 500 objects");
    }
}

/// Far from the origin an f32 coordinate is off by more than the sets
/// are apart: 2 000 three-element sets within 0.05 of (1e4, …, 1e4).
/// The gate's margin follows the coordinates' magnitude, and each model
/// scales the centroid distance by its own Lemma 2 factor (`√k` for the
/// permutation model, whose near-translated sets a factor `k` would
/// drop), so under both models the 10-NN of every query equals brute
/// force and the pure-f64 loop — ids in order and distance bits.
#[test]
fn knn_far_from_the_origin_equals_brute_force() {
    let mut rng = StdRng::seed_from_u64(17);
    let sets: Vec<VectorSet> = (0..2_000)
        .map(|_| {
            let mut s = VectorSet::new(6);
            for _ in 0..3 {
                let v: Vec<f64> = (0..6).map(|_| 1e4 + rng.gen_range(0.0..0.05)).collect();
                s.push(&v);
            }
            s
        })
        .collect();
    let bits =
        |hits: &[(u64, f64)]| hits.iter().map(|&(id, d)| (id, d.to_bits())).collect::<Vec<_>>();
    for mm in models() {
        let idx = FilterRefineIndex::build(&sets, 6, 3).with_model(mm);
        for qi in (0..sets.len()).step_by(25) {
            let q = &sets[qi];
            let (fast, _) = idx.knn(q, 10);
            let (naive, _) = knn_naive(&idx, 3, q, 10);
            assert_eq!(bits(&fast), bits(&naive), "{mm:?} query {qi}");
            let mut brute: Vec<(u64, f64)> = sets
                .iter()
                .enumerate()
                .map(|(id, s)| (id as u64, mm.distance_value(q, s)))
                .collect();
            brute.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
            assert_eq!(bits(&fast), bits(&brute[..10]), "{mm:?} query {qi}");
        }
    }
}
