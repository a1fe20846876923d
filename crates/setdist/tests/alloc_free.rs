//! Counting-allocator proof that `MatchingEngine::distance` performs
//! **zero heap allocations per call** in steady state — unbounded,
//! bounded and f32-pruned, for all four raw/prepared operand pairings.
//!
//! This file deliberately contains a single `#[test]` — the counting
//! allocator is process-global, and a concurrent test would pollute the
//! counters.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use vsim_setdist::engine::MatchingEngine;
use vsim_setdist::matching::MinimalMatching;
use vsim_setdist::{PrefilteredDistance, VectorSet};

struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every operation delegates to `System`, adding only an atomic
// counter bump, so all of `GlobalAlloc`'s contracts are inherited.
unsafe impl GlobalAlloc for CountingAllocator {
    // SAFETY: forwarded verbatim; the caller upholds the alloc contract.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: same layout the caller passed in.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: forwarded verbatim; the caller upholds the dealloc contract.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by this allocator (which is
        // `System` underneath) with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    // SAFETY: forwarded verbatim; the caller upholds the realloc contract.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr`/`layout` come from this allocator; `new_size`
        // is the caller's responsibility per the trait contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

fn pseudo_random_set(dim: usize, card: usize, seed: u64) -> VectorSet {
    let mut state = seed.wrapping_mul(0x9e3779b97f4a7c15) | 1;
    let mut next = move || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        0.05 + (state >> 40) as f64 / (1u64 << 24) as f64
    };
    VectorSet::from_flat(dim, (0..dim * card).map(|_| next()).collect())
}

#[test]
fn engine_distance_calls_are_allocation_free_in_steady_state() {
    let models = [MinimalMatching::vector_set_model(), MinimalMatching::permutation_model()];
    // dim 6: the paper's lane path, f32 stage in front of every bounded
    // call. dim 11: the `lp` path above `LANES`, exact kernel only.
    for (mm, dim) in models.iter().flat_map(|mm| [(mm, 6usize), (mm, 11)]) {
        let mut engine = MatchingEngine::new(*mm);
        // Sets of the paper's k range, including unequal cardinalities.
        let sets: Vec<VectorSet> =
            (0..8).map(|i| pseudo_random_set(dim, 1 + (i % 7) + 1, 1000 + i as u64)).collect();
        let prepared: Vec<_> = sets.iter().map(|s| engine.prepare(s.clone())).collect();

        let mut sum = 0.0;
        let mut pruned = [0usize; 4];
        let mut pruned_f32 = [0usize; 4];
        let mut all_pairings = |upper: f64| {
            for (x, px) in sets.iter().zip(&prepared) {
                for (y, py) in sets.iter().zip(&prepared) {
                    let outcomes = [
                        engine.distance(x, y, upper),
                        engine.distance(px, y, upper),
                        engine.distance(x, py, upper),
                        engine.distance(px, py, upper),
                    ];
                    for (pairing, d) in outcomes.into_iter().enumerate() {
                        match d {
                            PrefilteredDistance::Exact(d) => sum += d,
                            PrefilteredDistance::PrunedByF32 => pruned_f32[pairing] += 1,
                            PrefilteredDistance::Pruned => pruned[pairing] += 1,
                        }
                    }
                    // The two frozen forwards are the same calls.
                    assert_eq!(engine.distance_bounded_prefiltered_half(px, y, upper), outcomes[1]);
                    if upper == f64::INFINITY {
                        assert_eq!(Some(engine.distance_prepared(px, py)), outcomes[3].value());
                    }
                }
            }
        };

        // Warm up: one unbounded and one bounded pass grow every scratch
        // buffer — including the f64/f32 lane pads and the f32 cost
        // matrix of the filter stage — to its steady-state capacity.
        all_pairings(f64::INFINITY);
        all_pairings(0.5);

        // Steady state: no pairing may touch the heap at any bound.
        // ORDERING: SeqCst so the baseline observes every allocator
        // fetch_add that happened-before this read, on any thread.
        let before = ALLOCATIONS.load(Ordering::SeqCst);
        for upper in [f64::INFINITY, 0.25, 0.5, 1.5] {
            all_pairings(upper);
        }
        // ORDERING: SeqCst pairs with the baseline read above — the
        // delta must include every allocation in between.
        let after = ALLOCATIONS.load(Ordering::SeqCst);

        assert_eq!(
            after - before,
            0,
            "{mm:?} dim {dim}: steady-state distance calls allocated \
             (sum {sum}, pruned {pruned:?}, by f32 {pruned_f32:?})"
        );
        // Sanity: every pairing exercised the stage that prunes at this
        // dim — the f32 stage on the lane path, the exact kernel above.
        let decided = if dim <= 8 { pruned_f32 } else { pruned };
        assert!(decided.iter().all(|&p| p > 0), "{mm:?} dim {dim}: bounds never pruned");
        assert!(sum.is_finite());
    }
}
