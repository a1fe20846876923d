//! Counting-allocator proof that the matching engine's cost-only and
//! bounded paths perform **zero heap allocations per distance call** in
//! steady state (the acceptance criterion of the bounded-kernel PR).
//!
//! This file deliberately contains a single `#[test]` — the counting
//! allocator is process-global, and a concurrent test would pollute the
//! counters.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use vsim_setdist::engine::MatchingEngine;
use vsim_setdist::matching::MinimalMatching;
use vsim_setdist::VectorSet;

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
    for mm in [MinimalMatching::vector_set_model(), MinimalMatching::permutation_model()] {
        let mut engine = MatchingEngine::new(mm.clone());
        // Sets of the paper's k range, including unequal cardinalities.
        let sets: Vec<VectorSet> =
            (0..8).map(|i| pseudo_random_set(6, 1 + (i % 7) + 1, 1000 + i as u64)).collect();
        let prepared: Vec<_> = sets.iter().map(|s| engine.prepare(s.clone())).collect();

        // Warm up: one pass grows every scratch buffer — including the
        // f64/f32 lane pads and the f32 cost matrix of the prefilter
        // stage — to its steady-state capacity.
        let mut warm = 0.0;
        for x in &sets {
            for y in &sets {
                warm += engine.distance(x, y);
                let _ = engine.distance_bounded_prefiltered(x, y, 0.5);
                warm += engine.distance_bounded_f32(x, y, f64::INFINITY).unwrap_or(0.0);
            }
        }
        for x in &prepared {
            for y in &sets {
                let _ = engine.distance_bounded_prefiltered_half(x, y, 0.5);
            }
        }

        // Steady state: cost-only, bounded, prepared, SIMD-prefiltered
        // and f32 filter-precision paths must not touch the heap at all.
        // ORDERING: SeqCst so the baseline observes every allocator
        // fetch_add that happened-before this read, on any thread.
        let before = ALLOCATIONS.load(Ordering::SeqCst);
        let mut sum = 0.0;
        let mut pruned = 0usize;
        let mut pruned_f32 = 0usize;
        for round in 0..3 {
            for x in &sets {
                for y in &sets {
                    sum += engine.distance(x, y);
                    match engine.distance_bounded(x, y, 0.5 + round as f64) {
                        vsim_setdist::BoundedDistance::Exact(d) => sum += d,
                        vsim_setdist::BoundedDistance::Pruned => pruned += 1,
                    }
                    match engine.distance_bounded_prefiltered(x, y, 0.5 + round as f64) {
                        vsim_setdist::PrefilteredDistance::Exact(d) => sum += d,
                        vsim_setdist::PrefilteredDistance::PrunedByF32 => pruned_f32 += 1,
                        vsim_setdist::PrefilteredDistance::Pruned => pruned += 1,
                    }
                    match engine.distance_bounded_f32(x, y, 0.5 + round as f64) {
                        Some(d) => sum += d,
                        None => pruned_f32 += 1,
                    }
                }
            }
            for x in &prepared {
                for y in &prepared {
                    sum += engine.distance_prepared(x, y);
                }
                for y in &sets {
                    if engine.distance_bounded_prefiltered_half(x, y, 0.25).pruned_by_f32() {
                        pruned_f32 += 1;
                    }
                }
            }
        }
        // ORDERING: SeqCst pairs with the baseline read above — the
        // delta must include every allocation in between.
        let after = ALLOCATIONS.load(Ordering::SeqCst);

        assert_eq!(
            after - before,
            0,
            "{:?}: steady-state distance calls allocated (sum {sum}, warm {warm}, pruned {pruned})",
            mm
        );
        // Sanity: the bounded paths did exercise every outcome,
        // including prunes decided by the f32 stage alone.
        assert!(pruned > 0, "bound never pruned — test bounds are miscalibrated");
        assert!(pruned_f32 > 0, "f32 stage never pruned — prefilter not exercised");
        assert!(sum.is_finite() && warm.is_finite());
    }
}
