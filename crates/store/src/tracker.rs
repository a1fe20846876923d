//! Per-query counters, safe to share across worker threads.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use crate::cost::IoSnapshot;
use crate::stats::QueryStats;

/// Buffer-pool activity attributable to one query.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheCounts {
    pub hits: u64,
    pub misses: u64,
    pub evictions: u64,
}

impl CacheCounts {
    /// Total page lookups (`hits + misses`).
    pub fn accesses(&self) -> u64 {
        self.hits + self.misses
    }
}

impl std::ops::Add for CacheCounts {
    type Output = CacheCounts;
    fn add(self, o: CacheCounts) -> CacheCounts {
        CacheCounts {
            hits: self.hits + o.hits,
            misses: self.misses + o.misses,
            evictions: self.evictions + o.evictions,
        }
    }
}

/// Thread-safe counters for one query (or one workload when shared).
/// The buffer pool maintains the first four through the `record_*`
/// methods; [`QueryContext`](crate::QueryContext) adds to the byte and
/// algorithmic counters directly. Every counter is a statistic, never a
/// synchronization point, so all accesses are `Relaxed`.
///
/// Adding a counter: a field here, the same-named field on
/// [`QueryStats`], a `count_*` method on `QueryContext` — and the
/// exhaustive patterns in [`IoTracker::stats`] and
/// [`QueryStats::accumulate`] refuse to compile until both thread it.
#[derive(Debug, Default)]
pub(crate) struct IoTracker {
    pages: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    pub(crate) bytes: AtomicU64,
    pub(crate) distance_evals: AtomicU64,
    pub(crate) candidates: AtomicU64,
    pub(crate) refinements: AtomicU64,
    pub(crate) pruned: AtomicU64,
    pub(crate) filter_steps: AtomicU64,
    pub(crate) refinements_saved: AtomicU64,
    pub(crate) f32_prefilter: AtomicU64,
    pub(crate) inserts: AtomicU64,
    pub(crate) deletes: AtomicU64,
    pub(crate) epoch_pins: AtomicU64,
}

impl IoTracker {
    /// Charge `n` page accesses to the cost model (called by the
    /// buffer pool on misses).
    #[inline]
    pub(crate) fn record_pages(&self, n: u64) {
        self.pages.fetch_add(n, Ordering::Relaxed);
    }

    #[inline]
    pub(crate) fn record_hit(&self) {
        self.hits.fetch_add(1, Ordering::Relaxed);
    }

    #[inline]
    pub(crate) fn record_miss(&self) {
        self.misses.fetch_add(1, Ordering::Relaxed);
    }

    #[inline]
    pub(crate) fn record_eviction(&self) {
        self.evictions.fetch_add(1, Ordering::Relaxed);
    }

    /// Freeze the counters into per-query stats. The pattern names
    /// every field (no `..`), so a counter added to the tracker and not
    /// carried into [`QueryStats`] is a compile error.
    pub(crate) fn stats(&self, cpu: Duration) -> QueryStats {
        let IoTracker {
            pages,
            hits,
            misses,
            evictions,
            bytes,
            distance_evals,
            candidates,
            refinements,
            pruned,
            filter_steps,
            refinements_saved,
            f32_prefilter,
            inserts,
            deletes,
            epoch_pins,
        } = self;
        let get = |counter: &AtomicU64| counter.load(Ordering::Relaxed);
        QueryStats {
            cpu,
            io: IoSnapshot { pages: get(pages), bytes: get(bytes) },
            cache: CacheCounts { hits: get(hits), misses: get(misses), evictions: get(evictions) },
            candidates: get(candidates),
            refinements: get(refinements),
            pruned: get(pruned),
            filter_steps: get(filter_steps),
            refinements_saved: get(refinements_saved),
            f32_prefilter: get(f32_prefilter),
            inserts: get(inserts),
            deletes: get(deletes),
            epoch_pins: get(epoch_pins),
            distance_evals: get(distance_evals),
            error: None,
        }
    }

    /// Debug-only check of the cross-counter identities the query
    /// engine maintains: every pruned evaluation is a refinement, and
    /// on streaming paths each candidate pulled from the filter stream
    /// is either refined or dismissed by its lower bound, so
    /// `filter_steps = refinements + refinements_saved`. (Batch filter
    /// paths never pull from a stream and leave `filter_steps` at 0.)
    pub(crate) fn debug_check_invariants(&self) {
        #[cfg(debug_assertions)]
        {
            let s = self.stats(Duration::ZERO);
            debug_assert!(
                s.pruned <= s.refinements,
                "pruned ({}) must be a subset of refinements ({})",
                s.pruned,
                s.refinements,
            );
            debug_assert!(
                s.filter_steps == 0 || s.filter_steps == s.refinements + s.refinements_saved,
                "filter_steps ({}) != refinements ({}) + refinements_saved ({})",
                s.filter_steps,
                s.refinements,
                s.refinements_saved,
            );
            debug_assert!(
                s.f32_prefilter <= s.pruned,
                "f32_prefilter ({}) must be a subset of pruned ({})",
                s.f32_prefilter,
                s.pruned,
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn add(counter: &AtomicU64, n: u64) {
        counter.fetch_add(n, Ordering::Relaxed);
    }

    #[test]
    fn counters_accumulate() {
        let t = IoTracker::default();
        t.record_pages(3);
        add(&t.bytes, 1000);
        t.record_hit();
        t.record_miss();
        t.record_miss();
        t.record_eviction();
        add(&t.distance_evals, 7);
        add(&t.candidates, 2);
        add(&t.refinements, 1);
        add(&t.pruned, 1);
        add(&t.filter_steps, 5);
        add(&t.refinements_saved, 4);
        add(&t.f32_prefilter, 1);
        add(&t.inserts, 6);
        add(&t.deletes, 3);
        add(&t.epoch_pins, 2);
        let s = t.stats(Duration::from_millis(9));
        assert_eq!(s.cpu, Duration::from_millis(9));
        assert_eq!(s.io, IoSnapshot { pages: 3, bytes: 1000 });
        assert_eq!(s.cache, CacheCounts { hits: 1, misses: 2, evictions: 1 });
        assert_eq!(s.cache.accesses(), 3);
        assert_eq!((s.distance_evals, s.candidates, s.refinements, s.pruned), (7, 2, 1, 1));
        assert_eq!((s.filter_steps, s.refinements_saved, s.f32_prefilter), (5, 4, 1));
        assert_eq!((s.inserts, s.deletes, s.epoch_pins), (6, 3, 2));
        assert_eq!(s.error, None);
    }

    #[test]
    fn invariants_accept_consistent_stream_counters() {
        let t = IoTracker::default();
        add(&t.filter_steps, 5);
        add(&t.refinements, 3);
        add(&t.pruned, 1);
        add(&t.refinements_saved, 2);
        t.debug_check_invariants();
        // Batch paths: refinements without stream pulls are fine too.
        let t = IoTracker::default();
        add(&t.refinements, 4);
        t.debug_check_invariants();
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "filter_steps")]
    fn invariants_catch_half_threaded_stream_counters() {
        let t = IoTracker::default();
        add(&t.filter_steps, 3);
        add(&t.refinements, 1);
        t.debug_check_invariants();
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "pruned")]
    fn invariants_catch_pruned_exceeding_refinements() {
        let t = IoTracker::default();
        add(&t.pruned, 2);
        add(&t.refinements, 1);
        t.debug_check_invariants();
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "f32_prefilter")]
    fn invariants_catch_f32_prefilter_exceeding_pruned() {
        let t = IoTracker::default();
        add(&t.refinements, 2);
        add(&t.pruned, 1);
        add(&t.f32_prefilter, 2);
        t.debug_check_invariants();
    }

    #[test]
    fn concurrent_recording_is_exact() {
        let t = IoTracker::default();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for _ in 0..1000 {
                        t.record_pages(1);
                        add(&t.bytes, 10);
                        t.record_hit();
                    }
                });
            }
        });
        let s = t.stats(Duration::ZERO);
        assert_eq!(s.io, IoSnapshot { pages: 4000, bytes: 40_000 });
        assert_eq!(s.cache.hits, 4000);
    }
}
