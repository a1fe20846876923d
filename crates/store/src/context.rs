//! Per-query execution context: which buffer pool to read through,
//! and where to record costs.

use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

use crate::error::StoreResult;
use crate::page::PageStore;
use crate::pool::BufferPool;
use crate::stats::QueryStats;
use crate::tracker::IoTracker;
use crate::StoreId;

/// Threaded through every range/k-NN call. One context per query gives
/// per-query stats; contexts are cheap (the pool is shared via `Arc`).
#[derive(Debug)]
pub struct QueryContext {
    pool: Arc<BufferPool>,
    tracker: IoTracker,
}

impl QueryContext {
    /// Context with a fresh unbounded pool, private to this query.
    /// Every first touch of a page is a charged miss — the paper's
    /// cold-cache accounting. The pool is one shard: only this query
    /// reads through it, so striping would buy nothing, and a pool that
    /// never evicts charges the same as [`BufferPool::unbounded`].
    pub fn ephemeral() -> Self {
        QueryContext { pool: BufferPool::unbounded_private(), tracker: IoTracker::default() }
    }

    /// Context reading through a shared (possibly warm) pool.
    pub fn with_pool(pool: Arc<BufferPool>) -> Self {
        QueryContext { pool, tracker: IoTracker::default() }
    }

    /// Read `pages` consecutive pages through the pool; returns the
    /// number of misses (charged to this query).
    pub fn access(&self, store: StoreId, first: u64, pages: u64) -> u64 {
        self.pool.access(store, first, pages, &self.tracker)
    }

    /// Read one page's *contents* through the pool, charged exactly
    /// like a one-page [`access`](Self::access). Returns the page image
    /// and the number of charged misses (0 or 1), so access methods can
    /// keep byte charges tied to misses.
    pub fn load(&self, store: &dyn PageStore, page: u64) -> StoreResult<(Arc<[u8]>, u64)> {
        self.pool.load(store, page, &self.tracker)
    }

    /// [`load`](Self::load) for a page whose saved [`checksum`] is
    /// `expected`: the image returned hashes to it, and was checked
    /// against it since it was last read from the store. The check is
    /// paid once per physical read, not once per call — a physical read
    /// is hashed *before* its image is cached, the frame remembers the
    /// sum, and a hit on a frame whose sum equals `expected` is served
    /// without hashing. An image cached by plain `load` is hashed on
    /// its first verified use. An image that does not hash to
    /// `expected` is never cached (and dropped if it was): the page is
    /// re-read, every re-read a charged miss of its own, and after two
    /// of them the mismatch is a typed [`StoreError::Corruption`].
    /// Integrity therefore holds for a frame's residency: a page
    /// rewritten in the store behind a resident frame is served from
    /// the frame until [`invalidate`](Self::invalidate) or eviction.
    ///
    /// [`checksum`]: crate::checksum
    /// [`StoreError::Corruption`]: crate::StoreError::Corruption
    pub fn load_verified(
        &self,
        store: &dyn PageStore,
        page: u64,
        expected: u64,
    ) -> StoreResult<(Arc<[u8]>, u64)> {
        self.pool.load_verified(store, page, expected, &self.tracker)
    }

    /// Drop a page's cached contents so the next [`load`](Self::load)
    /// re-reads it — see [`BufferPool::invalidate`].
    pub fn invalidate(&self, store: StoreId, page: u64) -> bool {
        self.pool.invalidate(store, page)
    }

    /// Charge `n` bytes read to this query.
    pub fn record_bytes(&self, n: u64) {
        self.tracker.bytes.fetch_add(n, Ordering::Relaxed);
    }

    /// Count `n` distance-function evaluations (index CPU work).
    pub fn count_distance_evals(&self, n: u64) {
        self.tracker.distance_evals.fetch_add(n, Ordering::Relaxed);
    }

    /// Count `n` objects surviving the filter step (or examined, for
    /// scans).
    pub fn count_candidates(&self, n: u64) {
        self.tracker.candidates.fetch_add(n, Ordering::Relaxed);
    }

    /// Count `n` exact (expensive) distance refinements.
    pub fn count_refinements(&self, n: u64) {
        self.tracker.refinements.fetch_add(n, Ordering::Relaxed);
    }

    /// Count `n` refinements aborted early by the bounded matching
    /// kernel (a subset of `refinements`: every pruned evaluation is
    /// still counted as a refinement, it just stopped before the full
    /// `O(k³)` solve).
    pub fn count_pruned(&self, n: u64) {
        self.tracker.pruned.fetch_add(n, Ordering::Relaxed);
    }

    /// Count `n` candidates drawn from an incremental candidate stream
    /// (one ranking step of the filter's access path per candidate).
    pub fn count_filter_steps(&self, n: u64) {
        self.tracker.filter_steps.fetch_add(n, Ordering::Relaxed);
    }

    /// Count `n` stream candidates dismissed by their filter lower
    /// bound alone — pulled from the stream but never handed to the
    /// exact `dist_mm` kernel (unlike `pruned`, which counts kernel
    /// runs aborted mid-solve).
    pub fn count_refinements_saved(&self, n: u64) {
        self.tracker.refinements_saved.fetch_add(n, Ordering::Relaxed);
    }

    /// Count `n` refinements dismissed by the `f32` filter-precision
    /// matching kernel alone — the exact `f64` solve never ran. A subset
    /// of `pruned` (an f32-stage prune is still a pruned refinement; this
    /// counter records which stage decided it).
    pub fn count_f32_prefilter(&self, n: u64) {
        self.tracker.f32_prefilter.fetch_add(n, Ordering::Relaxed);
    }

    /// Count `n` objects inserted into a dynamic index.
    pub fn count_inserts(&self, n: u64) {
        self.tracker.inserts.fetch_add(n, Ordering::Relaxed);
    }

    /// Count `n` objects deleted (tombstoned) from a dynamic index.
    pub fn count_deletes(&self, n: u64) {
        self.tracker.deletes.fetch_add(n, Ordering::Relaxed);
    }

    /// Count `n` epoch-snapshot pins taken by readers of a dynamic
    /// index (one per query that latches a consistent snapshot).
    pub fn count_epoch_pins(&self, n: u64) {
        self.tracker.epoch_pins.fetch_add(n, Ordering::Relaxed);
    }

    /// Freeze this context's counters into per-query stats.
    pub fn stats(&self, cpu: Duration) -> QueryStats {
        self.tracker.debug_check_invariants();
        self.tracker.stats(cpu)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::page::{InMemoryPageStore, PageStore};

    #[test]
    fn ephemeral_contexts_are_independent() {
        let store = InMemoryPageStore::new();
        let a = QueryContext::ephemeral();
        let b = QueryContext::ephemeral();
        assert_eq!(a.access(store.id(), 0, 2), 2);
        assert_eq!(b.access(store.id(), 0, 2), 2, "no sharing between ephemeral pools");
        assert_eq!(a.stats(Duration::ZERO).io.pages, 2);
    }

    #[test]
    fn shared_pool_contexts_split_stats() {
        let store = InMemoryPageStore::new();
        let pool = BufferPool::unbounded();
        let a = QueryContext::with_pool(Arc::clone(&pool));
        a.access(store.id(), 0, 3);
        let b = QueryContext::with_pool(Arc::clone(&pool));
        assert_eq!(b.access(store.id(), 0, 3), 0, "warm pool: all hits");
        let sa = a.stats(Duration::ZERO);
        let sb = b.stats(Duration::ZERO);
        assert_eq!(sa.io.pages, 3);
        assert_eq!(sb.io.pages, 0);
        assert_eq!(sb.cache.hits, 3);
    }

    #[test]
    fn load_charges_like_access() {
        let store = InMemoryPageStore::new();
        let page = store.allocate(1).unwrap();
        store.write_page(page, &[0x42u8; 16]).unwrap();
        let ctx = QueryContext::ephemeral();
        let (data, missed) = ctx.load(&store, page).unwrap();
        assert_eq!((missed, data[0]), (1, 0x42));
        let (_, missed) = ctx.load(&store, page).unwrap();
        assert_eq!(missed, 0);
        let s = ctx.stats(Duration::ZERO);
        assert_eq!(s.io.pages, 1);
        assert_eq!((s.cache.hits, s.cache.misses), (1, 1));
    }

    #[test]
    fn stats_capture_all_counters() {
        let ctx = QueryContext::ephemeral();
        ctx.record_bytes(100);
        ctx.count_distance_evals(4);
        ctx.count_candidates(2);
        ctx.count_refinements(1);
        let s = ctx.stats(Duration::from_millis(3));
        assert_eq!(s.io.bytes, 100);
        assert_eq!((s.distance_evals, s.candidates, s.refinements), (4, 2, 1));
        assert_eq!(s.cpu, Duration::from_millis(3));
    }
}
