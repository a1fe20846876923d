//! Lock-striped LRU buffer pool over [`PageKey`]s.
//!
//! Charging policy: a lookup that *hits* the pool is free; a *miss* is
//! charged as one page access to the query's
//! [`QueryContext`](crate::QueryContext) (the paper's 8 ms). A pool
//! with `capacity >= working set` therefore issues zero simulated page
//! costs on repeated queries, while a fresh pool per query reproduces
//! cold-cache accounting.
//!
//! # Sharding
//!
//! The pool is split into power-of-two *shards*, each an independently
//! locked LRU over a slice of the capacity; a page's shard is fixed by
//! a hash of its [`PageKey`], so concurrent queries touching different
//! pages rarely contend on the same mutex. Small pools (below
//! [`SHARD_THRESHOLD`] pages) collapse to a single shard so eviction
//! order stays exactly global LRU — the shard-local approximation only
//! kicks in at capacities where it is statistically irrelevant. A
//! query's own pool ([`QueryContext::ephemeral`](crate::QueryContext::ephemeral))
//! is one unbounded shard: nothing else ever locks it, and a pool that
//! never evicts charges the same whatever its shard count.
//! Per-shard [`CacheCounts`] totals are summed into [`PoolStats`], so
//! the counter-parity invariant (pool totals = Σ per-query trackers)
//! is preserved.
//!
//! Each shard's frame table hashes a [`PageKey`] with a fixed
//! multiplicative hash, not SipHash: the library numbers every page
//! itself, so there is no adversary to resist.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::ops::{Deref, DerefMut};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use crate::checksum::checksum;
use crate::cost::PAGE_SIZE;
use crate::error::{StoreError, StoreResult};
use crate::page::{PageKey, PageStore, StoreId};
use crate::tracker::{CacheCounts, IoTracker};

/// Below this capacity the pool uses one shard (exact global LRU).
pub const SHARD_THRESHOLD: usize = 128;

/// Shards used by bounded pools at or above [`SHARD_THRESHOLD`], and by
/// unbounded pools.
const DEFAULT_SHARDS: usize = 8;

/// A mismatching image is dropped and the page physically re-read this
/// many extra times before [`BufferPool::load_verified`] declares the
/// corruption permanent — a transient bad transfer heals, bad media
/// does not.
const IMAGE_READ_RETRIES: usize = 2;

/// A page image as it was physically read, and what is known about it.
#[derive(Debug, Clone)]
struct Image {
    bytes: Arc<[u8]>,
    /// [`checksum`] of `bytes`, once some [`BufferPool::load_verified`]
    /// has computed it; `None` for an image only plain
    /// [`BufferPool::load`] has touched. While it is known, a verified
    /// load whose expected sum equals it is served without hashing.
    sum: Option<u64>,
}

#[derive(Debug)]
struct Frame {
    last_use: u64,
    /// Page contents, present once the page has been physically read
    /// through [`BufferPool::load`] or [`BufferPool::load_verified`].
    /// Simulated-I/O access paths never read contents, so their frames
    /// stay data-free.
    image: Option<Image>,
}

#[cfg(debug_assertions)]
thread_local! {
    /// Whether this thread holds a [`ShardGuard`] (debug builds only).
    /// Under one the pool reads no page and locks no second shard: a
    /// read would stall every thread on that stripe, and two pages may
    /// hash to the same stripe.
    static SHARD_HELD: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// In debug builds, panic if this thread holds a shard guard.
fn assert_no_shard_held() {
    #[cfg(debug_assertions)]
    assert!(!SHARD_HELD.get(), "page read or second shard lock under a held pool shard guard");
}

/// Physically read one page into a fresh shared buffer — one
/// allocation, and the store writes straight into it.
fn read_page(store: &dyn PageStore, page: u64) -> StoreResult<Arc<[u8]>> {
    assert_no_shard_held();
    let mut bytes: Arc<[u8]> = std::iter::repeat_n(0u8, PAGE_SIZE).collect();
    // A fresh `Arc` is unique, so `make_mut` hands out its buffer
    // without cloning.
    store.read_into(page, Arc::make_mut(&mut bytes))?;
    Ok(bytes)
}

/// The frame table's hash over the two words of a [`PageKey`]: a
/// multiply per word, rotated at the end so that both the low bits
/// (the bucket) and the top 7 (hashbrown's control tag) come from the
/// well-mixed middle of the product. It is deliberately not the shard
/// mix of [`BufferPool::shard`]: every key of a shard agrees in that
/// mix's top bits, and would then share its tag too.
#[derive(Debug, Default)]
struct PageKeyHasher(u64);

impl Hasher for PageKeyHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, word: u64) {
        self.0 = self.0.wrapping_add(word).wrapping_mul(0xF135_7AEA_2E62_A9C5);
    }

    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }
}

#[derive(Debug, Default)]
struct Inner {
    frames: HashMap<PageKey, Frame, BuildHasherDefault<PageKeyHasher>>,
    tick: u64,
    totals: CacheCounts,
}

#[derive(Debug)]
struct Shard {
    capacity: Option<usize>,
    inner: Mutex<Inner>,
}

impl Shard {
    /// The pool is a pure cache: every frame is independently
    /// re-readable from its backing store, so state guarded by a
    /// poisoned lock is still safe to serve. Recover the guard instead
    /// of propagating the poison — one panicking query must not take
    /// the shared pool down with it.
    fn lock(&self) -> ShardGuard<'_> {
        assert_no_shard_held();
        let inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        #[cfg(debug_assertions)]
        SHARD_HELD.set(true);
        ShardGuard(inner)
    }
}

/// A locked shard. In debug builds it marks its thread as holding one
/// until it drops, unwinding included: the pool recovers a poisoned
/// shard, so the thread of a panicking query goes on using it.
struct ShardGuard<'a>(MutexGuard<'a, Inner>);

impl Deref for ShardGuard<'_> {
    type Target = Inner;

    fn deref(&self) -> &Inner {
        &self.0
    }
}

impl DerefMut for ShardGuard<'_> {
    fn deref_mut(&mut self) -> &mut Inner {
        &mut self.0
    }
}

#[cfg(debug_assertions)]
impl Drop for ShardGuard<'_> {
    fn drop(&mut self) {
        SHARD_HELD.set(false);
    }
}

/// Shared lock-striped LRU page cache with a physical read-through
/// path.
#[derive(Debug)]
pub struct BufferPool {
    capacity: Option<usize>,
    shards: Vec<Shard>,
}

impl BufferPool {
    /// Pool holding at most `capacity` pages (`capacity >= 1`). Small
    /// pools get a single shard (exact LRU); larger ones are striped
    /// across [`DEFAULT_SHARDS`] locks.
    pub fn new(capacity: usize) -> Arc<Self> {
        assert!(capacity >= 1, "buffer pool capacity must be at least 1");
        let shards = if capacity < SHARD_THRESHOLD { 1 } else { DEFAULT_SHARDS };
        Self::with_shards(Some(capacity), shards)
    }

    /// Pool that never evicts (models "everything fits in memory").
    pub fn unbounded() -> Arc<Self> {
        Self::with_shards(None, DEFAULT_SHARDS)
    }

    /// Unbounded pool of one shard, for one query's own use
    /// ([`QueryContext::ephemeral`](crate::QueryContext::ephemeral)):
    /// nothing contends for it, and without eviction the shard count
    /// changes no charge.
    pub(crate) fn unbounded_private() -> Arc<Self> {
        Self::with_shards(None, 1)
    }

    /// Pool with an explicit shard count (rounded up to a power of
    /// two, clamped so every shard holds at least one page);
    /// `with_shards(cap, 1)` is one exact LRU under a single lock.
    fn with_shards(capacity: Option<usize>, shards: usize) -> Arc<Self> {
        let mut count = shards.max(1).next_power_of_two();
        if let Some(cap) = capacity {
            assert!(cap >= 1, "buffer pool capacity must be at least 1");
            while count > 1 && cap / count == 0 {
                count /= 2;
            }
        }
        let shards = (0..count)
            .map(|i| Shard {
                // Distribute the capacity exactly: cap = Σ shard caps.
                capacity: capacity.map(|cap| cap / count + usize::from(i < cap % count)),
                inner: Mutex::new(Inner::default()),
            })
            .collect();
        Arc::new(BufferPool { capacity, shards })
    }

    pub fn capacity(&self) -> Option<usize> {
        self.capacity
    }

    fn shard(&self, key: PageKey) -> &Shard {
        // Fibonacci hash over (store, page); high bits select the shard.
        let mixed =
            (key.store.raw() ^ key.page.rotate_left(29)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        &self.shards[(mixed >> 56) as usize & (self.shards.len() - 1)]
    }

    /// Pages currently resident.
    pub fn resident(&self) -> usize {
        self.shards.iter().map(|s| s.lock().frames.len()).sum()
    }

    /// Lifetime hit/miss/eviction totals across all queries, summed
    /// over shards.
    pub fn stats(&self) -> PoolStats {
        let mut counts = CacheCounts::default();
        let mut resident = 0;
        for shard in &self.shards {
            let inner = shard.lock();
            counts = counts + inner.totals;
            resident += inner.frames.len();
        }
        PoolStats { counts, resident, capacity: self.capacity }
    }

    pub fn contains(&self, store: StoreId, page: u64) -> bool {
        let key = PageKey { store, page };
        self.shard(key).lock().frames.contains_key(&key)
    }

    /// Look up `pages` consecutive pages of `store` starting at
    /// `first`. Misses are charged to `tracker` (one page access each)
    /// and faulted in, evicting the least-recently-used frame as
    /// needed. Returns the number of misses.
    pub(crate) fn access(
        &self,
        store: StoreId,
        first: u64,
        pages: u64,
        tracker: &IoTracker,
    ) -> u64 {
        let mut missed = 0;
        for page in first..first + pages {
            let key = PageKey { store, page };
            let shard = self.shard(key);
            let mut inner = shard.lock();
            if !inner.touch(key, shard.capacity, tracker) {
                missed += 1;
            }
        }
        missed
    }

    /// One charged lookup of `key`: the number of misses (0 or 1) and
    /// the image its frame caches, if any. The shard lock is released
    /// on return, so the caller reads and hashes with the shard open.
    fn lookup(&self, key: PageKey, tracker: &IoTracker) -> (u64, Option<Image>) {
        let shard = self.shard(key);
        let mut inner = shard.lock();
        let missed = u64::from(!inner.touch(key, shard.capacity, tracker));
        (missed, inner.frames.get(&key).and_then(|f| f.image.clone()))
    }

    /// Read one page's *contents* through the pool: charged exactly
    /// like a one-page [`access`](Self::access), but on a miss (or a
    /// hit on a frame that was only ever touched by simulated access)
    /// the page is physically read from `store` and cached in the
    /// frame. Returns the contents and the number of charged misses
    /// (0 or 1). The image is served as read: nothing is verified.
    pub(crate) fn load(
        &self,
        store: &dyn PageStore,
        page: u64,
        tracker: &IoTracker,
    ) -> StoreResult<(Arc<[u8]>, u64)> {
        let key = PageKey { store: store.id(), page };
        let (missed, cached) = self.lookup(key, tracker);
        let bytes = match cached {
            Some(image) => image.bytes,
            None => {
                let bytes = read_page(store, page)?;
                self.shard(key).lock().fill(key, &bytes, None);
                bytes
            }
        };
        Ok((bytes, missed))
    }

    /// [`load`](Self::load) with verify-and-retry — the contract is on
    /// [`QueryContext::load_verified`](crate::QueryContext::load_verified).
    /// Like `load` it reads (and hashes) with the shard unlocked: the
    /// miss is charged once, at the lookup; two workers missing the same
    /// page at once may both read it, and either fill-in is as good.
    pub(crate) fn load_verified(
        &self,
        store: &dyn PageStore,
        page: u64,
        expected: u64,
        tracker: &IoTracker,
    ) -> StoreResult<(Arc<[u8]>, u64)> {
        let key = PageKey { store: store.id(), page };
        let (mut missed, mut found) = (0, 0);
        for _ in 0..=IMAGE_READ_RETRIES {
            let (m, cached) = self.lookup(key, tracker);
            missed += m;
            let image = match cached {
                Some(image) => image,
                None => Image { bytes: read_page(store, page)?, sum: None },
            };
            found = image.sum.unwrap_or_else(|| checksum(&image.bytes));
            if found == expected {
                if image.sum.is_none() {
                    self.shard(key).lock().fill(key, &image.bytes, Some(found));
                }
                return Ok((image.bytes, missed));
            }
            self.invalidate(key.store, page);
        }
        Err(StoreError::Corruption { page, expected, found })
    }

    /// Drop a page's cached contents so the next
    /// [`QueryContext::load`](crate::QueryContext::load) re-reads it
    /// from the backing store — what a verified load does to an image
    /// that fails its checksum, and what ends a verified frame's
    /// residency. The frame is removed outright. Counters are
    /// untouched: this is damage control, not an eviction. Loads read
    /// with the shard unlocked, so one already in flight may still
    /// cache the image it read before this call.
    /// Returns whether a frame was found.
    pub fn invalidate(&self, store: StoreId, page: u64) -> bool {
        let key = PageKey { store, page };
        self.shard(key).lock().discard(key)
    }
}

impl Inner {
    /// Cache `bytes` in the page's frame, unless the frame was evicted
    /// or invalidated while the page was read.
    fn fill(&mut self, key: PageKey, bytes: &Arc<[u8]>, sum: Option<u64>) {
        if let Some(frame) = self.frames.get_mut(&key) {
            frame.image = Some(Image { bytes: Arc::clone(bytes), sum });
        }
    }

    /// Drop the page's frame (see [`BufferPool::invalidate`]); returns
    /// whether there was one.
    fn discard(&mut self, key: PageKey) -> bool {
        self.frames.remove(&key).is_some()
    }

    /// Look up one page, faulting it in on miss; returns whether it was
    /// a hit.
    fn touch(&mut self, key: PageKey, capacity: Option<usize>, tracker: &IoTracker) -> bool {
        self.tick += 1;
        let tick = self.tick;
        if let Some(frame) = self.frames.get_mut(&key) {
            frame.last_use = tick;
            self.totals.hits += 1;
            tracker.record_hit();
            return true;
        }
        self.totals.misses += 1;
        tracker.record_miss();
        tracker.record_pages(1);
        if capacity.is_some_and(|cap| self.frames.len() >= cap) {
            self.evict_lru(tracker);
        }
        self.frames.insert(key, Frame { last_use: tick, image: None });
        false
    }

    /// Evict the least-recently-used frame.
    fn evict_lru(&mut self, tracker: &IoTracker) {
        let victim = self.frames.iter().min_by_key(|(_, f)| f.last_use).map(|(k, _)| *k);
        if let Some(key) = victim {
            self.frames.remove(&key);
            self.totals.evictions += 1;
            tracker.record_eviction();
        }
    }
}

/// Lifetime pool statistics.
#[derive(Debug, Clone, Copy)]
pub struct PoolStats {
    pub counts: CacheCounts,
    pub resident: usize,
    pub capacity: Option<usize>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::page::{InMemoryPageStore, PageStore};
    use std::time::Duration;

    fn ids() -> (StoreId, IoTracker) {
        (InMemoryPageStore::new().id(), IoTracker::default())
    }

    #[test]
    fn repeat_access_hits_and_is_free() {
        let (store, t) = ids();
        let pool = BufferPool::unbounded();
        assert_eq!(pool.access(store, 0, 3, &t), 3);
        assert_eq!(pool.access(store, 0, 3, &t), 0);
        let s = t.stats(Duration::ZERO);
        assert_eq!(s.io.pages, 3, "only misses are charged");
        assert_eq!(s.cache, CacheCounts { hits: 3, misses: 3, evictions: 0 });
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let (store, t) = ids();
        let pool = BufferPool::new(2);
        pool.access(store, 0, 1, &t); // {0}
        pool.access(store, 1, 1, &t); // {0, 1}
        pool.access(store, 0, 1, &t); // touch 0 -> LRU is 1
        pool.access(store, 2, 1, &t); // evicts 1 -> {0, 2}
        assert!(pool.contains(store, 0));
        assert!(!pool.contains(store, 1));
        assert!(pool.contains(store, 2));
        assert_eq!(t.stats(Duration::ZERO).cache.evictions, 1);
        assert_eq!(pool.resident(), 2);
    }

    #[test]
    fn capacity_is_never_exceeded() {
        let (store, t) = ids();
        let pool = BufferPool::new(4);
        for page in 0..100 {
            pool.access(store, page, 1, &t);
            assert!(pool.resident() <= 4);
        }
        assert_eq!(t.stats(Duration::ZERO).cache.evictions, 96);
    }

    #[test]
    fn two_stores_do_not_collide() {
        let a = InMemoryPageStore::new();
        let b = InMemoryPageStore::new();
        let t = IoTracker::default();
        let pool = BufferPool::unbounded();
        pool.access(a.id(), 0, 1, &t);
        assert_eq!(pool.access(b.id(), 0, 1, &t), 1, "same page number, different store");
        assert_eq!(pool.resident(), 2);
    }

    #[test]
    fn pool_totals_aggregate_across_trackers() {
        let (store, _) = ids();
        let pool = BufferPool::unbounded();
        let t1 = IoTracker::default();
        let t2 = IoTracker::default();
        pool.access(store, 0, 2, &t1);
        pool.access(store, 0, 2, &t2);
        let stats = pool.stats();
        assert_eq!(stats.counts, CacheCounts { hits: 2, misses: 2, evictions: 0 });
        assert_eq!(t1.stats(Duration::ZERO).cache.misses, 2);
        assert_eq!(t2.stats(Duration::ZERO).cache.hits, 2);
    }

    #[test]
    fn concurrent_access_totals_are_consistent() {
        let (store, _) = ids();
        let pool = BufferPool::new(8);
        std::thread::scope(|scope| {
            for w in 0..4 {
                let pool = &pool;
                scope.spawn(move || {
                    let t = IoTracker::default();
                    for i in 0..500u64 {
                        pool.access(store, (w * 37 + i * 13) % 64, 1, &t);
                    }
                    let s = t.stats(Duration::ZERO).cache;
                    assert_eq!(s.accesses(), 500);
                });
            }
        });
        let totals = pool.stats().counts;
        assert_eq!(totals.accesses(), 2000);
        assert!(pool.resident() <= 8);
    }

    #[test]
    fn small_pools_are_single_shard_large_pools_are_striped() {
        assert_eq!(BufferPool::new(8).shards.len(), 1, "exact LRU below the threshold");
        assert_eq!(BufferPool::new(SHARD_THRESHOLD).shards.len(), DEFAULT_SHARDS);
        assert_eq!(BufferPool::unbounded().shards.len(), DEFAULT_SHARDS);
        assert_eq!(BufferPool::unbounded_private().shards.len(), 1, "a query's own pool");
        assert_eq!(BufferPool::with_shards(Some(1024), 1).shards.len(), 1);
        assert_eq!(BufferPool::with_shards(None, 5).shards.len(), 8, "rounded to a power of two");
        assert_eq!(BufferPool::with_shards(Some(2), 8).shards.len(), 2, "clamped to capacity");
    }

    #[test]
    fn frame_hash_spreads_buckets_and_tags_within_a_shard() {
        use std::collections::HashSet;
        use std::hash::BuildHasher;
        // The keys one shard of an 8-shard pool holds, over two stores.
        let pool = BufferPool::unbounded();
        let (a, b) = (InMemoryPageStore::new().id(), InMemoryPageStore::new().id());
        let keys: Vec<PageKey> = [a, b]
            .into_iter()
            .flat_map(|store| (0..8192).map(move |page| PageKey { store, page }))
            .filter(|&key| std::ptr::eq(pool.shard(key), &pool.shards[0]))
            .collect();
        assert!(keys.len() > 1000, "{} keys", keys.len());
        let hasher = BuildHasherDefault::<PageKeyHasher>::default();
        let hashes: Vec<u64> = keys.iter().map(|k| hasher.hash_one(k)).collect();
        let tags: HashSet<u64> = hashes.iter().map(|h| h >> 57).collect();
        assert_eq!(tags.len(), 128, "every control tag in use");
        let buckets: HashSet<u64> = hashes.iter().map(|h| h & 1023).collect();
        assert!(buckets.len() > 800, "{} of 1024 buckets", buckets.len());
    }

    #[test]
    fn sharded_capacity_is_distributed_exactly() {
        let pool = BufferPool::with_shards(Some(130), 8);
        let per_shard: usize = pool.shards.iter().map(|s| s.capacity.unwrap()).sum();
        assert_eq!(per_shard, 130, "shard capacities sum to the pool capacity");
        let (store, t) = ids();
        for page in 0..1000 {
            pool.access(store, page, 1, &t);
        }
        assert!(pool.resident() <= 130);
        let s = pool.stats();
        assert_eq!(s.counts.misses, 1000);
        assert_eq!(s.counts.misses - s.counts.evictions, s.resident as u64);
    }

    #[test]
    fn sharded_totals_match_tracker_counts() {
        let store = InMemoryPageStore::new();
        let pool = BufferPool::with_shards(Some(256), 8);
        let t = IoTracker::default();
        for round in 0..3 {
            for page in 0..200 {
                pool.access(store.id(), page, 1, &t);
            }
            let s = pool.stats().counts;
            let q = t.stats(Duration::ZERO).cache;
            assert_eq!(s, q, "pool totals equal the single query's counts (round {round})");
        }
    }

    #[test]
    fn load_reads_through_and_caches_contents() {
        let store = InMemoryPageStore::new();
        let page = store.allocate(1).unwrap();
        store.write_page(page, &[0x5au8; 64]).unwrap();
        let pool = BufferPool::unbounded();
        let t = IoTracker::default();
        let (cold, missed) = pool.load(&store, page, &t).unwrap();
        assert_eq!(missed, 1);
        assert_eq!(&cold[..64], &[0x5au8; 64][..]);
        assert_eq!(cold.len(), PAGE_SIZE);
        let (warm, missed) = pool.load(&store, page, &t).unwrap();
        assert_eq!(missed, 0, "second load is a free hit");
        assert_eq!(warm, cold);
        let s = t.stats(Duration::ZERO);
        assert_eq!(s.io.pages, 1, "contents served from cache are not re-charged");
        assert_eq!(s.cache, CacheCounts { hits: 1, misses: 1, evictions: 0 });
    }

    #[test]
    fn load_after_simulated_access_fills_in_contents() {
        let store = InMemoryPageStore::new();
        let page = store.allocate(1).unwrap();
        store.write_page(page, &[3u8; 10]).unwrap();
        let pool = BufferPool::unbounded();
        let t = IoTracker::default();
        // Simulated access faults the frame in without contents...
        assert_eq!(pool.access(store.id(), page, 1, &t), 1);
        // ...so the first load hits (no new charge) but still reads.
        let (data, missed) = pool.load(&store, page, &t).unwrap();
        assert_eq!(missed, 0);
        assert_eq!(&data[..10], &[3u8; 10][..]);
        assert_eq!(t.stats(Duration::ZERO).io.pages, 1);
    }

    #[test]
    fn eviction_drops_cached_contents() {
        let store = InMemoryPageStore::new();
        let first = store.allocate(3).unwrap();
        for page in first..first + 3 {
            store.write_page(page, &[page as u8; 4]).unwrap();
        }
        let pool = BufferPool::new(1);
        let t = IoTracker::default();
        for page in first..first + 3 {
            let (data, missed) = pool.load(&store, page, &t).unwrap();
            assert_eq!(missed, 1, "capacity 1: every new page misses");
            assert_eq!(data[0], page as u8);
        }
        assert_eq!(pool.resident(), 1);
        assert_eq!(t.stats(Duration::ZERO).cache.evictions, 2);
    }

    #[test]
    fn invalidate_forces_a_physical_reread() {
        let store = InMemoryPageStore::new();
        let page = store.allocate(1).unwrap();
        store.write_page(page, &[1u8; 8]).unwrap();
        let pool = BufferPool::unbounded();
        let t = IoTracker::default();
        let (before, _) = pool.load(&store, page, &t).unwrap();
        assert_eq!(before[0], 1);
        // Rewrite behind the pool's back: a plain load still serves the
        // stale cached image, an invalidated one re-reads.
        store.write_page(page, &[2u8; 8]).unwrap();
        let (stale, _) = pool.load(&store, page, &t).unwrap();
        assert_eq!(stale[0], 1, "cache still holds the old image");
        assert!(pool.invalidate(store.id(), page));
        assert!(!pool.contains(store.id(), page));
        let (fresh, _) = pool.load(&store, page, &t).unwrap();
        assert_eq!(fresh[0], 2, "invalidate dropped the cached image");
        assert!(!pool.invalidate(store.id(), 999), "unknown page reports false");
    }

    #[test]
    fn poisoned_shard_lock_is_recovered_not_propagated() {
        let (store, t) = ids();
        let pool = BufferPool::with_shards(Some(64), 1);
        pool.access(store, 0, 4, &t);
        // Poison the single shard's mutex by panicking while holding it.
        let res = std::thread::scope(|scope| {
            scope
                .spawn(|| {
                    let _guard = pool.shards[0].inner.lock().unwrap();
                    panic!("poison the pool");
                })
                .join()
        });
        assert!(res.is_err(), "the poisoning thread panicked");
        // The pool keeps serving: lookups, loads, and stats all recover.
        assert_eq!(pool.access(store, 0, 4, &t), 0, "cached pages still hit");
        assert!(pool.stats().counts.accesses() >= 8);
        assert_eq!(pool.resident(), 4);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "page read or second shard lock under a held pool shard guard")]
    fn a_page_read_under_a_shard_guard_panics() {
        let store = InMemoryPageStore::new();
        let page = store.allocate(1).unwrap();
        let pool = BufferPool::new(4);
        let _guard = pool.shards[0].lock();
        let _ = read_page(&store, page);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "page read or second shard lock under a held pool shard guard")]
    fn a_second_shard_lock_under_a_shard_guard_panics() {
        // Two distinct shards: without the assertion this would not
        // deadlock, it would pass.
        let pool = BufferPool::with_shards(None, 2);
        let _first = pool.shards[0].lock();
        let _second = pool.shards[1].lock();
    }

    #[cfg(debug_assertions)]
    #[test]
    fn a_panic_under_a_shard_guard_does_not_leave_the_thread_marked() {
        let store = InMemoryPageStore::new();
        let page = store.allocate(1).unwrap();
        store.write_page(page, &[7u8; 8]).unwrap();
        let pool = BufferPool::with_shards(Some(64), 1);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = pool.shards[0].lock();
            panic!("a query panics under the shard lock");
        }));
        assert!(caught.is_err());
        // The same thread locks the (now poisoned) shard and reads again.
        let t = IoTracker::default();
        let (data, missed) = pool.load(&store, page, &t).unwrap();
        assert_eq!((data[0], missed), (7, 1));
        assert_eq!(pool.resident(), 1);
    }

    #[test]
    fn concurrent_loads_return_identical_contents() {
        let store = InMemoryPageStore::new();
        let first = store.allocate(16).unwrap();
        for page in first..first + 16 {
            store.write_page(page, &[page as u8; 32]).unwrap();
        }
        let pool = BufferPool::with_shards(Some(256), 8);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let (pool, store) = (&pool, &store);
                scope.spawn(move || {
                    let t = IoTracker::default();
                    for i in 0..200u64 {
                        let page = i % 16;
                        let (data, _) = pool.load(store, page, &t).unwrap();
                        assert_eq!(data[0], page as u8);
                    }
                });
            }
        });
        let s = pool.stats().counts;
        assert_eq!(s.accesses(), 800);
        assert_eq!(s.misses, 16, "each page faults exactly once across threads");
    }
}
