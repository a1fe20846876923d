//! Lock-striped LRU buffer pool over [`PageKey`]s.
//!
//! # Charging policy
//!
//! A lookup that *hits* the pool is free; a *miss* is charged as one
//! page access to the query's [`QueryContext`](crate::QueryContext)
//! (the paper's 8 ms). A pool with `capacity >= working set` therefore
//! issues zero simulated page costs on repeated queries, while a fresh
//! pool per query reproduces cold-cache accounting. The charge is
//! decided under the shard lock by the lookup alone; the physical read
//! that fills a missed frame happens afterwards, with the shard open,
//! and changes no counter.
//!
//! # Sharding
//!
//! The pool is split into power-of-two *shards*, each an independently
//! locked LRU over a slice of the capacity; a page's shard is fixed by
//! a hash of its page number, so concurrent queries touching different
//! pages rarely contend on the same mutex, and one file's pages land in
//! the same shards in every process. Small pools (below
//! [`SHARD_THRESHOLD`] pages) collapse to a single shard so eviction
//! order stays exactly global LRU. Above it, LRU is shard-local: on a
//! recorded one-client `knn_file` trace (768 queries at 256 pages), 8
//! shards took 113.2 faults per query against 110.5 for one shard.
//! A query's own
//! pool ([`QueryContext::ephemeral`](crate::QueryContext::ephemeral))
//! is one unbounded shard: nothing else ever locks it, and a pool that
//! never evicts charges the same whatever its shard count.
//! Per-shard [`CacheCounts`] totals are summed into [`PoolStats`], so
//! the counter-parity invariant (pool totals = Σ per-query trackers)
//! is preserved.
//!
//! # A shard's frames
//!
//! A shard keeps its frames in a slab (`Vec<Frame>`) and maps each
//! resident [`PageKey`] to its slot. A bounded shard threads its
//! frames on an intrusive recency list (`prev` / `next` slot indices,
//! most recent at the head), so a hit moves one frame to the head and
//! a miss in a full shard reuses the tail's slot: both O(1), and the
//! eviction order is exactly that of the shard's LRU. An unbounded
//! shard never evicts and keeps no list. The map hashes a key with a
//! fixed multiplicative hash, not SipHash: the library numbers every
//! page itself, so there is no adversary to resist.
//!
//! An evicted frame's page buffer, when no reader still holds it,
//! becomes the buffer of a later physical read: the one that follows
//! the miss, or, if a simulated access evicted it, the next read whose
//! miss evicted no image. So once a pool is full, a miss neither
//! allocates a page nor frees one under a shard lock.

use std::collections::hash_map::Entry;
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

/// The end of a shard's recency list.
const NIL: usize = usize::MAX;

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
    key: PageKey,
    /// Page contents, present once the page has been physically read
    /// through [`BufferPool::load`] or [`BufferPool::load_verified`].
    /// Simulated-I/O access paths never read contents, so their frames
    /// stay data-free.
    image: Option<Image>,
    /// Neighbours on a bounded shard's recency list: `prev` was used
    /// more recently, `next` less. Unused in an unbounded shard.
    prev: usize,
    next: usize,
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

/// Physically read one page into a shared buffer, with no shard lock
/// held. The buffer is `recycled`, an evicted frame's page, when no
/// reader still holds it; otherwise it is one fresh allocation. Either
/// way the store writes every byte of it.
fn read_page(
    store: &dyn PageStore,
    page: u64,
    recycled: Option<Arc<[u8]>>,
) -> StoreResult<Arc<[u8]>> {
    assert_no_shard_held();
    let mut bytes = recycled
        .and_then(|mut bytes| Arc::get_mut(&mut bytes).is_some().then_some(bytes))
        .unwrap_or_else(|| std::iter::repeat_n(0u8, PAGE_SIZE).collect());
    // The buffer is unique, so `make_mut` hands it out without cloning.
    store.read_into(page, Arc::make_mut(&mut bytes))?;
    Ok(bytes)
}

/// What a lookup found: the frame's image, or else the page buffer, if
/// any, that the physical read which must follow may reuse.
type Found = Result<Image, Option<Arc<[u8]>>>;

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

/// One shard's state (see the module doc's "A shard's frames").
#[derive(Debug)]
struct Inner {
    /// Frames this shard may hold; `None` never evicts.
    capacity: Option<usize>,
    slots: HashMap<PageKey, usize, BuildHasherDefault<PageKeyHasher>>,
    frames: Vec<Frame>,
    /// Most and least recently used slot of a bounded shard.
    head: usize,
    tail: usize,
    /// Page buffers that simulated accesses evicted, kept for the
    /// physical reads of misses that evict none. With the frames'
    /// images they never number more than the shard's capacity.
    spare: Vec<Arc<[u8]>>,
    totals: CacheCounts,
}

/// Aligned to two cache lines so that two shards' locks never share
/// one (nor an adjacent pair the prefetcher fetches together).
#[derive(Debug)]
#[repr(align(128))]
struct Shard {
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
    /// across eight locks.
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
                inner: Mutex::new(Inner {
                    // Distribute the capacity exactly: cap = Σ shard caps.
                    capacity: capacity.map(|cap| cap / count + usize::from(i < cap % count)),
                    slots: HashMap::default(),
                    frames: Vec::new(),
                    head: NIL,
                    tail: NIL,
                    spare: Vec::new(),
                    totals: CacheCounts::default(),
                }),
            })
            .collect();
        Arc::new(BufferPool { capacity, shards })
    }

    pub fn capacity(&self) -> Option<usize> {
        self.capacity
    }

    fn shard(&self, key: PageKey) -> &Shard {
        // Fibonacci hash of the page number; high bits select the shard.
        // The store's id stays out of it: that is a process-wide counter,
        // and a page's shard — so a bounded pool's eviction order — must
        // not depend on how many stores the process opened before.
        let mixed = key.page.wrapping_mul(0x9E37_79B9_7F4A_7C15);
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
        self.shard(key).lock().slots.contains_key(&key)
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
            let mut inner = self.shard(key).lock();
            let (_, hit, evicted) = inner.touch(key, tracker);
            inner.spare.extend(evicted);
            missed += u64::from(!hit);
        }
        missed
    }

    /// One charged lookup of `key`: the number of misses (0 or 1), the
    /// frame's slot, and either the image the frame caches or a page
    /// buffer for the read that must follow (the one the lookup
    /// evicted, else the shard's spare, if any). The shard lock is
    /// released on return, so the caller reads and hashes with the
    /// shard open.
    fn lookup(&self, key: PageKey, tracker: &IoTracker) -> (u64, usize, Found) {
        let mut inner = self.shard(key).lock();
        let (slot, hit, evicted) = inner.touch(key, tracker);
        let found = match &inner.frames[slot].image {
            Some(image) => Ok(image.clone()),
            None => Err(evicted.or_else(|| inner.spare.pop())),
        };
        (u64::from(!hit), slot, found)
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
        let (missed, slot, found) = self.lookup(key, tracker);
        let bytes = match found {
            Ok(image) => image.bytes,
            Err(recycled) => {
                let bytes = read_page(store, page, recycled)?;
                self.shard(key).lock().fill(slot, key, &bytes, None);
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
            let (m, slot, cached) = self.lookup(key, tracker);
            missed += m;
            let image = match cached {
                Ok(image) => image,
                Err(recycled) => Image { bytes: read_page(store, page, recycled)?, sum: None },
            };
            found = image.sum.unwrap_or_else(|| checksum(&image.bytes));
            if found == expected {
                if image.sum.is_none() {
                    self.shard(key).lock().fill(slot, key, &image.bytes, Some(found));
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
        // A dropped image is freed after the guard.
        let discarded = self.shard(key).lock().discard(key);
        discarded.is_some()
    }
}

impl Inner {
    /// Cache `bytes` in the frame at `slot` if it still holds `key`;
    /// the frame may have been evicted, invalidated or moved while the
    /// page was read. Then the image is not cached, and the frame's
    /// next load reads the page again.
    fn fill(&mut self, slot: usize, key: PageKey, bytes: &Arc<[u8]>, sum: Option<u64>) {
        if let Some(frame) = self.frames.get_mut(slot).filter(|f| f.key == key) {
            frame.image = Some(Image { bytes: Arc::clone(bytes), sum });
        }
    }

    /// Drop the page's frame (see [`BufferPool::invalidate`]) and
    /// return it. The slab's last frame moves into the freed slot.
    fn discard(&mut self, key: PageKey) -> Option<Frame> {
        let slot = self.slots.remove(&key)?;
        let bounded = self.capacity.is_some();
        if bounded {
            self.unlink(slot);
        }
        let frame = self.frames.swap_remove(slot);
        if let Some(moved) = self.frames.get(slot) {
            let (prev, next) = (moved.prev, moved.next);
            self.slots.insert(moved.key, slot);
            if bounded {
                self.point_at(prev, next, slot);
            }
        }
        Some(frame)
    }

    /// Look up one page, faulting it in on a miss. Returns its slot,
    /// whether it was a hit, and the page buffer of the frame a miss
    /// evicted.
    fn touch(&mut self, key: PageKey, tracker: &IoTracker) -> (usize, bool, Option<Arc<[u8]>>) {
        let vacant = match self.slots.entry(key) {
            Entry::Occupied(hit) => {
                let slot = *hit.get();
                self.totals.hits += 1;
                tracker.record_hit();
                if self.capacity.is_some() && slot != self.head {
                    self.unlink(slot);
                    self.push_front(slot);
                }
                return (slot, true, None);
            }
            Entry::Vacant(vacant) => vacant,
        };
        self.totals.misses += 1;
        tracker.record_miss();
        tracker.record_pages(1);
        let frame = Frame { key, image: None, prev: NIL, next: NIL };
        let full = self.capacity.map(|cap| self.frames.len() >= cap);
        if full != Some(true) {
            let slot = self.frames.len();
            vacant.insert(slot);
            self.frames.push(frame);
            if full.is_some() {
                self.push_front(slot);
            }
            return (slot, false, None);
        }
        // A full shard: the least recently used frame's slot takes the
        // page.
        let slot = self.tail;
        vacant.insert(slot);
        self.unlink(slot);
        let victim = std::mem::replace(&mut self.frames[slot], frame);
        self.slots.remove(&victim.key);
        self.push_front(slot);
        self.totals.evictions += 1;
        tracker.record_eviction();
        (slot, false, victim.image.map(|image| image.bytes))
    }

    /// Take `slot` off the recency list.
    fn unlink(&mut self, slot: usize) {
        let Frame { prev, next, .. } = self.frames[slot];
        if prev == NIL {
            self.head = next;
        } else {
            self.frames[prev].next = next;
        }
        if next == NIL {
            self.tail = prev;
        } else {
            self.frames[next].prev = prev;
        }
    }

    /// Put `slot` at the head of the recency list.
    fn push_front(&mut self, slot: usize) {
        let old = self.head;
        self.frames[slot].prev = NIL;
        self.frames[slot].next = old;
        self.point_at(NIL, old, slot);
    }

    /// Make the list neighbours `prev` and `next` (or the list's ends,
    /// where they are [`NIL`]) point at `slot`.
    fn point_at(&mut self, prev: usize, next: usize, slot: usize) {
        if prev == NIL {
            self.head = slot;
        } else {
            self.frames[prev].next = slot;
        }
        if next == NIL {
            self.tail = slot;
        } else {
            self.frames[next].prev = slot;
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
    use std::collections::VecDeque;
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
        let per_shard: usize = pool.shards.iter().map(|s| s.lock().capacity.unwrap()).sum();
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
        let _ = read_page(&store, page, None);
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

    /// The pool's specification: per shard, a queue of resident keys
    /// (most recently used first) of at most the shard's capacity.
    struct LruModel {
        shards: Vec<(Option<usize>, VecDeque<PageKey>)>,
        counts: CacheCounts,
    }

    impl LruModel {
        fn of(pool: &BufferPool) -> Self {
            let shards = pool.shards.iter().map(|s| (s.lock().capacity, VecDeque::new())).collect();
            LruModel { shards, counts: CacheCounts::default() }
        }

        fn touch(&mut self, shard: usize, key: PageKey) {
            let (capacity, queue) = &mut self.shards[shard];
            if let Some(at) = queue.iter().position(|&k| k == key) {
                queue.remove(at);
                self.counts.hits += 1;
            } else {
                self.counts.misses += 1;
                if capacity.is_some_and(|cap| queue.len() >= cap) {
                    queue.pop_back();
                    self.counts.evictions += 1;
                }
            }
            queue.push_front(key);
        }

        fn discard(&mut self, shard: usize, key: PageKey) -> bool {
            let queue = &mut self.shards[shard].1;
            let at = queue.iter().position(|&k| k == key);
            at.map(|at| queue.remove(at)).is_some()
        }

        fn resident(&self) -> usize {
            self.shards.iter().map(|(_, q)| q.len()).sum()
        }

        fn contains(&self, shard: usize, key: PageKey) -> bool {
            self.shards[shard].1.contains(&key)
        }
    }

    /// The contents of page `p` of store `s` (distinct per page, so a
    /// mixed-up or stale buffer shows).
    fn contents(s: usize, p: u64) -> Vec<u8> {
        (0..PAGE_SIZE).map(|i| (i as u64 * 7 + p * 13 + s as u64 * 101) as u8).collect()
    }

    #[test]
    fn every_capacity_evicts_exactly_like_a_per_shard_lru_model() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        for capacity in
            [Some(1), Some(2), Some(7), Some(127), Some(128), Some(130), Some(256), None]
        {
            let pool = capacity.map_or_else(BufferPool::unbounded, BufferPool::new);
            let mut model = LruModel::of(&pool);
            // Two stores of one and a half times the capacity each, so
            // hits and evictions are both common.
            let pages = capacity.map_or(96, |cap| cap as u64 * 3 / 2 + 4);
            let stores: Vec<InMemoryPageStore> = (0..2)
                .map(|s| {
                    let store = InMemoryPageStore::new();
                    store.allocate(pages).unwrap();
                    for p in 0..pages {
                        store.write_page(p, &contents(s, p)).unwrap();
                    }
                    store
                })
                .collect();
            let sums: Vec<Vec<u64>> =
                (0..2).map(|s| (0..pages).map(|p| checksum(&contents(s, p))).collect()).collect();
            let shard_of = |key: PageKey| {
                pool.shards.iter().position(|s| std::ptr::eq(s, pool.shard(key))).unwrap()
            };
            let t = IoTracker::default();
            let mut rng = StdRng::seed_from_u64(42);
            for op in 0..1500 {
                let s = rng.gen_range(0..2);
                let (store, page) = (&stores[s], rng.gen_range(0..pages));
                let key = key_at(store, page);
                match rng.gen_range(0..8) {
                    0..=2 => {
                        let span = rng.gen_range(1..=3).min(pages - page);
                        let missed = pool.access(store.id(), page, span, &t);
                        let before = model.counts.misses;
                        for p in page..page + span {
                            let key = key_at(store, p);
                            model.touch(shard_of(key), key);
                        }
                        assert_eq!(missed, model.counts.misses - before, "op {op}: access misses");
                    }
                    3 | 4 => {
                        let (data, missed) = pool.load(store, page, &t).unwrap();
                        model.touch(shard_of(key), key);
                        assert_eq!(&data[..], &contents(s, page)[..], "op {op}: loaded contents");
                        assert!(missed <= 1);
                    }
                    5 | 6 => {
                        let (data, _) =
                            pool.load_verified(store, page, sums[s][page as usize], &t).unwrap();
                        model.touch(shard_of(key), key);
                        assert_eq!(&data[..], &contents(s, page)[..], "op {op}: verified contents");
                    }
                    _ => {
                        let found = pool.invalidate(store.id(), page);
                        assert_eq!(found, model.discard(shard_of(key), key), "op {op}: invalidate");
                    }
                }
                let counts = pool.stats().counts;
                assert_eq!(counts, model.counts, "capacity {capacity:?}, op {op}");
                assert_eq!(pool.resident(), model.resident(), "capacity {capacity:?}, op {op}");
                for store in &stores {
                    for p in 0..pages {
                        let key = key_at(store, p);
                        assert_eq!(
                            pool.contains(store.id(), p),
                            model.contains(shard_of(key), key),
                            "capacity {capacity:?}, op {op}: page {p}"
                        );
                    }
                }
            }
        }
    }

    fn key_at(store: &InMemoryPageStore, page: u64) -> PageKey {
        PageKey { store: store.id(), page }
    }

    /// A one-frame pool over a full page 0, a page 1 written short and a
    /// page 2 never written.
    fn one_frame_pool() -> (InMemoryPageStore, Arc<BufferPool>) {
        let store = InMemoryPageStore::new();
        store.allocate(3).unwrap();
        store.write_page(0, &[0x11; PAGE_SIZE]).unwrap();
        store.write_page(1, &[0x22; 10]).unwrap();
        (store, BufferPool::new(1))
    }

    #[test]
    fn a_recycled_buffer_never_shows_the_evicted_page() {
        let (store, pool) = one_frame_pool();
        let t = IoTracker::default();
        let full = Arc::as_ptr(&pool.load(&store, 0, &t).unwrap().0);
        // Page 1 evicts page 0 and is read into its buffer.
        let (short, _) = pool.load(&store, 1, &t).unwrap();
        assert_eq!(Arc::as_ptr(&short), full, "the evicted buffer was recycled");
        assert_eq!(&short[..10], &[0x22; 10][..]);
        assert!(short[10..].iter().all(|&b| b == 0), "the tail of a short page is zeros");
        drop(short);
        // A simulated access evicts page 1: its buffer waits in the
        // shard's spare until page 2 evicts the image-less frame.
        pool.access(store.id(), 7, 1, &t);
        let (empty, _) = pool.load(&store, 2, &t).unwrap();
        assert_eq!(Arc::as_ptr(&empty), full, "the spare buffer was recycled");
        assert!(empty.iter().all(|&b| b == 0), "a never-written page reads zeros");
    }

    #[test]
    fn a_buffer_a_reader_still_holds_is_not_recycled() {
        let (store, pool) = one_frame_pool();
        let t = IoTracker::default();
        let (held, _) = pool.load(&store, 0, &t).unwrap();
        let (next, _) = pool.load(&store, 1, &t).unwrap();
        assert_ne!(Arc::as_ptr(&next), Arc::as_ptr(&held), "a fresh buffer");
        assert!(held.iter().all(|&b| b == 0x11), "the reader's image is untouched");
        assert_eq!(t.stats(Duration::ZERO).cache.evictions, 1);
    }
}
