//! Verified pool frames, end to end: a heap file reopened over a
//! [`FaultInjectingPageStore`] and read through shared and private
//! pools. A page image is checked against its saved checksum where it
//! is physically read, the frame remembers the sum, and hits on it are
//! served without hashing — so these tests pin *when* a check happens
//! (and what it costs in charged misses and physical reads), not only
//! that corruption is caught.

use std::sync::Arc;
use std::time::Duration;

use vsim_index::{
    BufferPool, CacheCounts, Fault, FaultInjectingPageStore, FaultPlan, InMemoryPageStore,
    PageStore, QueryContext, StoreError, VectorSetStore, PAGE_SIZE,
};
use vsim_setdist::VectorSet;

type Faulty = FaultInjectingPageStore<InMemoryPageStore>;

/// 7-vector sets of 344 bytes: 40 of them span four pages, and record 0
/// sits wholly on the image's first page.
fn sets() -> Vec<VectorSet> {
    (0..40)
        .map(|i| {
            let mut s = VectorSet::new(6);
            for j in 0..7 {
                s.push(&[(i * 7 + j) as f64 * 0.5; 6]);
            }
            s
        })
        .collect()
}

/// A heap file saved into a clean in-memory store (optionally damaged
/// by `damage` once it is on "disk") and reopened through a fault
/// wrapper whose operation clock starts at the first *data* page read:
/// `plan` indices count physical reads of image pages. Returns the
/// wrapper, the reopened file and the image's first page.
fn reopened(
    plan: impl FnOnce(u64) -> FaultPlan,
    damage: impl FnOnce(&InMemoryPageStore, u64),
) -> (Arc<Faulty>, VectorSetStore, u64) {
    let inner = InMemoryPageStore::new();
    let handle = VectorSetStore::build(&sets()).save_to(&inner).unwrap();
    // `save_to` writes the image span first, from the store's page 0.
    let image_first = 0;
    damage(&inner, image_first);
    // Opening reads the metadata stream: one read per stream page.
    let store = Arc::new(FaultInjectingPageStore::new(inner, plan(handle.pages)));
    let opened =
        VectorSetStore::open_from(Arc::clone(&store) as Arc<dyn PageStore>, handle.first).unwrap();
    assert_eq!(store.ops(), handle.pages, "open reads the metadata stream and nothing else");
    (store, opened, image_first)
}

fn flip_on_media(store: &InMemoryPageStore, page: u64) {
    let mut image = vec![0u8; PAGE_SIZE];
    store.read_into(page, &mut image).unwrap();
    image[100] ^= 0x40;
    store.write_page(page, &image).unwrap();
}

fn cache(ctx: &QueryContext) -> CacheCounts {
    ctx.stats(Duration::ZERO).cache
}

#[test]
fn a_transient_flip_heals_charging_one_miss_per_physical_read() {
    let (store, heap, first) =
        reopened(|t0| FaultPlan::none().with_fault(t0, Fault::BitFlip { bit: 999 }), |_, _| {});
    let t0 = store.ops();
    let pool = BufferPool::new(8);

    let ctx = QueryContext::with_pool(Arc::clone(&pool));
    assert_eq!(heap.get(0, &ctx).unwrap(), sets()[0]);
    assert_eq!(store.ops() - t0, 2, "the flipped read and one clean re-read");
    assert_eq!(cache(&ctx), CacheCounts { hits: 0, misses: 2, evictions: 0 });
    assert_eq!(ctx.stats(Duration::ZERO).io.pages, 2, "every physical read is a charged miss");

    // The healed image is cached and servable: a second query hits it
    // without touching the store.
    assert!(pool.contains(store.id(), first));
    let again = QueryContext::with_pool(pool);
    assert_eq!(heap.get(0, &again).unwrap(), sets()[0]);
    assert_eq!(store.ops() - t0, 2);
    assert_eq!(cache(&again), CacheCounts { hits: 1, misses: 0, evictions: 0 });
}

#[test]
fn a_persistent_flip_fails_every_toucher_of_a_shared_pool_and_caches_nothing() {
    let (store, heap, first) = reopened(|_| FaultPlan::none(), flip_on_media);
    let pool = BufferPool::new(8);
    for toucher in 0..2 {
        let t0 = store.ops();
        let ctx = QueryContext::with_pool(Arc::clone(&pool));
        match heap.get(0, &ctx) {
            Err(StoreError::Corruption { page, expected, found }) => {
                assert_eq!(page, first);
                assert_ne!(expected, found);
            }
            other => panic!("toucher {toucher}: expected Corruption, got {other:?}"),
        }
        assert_eq!(store.ops() - t0, 3, "toucher {toucher}: one read and two re-reads");
        assert_eq!(cache(&ctx).misses, 3, "toucher {toucher}: each of them a charged miss");
        assert!(!pool.contains(store.id(), first), "a mismatching image is never cached");
    }
    // The damage stays on its page: a record elsewhere is served; a
    // whole-file scan, which must cross it, fails as typed.
    let ctx = QueryContext::with_pool(pool);
    assert_eq!(heap.get(39, &ctx).unwrap(), sets()[39]);
    assert!(matches!(heap.scan(&ctx).err(), Some(StoreError::Corruption { .. })));
}

#[test]
fn a_frame_filled_by_plain_load_is_verified_not_trusted() {
    // The plain load meets a transient flip and caches the flipped
    // image — `load` checks nothing. The first verified use hashes that
    // image, drops it and re-reads.
    let (store, heap, first) =
        reopened(|t0| FaultPlan::none().with_fault(t0, Fault::BitFlip { bit: 999 }), |_, _| {});
    let t0 = store.ops();
    let ctx = QueryContext::with_pool(BufferPool::new(8));
    let (flipped, _) = ctx.load(store.as_ref(), first).unwrap();
    assert_eq!(heap.get(0, &ctx).unwrap(), sets()[0]);
    assert_eq!(store.ops() - t0, 2, "the plain load's read and the verified re-read");
    assert_eq!(cache(&ctx), CacheCounts { hits: 1, misses: 2, evictions: 0 });
    let (clean, _) = ctx.load(store.as_ref(), first).unwrap();
    assert_ne!(flipped, clean, "the frame now holds the verified image");

    // And a clean image cached by plain load is hashed, found good and
    // served without a second physical read.
    let (store, heap, first) = reopened(|_| FaultPlan::none(), |_, _| {});
    let t0 = store.ops();
    let ctx = QueryContext::with_pool(BufferPool::new(8));
    ctx.load(store.as_ref(), first).unwrap();
    assert_eq!(heap.get(0, &ctx).unwrap(), sets()[0]);
    assert_eq!(store.ops() - t0, 1);
}

#[test]
fn a_frame_verified_for_one_sum_is_not_served_for_another() {
    let (store, heap, first) = reopened(|_| FaultPlan::none(), |_, _| {});
    let ctx = QueryContext::with_pool(BufferPool::new(8));
    heap.get(0, &ctx).unwrap();
    let (image, _) = ctx.load(store.as_ref(), first).unwrap();
    let sum = vsim_index::checksum(&image);
    let t0 = store.ops();
    // The sum the frame was verified for: served from the frame.
    assert_eq!(ctx.load_verified(store.as_ref(), first, sum).unwrap().0, image);
    assert_eq!(store.ops(), t0);
    // Any other: the frame is dropped, the page re-read, and the
    // mismatch reported against what the store really holds.
    match ctx.load_verified(store.as_ref(), first, sum ^ 1) {
        Err(StoreError::Corruption { page, expected, found }) => {
            assert_eq!((page, expected, found), (first, sum ^ 1, sum));
        }
        other => panic!("expected Corruption, got {other:?}"),
    }
    assert_eq!(store.ops() - t0, 2, "the frame's own sum settled the first attempt");
    // The next reader with the right sum pays one physical read.
    assert_eq!(heap.get(0, &ctx).unwrap(), sets()[0]);
    assert_eq!(store.ops() - t0, 3);
}

/// Once per residency: integrity is checked where a page is physically
/// read, so a page rewritten behind the pool's back keeps being served
/// from its verified frame until the frame goes — the verified twin of
/// `invalidate_forces_a_physical_reread`.
#[test]
fn a_rewritten_page_is_served_from_its_verified_frame_until_invalidated() {
    let (store, heap, first) = reopened(|_| FaultPlan::none(), |_, _| {});
    let ctx = QueryContext::with_pool(BufferPool::new(8));
    assert_eq!(heap.get(0, &ctx).unwrap(), sets()[0]);
    flip_on_media(store.inner(), first);
    let t0 = store.ops();
    assert_eq!(heap.get(0, &ctx).unwrap(), sets()[0], "the verified frame is still resident");
    assert_eq!(store.ops(), t0, "and a hit on it neither reads nor hashes the store's page");
    assert!(ctx.invalidate(store.id(), first));
    assert!(matches!(heap.get(0, &ctx), Err(StoreError::Corruption { .. })));
}
