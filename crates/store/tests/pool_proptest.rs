//! Property tests for the LRU buffer pool: random access workloads
//! must never violate the pool's structural invariants.

use proptest::prelude::*;
use std::sync::Arc;
use std::time::Duration;
use vsim_store::{
    checksum, BufferPool, Fault, FaultInjectingPageStore, FaultPlan, InMemoryPageStore, PageStore,
    QueryContext, PAGE_SIZE,
};

/// Pages in each store of the charge-parity test.
const PAGES: u64 = 24;

/// One call on a context, against store 0 (clean) or 1 (faulty).
#[derive(Debug, Clone, Copy)]
enum Op {
    Access { store: usize, first: u64, pages: u64 },
    Load { store: usize, page: u64 },
    LoadVerified { store: usize, page: u64 },
    Invalidate { store: usize, page: u64 },
}

impl Op {
    /// Decode one drawn word: kind, store, page and span from its
    /// digits.
    fn from_word(x: u64) -> Op {
        let (store, page) = ((x / 4 % 2) as usize, x / 8 % PAGES);
        match x % 4 {
            0 => Op::Access { store, first: page, pages: 1 + x / (8 * PAGES) % 3 },
            1 => Op::Load { store, page },
            2 => Op::LoadVerified { store, page },
            _ => Op::Invalidate { store, page },
        }
    }
}

/// The contents of page `p` (distinct per page, so a mixed-up image
/// shows).
fn image(p: u64) -> Vec<u8> {
    (0..PAGE_SIZE).map(|i| (i as u64 * 7 + p * 13) as u8).collect()
}

/// A clean store and a faulty one, both holding [`image`]s; the faulty
/// one injects `plan` into its reads (the contents are written before
/// it is wrapped, so its operation count starts at the first read).
fn stores(plan: &FaultPlan) -> (InMemoryPageStore, FaultInjectingPageStore<InMemoryPageStore>) {
    let fill = || {
        let store = InMemoryPageStore::new();
        store.allocate(PAGES).unwrap();
        for p in 0..PAGES {
            store.write_page(p, &image(p)).unwrap();
        }
        store
    };
    (fill(), FaultInjectingPageStore::new(fill(), plan.clone()))
}

/// Run `ops` on `ctx`; per call, the charged misses (or the error kind)
/// and the image returned.
fn run(ctx: &QueryContext, plan: &FaultPlan, ops: &[Op]) -> Vec<String> {
    let (clean, faulty) = stores(plan);
    let stores: [&dyn PageStore; 2] = [&clean, &faulty];
    ops.iter()
        .map(|&op| match op {
            Op::Access { store, first, pages } => {
                format!("access {}", ctx.access(stores[store].id(), first, pages))
            }
            Op::Load { store, page } => format!("load {:?}", ctx.load(stores[store], page)),
            Op::LoadVerified { store, page } => {
                let expected = checksum(&image(page));
                format!("verified {:?}", ctx.load_verified(stores[store], page, expected))
            }
            Op::Invalidate { store, page } => {
                format!("invalidate {}", ctx.invalidate(stores[store].id(), page))
            }
        })
        .collect()
}

proptest! {
    /// A bounded pool never holds more resident pages than its capacity,
    /// no matter the access pattern.
    #[test]
    fn capacity_is_never_exceeded(
        cap in 0.0f64..1.0,
        ops in proptest::collection::vec(0.0f64..1.0, 200),
    ) {
        let cap = 1 + (cap * 15.0) as usize;
        let pool = BufferPool::new(cap);
        let store = InMemoryPageStore::new();
        let ctx = QueryContext::with_pool(Arc::clone(&pool));
        for op in &ops {
            let page = (op * 64.0) as u64;
            ctx.access(store.id(), page, 1);
            prop_assert!(pool.resident() <= cap, "resident {} > cap {}", pool.resident(), cap);
        }
    }

    /// Every access is classified as exactly one hit or miss:
    /// hits + misses == total accesses (query stats and pool agree).
    #[test]
    fn hits_plus_misses_equals_accesses(
        ops in proptest::collection::vec(0.0f64..1.0, 150),
    ) {
        let pool = BufferPool::new(8);
        let store = InMemoryPageStore::new();
        let ctx = QueryContext::with_pool(Arc::clone(&pool));
        let mut accesses = 0u64;
        for op in &ops {
            let page = (op * 32.0) as u64;
            let span = 1 + (page % 3); // multi-page spans too
            ctx.access(store.id(), page, span);
            accesses += span;
        }
        let cache = ctx.stats(Duration::ZERO).cache;
        prop_assert_eq!(cache.hits + cache.misses, accesses);
        let pstats = pool.stats();
        prop_assert_eq!(pstats.counts.hits + pstats.counts.misses, accesses);
    }

    /// A query's own pool (one shard) charges exactly what an unbounded
    /// shared pool (eight shards) does: the same misses and images per
    /// call, through transient bit flips that send verified loads down
    /// their retry path, and the same final stats.
    #[test]
    fn ephemeral_pool_charges_like_an_unbounded_one(
        ops in proptest::collection::vec((0..u64::MAX).prop_map(Op::from_word), 1..120),
        flips in proptest::collection::vec(0..u64::MAX, 0..40),
    ) {
        // Each drawn word flips one bit of one of the faulty store's
        // first 160 reads.
        let plan = flips.iter().fold(FaultPlan::none(), |plan, &x| {
            plan.with_fault(x % 160, Fault::BitFlip { bit: (x / 160) as usize % (PAGE_SIZE * 8) })
        });
        let own = QueryContext::ephemeral();
        let shared = QueryContext::with_pool(BufferPool::unbounded());
        let (a, b) = (run(&own, &plan, &ops), run(&shared, &plan, &ops));
        for (i, (a, b)) in a.iter().zip(&b).enumerate() {
            prop_assert_eq!(a, b, "call {} ({:?})", i, ops[i]);
        }
        let (a, b) = (own.stats(Duration::ZERO), shared.stats(Duration::ZERO));
        prop_assert_eq!(format!("{a:?}"), format!("{b:?}"));
    }

    /// Counter balance: every resident page entered via a miss and left
    /// via an eviction, so misses - evictions == resident.
    #[test]
    fn eviction_accounting_balances(
        ops in proptest::collection::vec(0.0f64..1.0, 100),
    ) {
        let pool = BufferPool::new(6);
        let store = InMemoryPageStore::new();
        let ctx = QueryContext::with_pool(Arc::clone(&pool));
        for op in &ops {
            ctx.access(store.id(), (op * 40.0) as u64, 1);
        }
        let s = pool.stats();
        prop_assert_eq!(s.counts.misses - s.counts.evictions, pool.resident() as u64);
    }
}
