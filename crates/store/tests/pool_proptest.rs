//! Property tests for the LRU buffer pool: random access workloads
//! must never violate the pool's structural invariants.

use proptest::prelude::*;
use std::sync::Arc;
use std::time::Duration;
use vsim_store::{BufferPool, InMemoryPageStore, PageStore, QueryContext};

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
