// Everything downstream of a page store can see an injected fault, so
// library code here propagates typed errors instead of panicking; the
// CI clippy step (`-D warnings`) turns these into errors.
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]
// This crate and `vsim-optics` are the two with `unsafe`; every block
// states why its requirements hold.
#![deny(clippy::undocumented_unsafe_blocks)]
//! Layered storage engine: the paper's simulated-I/O evaluation
//! (Section 5.4) plus a real file-backed page store.
//!
//! The paper runs everything in main memory and *charges* I/O costs —
//! 8 ms per page access, 200 ns per byte read. This crate centralizes
//! that accounting behind a page abstraction, and since the durability
//! refactor also implements it for real:
//!
//! * [`PageStore`] / [`InMemoryPageStore`] / [`FilePageStore`] — page
//!   identity, allocation, and page-granular contents for each
//!   persistent structure (index nodes, heap file). The file store is
//!   a single durable page file, written once and then opened
//!   read-only, with an optional mmap read path
//!   ([`FilePageStore::open_mmap`]).
//! * [`BufferPool`] — a lock-striped LRU page cache with a physical
//!   read-through path ([`QueryContext::load`], and
//!   [`QueryContext::load_verified`], whose frames remember the
//!   checksum they were verified against). Access methods read pages
//!   *through* the pool; only misses are charged to the cost model, so
//!   a pool shared across queries models a warm cache while a fresh
//!   per-query pool ([`QueryContext::ephemeral`], one unbounded shard:
//!   nothing contends for it) reproduces cold-cache accounting.
//! * [`checksum`] — the one 64-bit integrity checksum of the page-file
//!   format: stream payloads, image pages, the file header.
//! * [`PageStreamWriter`] / [`PageStreamReader`] — checksummed,
//!   length-prefixed record streams over any page store; the unit of
//!   crash-safe serialization (torn tails are detected, never decoded).
//! * [`StoreError`] / [`FaultInjectingPageStore`] — typed storage
//!   failures (I/O, corruption, exhaustion, crash) propagated as
//!   `Result`s instead of panics, and a deterministic fault-injection
//!   wrapper ([`FaultPlan`]) that exercises every failure path.
//! * [`QueryContext`] — the buffer pool a query reads through plus its
//!   thread-safe counters (pages, bytes, cache hits/misses/evictions,
//!   distance evaluations, filter candidates, refinements), threaded
//!   through query calls. It is the only door to both: the raw tracker
//!   and the tracker-taking pool methods are private to this crate.
//! * [`CostModel`] / [`QueryStats`] — turn counters into the paper's
//!   simulated seconds and Table 2 columns; per-[`Backend`] constants
//!   via [`CostModel::for_backend`] keep charges *charged* on the
//!   memory backend and *measured-class* on file/mmap.

mod checksum;
mod context;
mod cost;
mod error;
mod fault;
mod file;
mod page;
mod pool;
mod stats;
mod stream;
mod tracker;

pub use checksum::checksum;
pub use context::QueryContext;
pub use cost::{CostModel, IoSnapshot, PAGE_SIZE};
pub use error::{StoreError, StoreErrorKind, StoreResult};
pub use fault::{Fault, FaultInjectingPageStore, FaultPlan};
pub use file::FilePageStore;
pub use page::{Backend, InMemoryPageStore, PageKey, PageStore, StoreId};
pub use pool::{BufferPool, PoolStats, SHARD_THRESHOLD};
pub use stats::QueryStats;
pub use stream::{PageStreamReader, PageStreamWriter, StreamHandle, STREAM_PAYLOAD};
pub use tracker::CacheCounts;

/// Number of pages needed to hold `bytes` bytes.
#[inline]
pub fn pages_for(bytes: usize) -> u64 {
    bytes.div_ceil(PAGE_SIZE) as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pages_for_rounds_up() {
        assert_eq!(pages_for(0), 0);
        assert_eq!(pages_for(1), 1);
        assert_eq!(pages_for(PAGE_SIZE), 1);
        assert_eq!(pages_for(PAGE_SIZE + 1), 2);
    }
}
