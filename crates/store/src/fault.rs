//! Deterministic storage fault injection.
//!
//! [`FaultInjectingPageStore`] wraps any [`PageStore`] and perturbs its
//! operations according to a [`FaultPlan`]: a map from *operation
//! index* (the how-many-eth allocate/read/write/sync on this
//! wrapper) to a [`Fault`], plus an optional crash point after which
//! every operation fails with [`StoreError::Crashed`] — the moral
//! equivalent of pulling the power cord mid-save. Plans are plain data:
//! a given plan replays the exact same faults on the exact same
//! operation sequence, and [`FaultPlan::seeded`] derives a reproducible
//! plan from a seed through the vendored RNG. An empty plan makes the
//! wrapper a transparent pass-through (property-tested bit-identical to
//! the inner store), so harness code can keep one code path for both
//! faulty and clean runs.

use std::collections::BTreeMap;
use std::io;
use std::sync::atomic::{AtomicU64, Ordering};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::cost::PAGE_SIZE;
use crate::error::{StoreError, StoreResult};
use crate::page::{Backend, PageStore, StoreId};

/// One injected misbehavior. Faults are matched to operations by index
/// only; a fault that cannot apply to the operation it lands on (e.g. a
/// torn write landing on a read) is inert.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// A read returns only the first `len` bytes; the tail reads as
    /// zeros, exactly like a torn file tail.
    ShortRead { len: usize },
    /// A write persists only the first `keep` bytes of the page image.
    TornWrite { keep: usize },
    /// One bit of the page image is flipped — on a read, in the bytes
    /// returned (transient; a re-read sees clean data); on a write, in
    /// the bytes persisted (permanent media corruption).
    BitFlip { bit: usize },
    /// The allocation or write fails with `ENOSPC`.
    Enospc,
    /// The sync fails (e.g. a lost write-back cache flush).
    SyncFail,
}

/// Deterministic schedule of [`Fault`]s keyed by operation index.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    /// Operation index from which everything fails with
    /// [`StoreError::Crashed`] (the op at this index included).
    crash_at: Option<u64>,
    faults: BTreeMap<u64, Fault>,
}

impl FaultPlan {
    /// The empty plan: no faults, no crash.
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// Plan that crashes at operation `op`: that operation and every
    /// later one fail with [`StoreError::Crashed`].
    pub fn crash_at(op: u64) -> Self {
        FaultPlan { crash_at: Some(op), faults: BTreeMap::new() }
    }

    /// Add `fault` at operation `op` (builder style).
    pub fn with_fault(mut self, op: u64, fault: Fault) -> Self {
        self.faults.insert(op, fault);
        self
    }

    /// Reproducible random plan: every operation index below `horizon`
    /// independently carries a fault with probability `rate`, drawn
    /// from the seeded (vendored) RNG. Same seed, same plan.
    pub fn seeded(seed: u64, horizon: u64, rate: f64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut faults = BTreeMap::new();
        for op in 0..horizon {
            if !rng.gen_bool(rate) {
                continue;
            }
            let fault = match rng.gen_range(0..5u32) {
                0 => Fault::ShortRead { len: rng.gen_range(0..PAGE_SIZE) },
                1 => Fault::TornWrite { keep: rng.gen_range(0..PAGE_SIZE) },
                2 => Fault::BitFlip { bit: rng.gen_range(0..PAGE_SIZE * 8) },
                3 => Fault::Enospc,
                _ => Fault::SyncFail,
            };
            faults.insert(op, fault);
        }
        FaultPlan { crash_at: None, faults }
    }

    /// Whether this plan injects nothing at all.
    pub fn is_empty(&self) -> bool {
        self.crash_at.is_none() && self.faults.is_empty()
    }

    fn fault_at(&self, op: u64) -> Option<Fault> {
        self.faults.get(&op).copied()
    }
}

fn enospc() -> StoreError {
    StoreError::Io(io::Error::from_raw_os_error(28)) // ENOSPC
}

fn sync_failed() -> StoreError {
    StoreError::Io(io::Error::other("injected sync failure"))
}

/// A [`PageStore`] wrapper that injects the faults of a [`FaultPlan`].
/// Identity (`id`, `page_count`, `backend`) passes through untouched,
/// so the wrapper is invisible to the buffer pool and cost model.
#[derive(Debug)]
pub struct FaultInjectingPageStore<S> {
    inner: S,
    plan: FaultPlan,
    op: AtomicU64,
}

impl<S: PageStore> FaultInjectingPageStore<S> {
    pub fn new(inner: S, plan: FaultPlan) -> Self {
        FaultInjectingPageStore { inner, plan, op: AtomicU64::new(0) }
    }

    /// The wrapped store.
    pub fn inner(&self) -> &S {
        &self.inner
    }

    /// Unwrap, discarding the plan.
    pub fn into_inner(self) -> S {
        self.inner
    }

    /// Operations executed (or rejected by the crash point) so far —
    /// the index the *next* operation will get.
    pub fn ops(&self) -> u64 {
        // ORDERING: SeqCst — the op counter is the crash-point clock,
        // and tests read it to predict exactly which operation fails.
        self.op.load(Ordering::SeqCst)
    }

    /// Claim the next operation index, honoring the crash point.
    fn next_op(&self) -> StoreResult<u64> {
        // ORDERING: SeqCst gives concurrent operations one total order,
        // so a crash plan fires exactly once at the configured index.
        let op = self.op.fetch_add(1, Ordering::SeqCst);
        if self.plan.crash_at.is_some_and(|n| op >= n) {
            return Err(StoreError::Crashed);
        }
        Ok(op)
    }
}

impl<S: PageStore> PageStore for FaultInjectingPageStore<S> {
    fn id(&self) -> StoreId {
        self.inner.id()
    }

    fn page_count(&self) -> u64 {
        self.inner.page_count()
    }

    fn backend(&self) -> Backend {
        self.inner.backend()
    }

    fn allocate(&self, pages: u64) -> StoreResult<u64> {
        let op = self.next_op()?;
        if self.plan.fault_at(op) == Some(Fault::Enospc) {
            return Err(enospc());
        }
        self.inner.allocate(pages)
    }

    fn read_into(&self, page: u64, buf: &mut [u8]) -> StoreResult<()> {
        let op = self.next_op()?;
        self.inner.read_into(page, buf)?;
        match self.plan.fault_at(op) {
            Some(Fault::ShortRead { len }) => {
                let len = len.min(PAGE_SIZE);
                buf[len..PAGE_SIZE].fill(0);
            }
            Some(Fault::BitFlip { bit }) => {
                let bit = bit % (PAGE_SIZE * 8);
                buf[bit / 8] ^= 1 << (bit % 8);
            }
            _ => {}
        }
        Ok(())
    }

    fn write_page(&self, page: u64, data: &[u8]) -> StoreResult<()> {
        let op = self.next_op()?;
        match self.plan.fault_at(op) {
            Some(Fault::Enospc) => Err(enospc()),
            Some(Fault::TornWrite { keep }) => {
                // Persist a prefix, then pad with zeros so the stale
                // tail of a previous page image cannot survive.
                let mut torn = vec![0u8; data.len()];
                let keep = keep.min(data.len());
                torn[..keep].copy_from_slice(&data[..keep]);
                self.inner.write_page(page, &torn)
            }
            Some(Fault::BitFlip { bit }) if !data.is_empty() => {
                let mut flipped = data.to_vec();
                let bit = bit % (flipped.len() * 8);
                flipped[bit / 8] ^= 1 << (bit % 8);
                self.inner.write_page(page, &flipped)
            }
            _ => self.inner.write_page(page, data),
        }
    }

    fn sync(&self) -> StoreResult<()> {
        let op = self.next_op()?;
        if self.plan.fault_at(op) == Some(Fault::SyncFail) {
            return Err(sync_failed());
        }
        self.inner.sync()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::StoreErrorKind;
    use crate::page::InMemoryPageStore;

    fn faulty(plan: FaultPlan) -> FaultInjectingPageStore<InMemoryPageStore> {
        FaultInjectingPageStore::new(InMemoryPageStore::new(), plan)
    }

    #[test]
    fn empty_plan_passes_everything_through() {
        let store = faulty(FaultPlan::none());
        let first = store.allocate(2).unwrap();
        store.write_page(first, &[7u8; 100]).unwrap();
        let mut buf = vec![0u8; PAGE_SIZE];
        store.read_into(first, &mut buf).unwrap();
        assert_eq!(&buf[..100], &[7u8; 100][..]);
        store.sync().unwrap();
        assert_eq!(store.ops(), 4);
        assert_eq!(store.id(), store.inner().id());
        assert_eq!(store.page_count(), 2);

        // Behind a small evicting pool the wrapper is invisible too: the
        // same page sequence takes the same hits, misses and evictions
        // as on a bare store.
        let cache_counts = |store: &dyn PageStore| {
            store.allocate(16).unwrap();
            let ctx = crate::QueryContext::with_pool(crate::pool::BufferPool::new(4));
            for i in 0..200u64 {
                ctx.load(store, (i / 3 + i % 2) % 16).unwrap();
            }
            ctx.stats(std::time::Duration::ZERO).cache
        };
        let wrapped = cache_counts(&faulty(FaultPlan::none()));
        assert_eq!(wrapped, cache_counts(&InMemoryPageStore::new()));
        assert_eq!(wrapped.accesses(), 200);
        assert!(wrapped.hits > 0 && wrapped.evictions > 0, "{wrapped:?}");
    }

    #[test]
    fn crash_at_op_fails_that_op_and_all_later_ones() {
        let store = faulty(FaultPlan::crash_at(2));
        let first = store.allocate(1).unwrap(); // op 0
        store.write_page(first, &[1u8; 4]).unwrap(); // op 1
        let mut buf = vec![0u8; PAGE_SIZE];
        for _ in 0..3 {
            match store.read_into(first, &mut buf) {
                Err(StoreError::Crashed) => {}
                other => panic!("expected Crashed, got {other:?}"),
            }
        }
        assert!(matches!(store.sync(), Err(StoreError::Crashed)));
        assert!(matches!(store.allocate(1), Err(StoreError::Crashed)));
    }

    #[test]
    fn short_read_zeroes_the_tail() {
        let store = faulty(FaultPlan::none().with_fault(2, Fault::ShortRead { len: 10 }));
        let first = store.allocate(1).unwrap(); // op 0
        store.write_page(first, &[9u8; 100]).unwrap(); // op 1
        let mut buf = vec![0u8; PAGE_SIZE];
        store.read_into(first, &mut buf).unwrap(); // op 2: short
        assert_eq!(&buf[..10], &[9u8; 10][..]);
        assert!(buf[10..].iter().all(|&b| b == 0), "short read tail is zeros");
        store.read_into(first, &mut buf).unwrap(); // op 3: clean again
        assert_eq!(&buf[..100], &[9u8; 100][..]);
    }

    #[test]
    fn torn_write_persists_only_a_prefix() {
        let store = faulty(FaultPlan::none().with_fault(1, Fault::TornWrite { keep: 3 }));
        let first = store.allocate(1).unwrap(); // op 0
        store.write_page(first, &[5u8; 8]).unwrap(); // op 1: torn
        let mut buf = vec![0u8; PAGE_SIZE];
        store.read_into(first, &mut buf).unwrap();
        assert_eq!(&buf[..8], &[5, 5, 5, 0, 0, 0, 0, 0]);
    }

    #[test]
    fn read_bit_flips_are_transient_write_bit_flips_are_permanent() {
        let store = faulty(
            FaultPlan::none()
                .with_fault(2, Fault::BitFlip { bit: 0 })
                .with_fault(5, Fault::BitFlip { bit: 0 }),
        );
        let first = store.allocate(1).unwrap(); // op 0
        store.write_page(first, &[0u8; 8]).unwrap(); // op 1
        let mut buf = vec![0u8; PAGE_SIZE];
        store.read_into(first, &mut buf).unwrap(); // op 2: flipped
        assert_eq!(buf[0], 1);
        store.read_into(first, &mut buf).unwrap(); // op 3: clean re-read
        assert_eq!(buf[0], 0, "read-side flip does not stick");
        store.write_page(first, &[0u8; 8]).unwrap(); // op 4
        store.write_page(first, &[0u8; 8]).unwrap(); // op 5: flipped write
        store.read_into(first, &mut buf).unwrap(); // op 6
        assert_eq!(buf[0], 1, "write-side flip persists");
    }

    #[test]
    fn enospc_and_sync_failures_are_io_errors() {
        let store =
            faulty(FaultPlan::none().with_fault(0, Fault::Enospc).with_fault(1, Fault::SyncFail));
        let err = store.allocate(1).unwrap_err();
        assert_eq!(err.kind(), StoreErrorKind::Io);
        assert!(err.to_string().to_lowercase().contains("space"), "got: {err}");
        let err = store.sync().unwrap_err();
        assert_eq!(err.kind(), StoreErrorKind::Io);
        // The store survives both failures.
        store.allocate(1).unwrap();
        store.sync().unwrap();
    }

    #[test]
    fn seeded_plans_are_deterministic() {
        let a = FaultPlan::seeded(42, 1000, 0.1);
        let b = FaultPlan::seeded(42, 1000, 0.1);
        assert_eq!(a.faults, b.faults);
        assert!(!a.is_empty(), "a 10% rate over 1000 ops injects something");
        let c = FaultPlan::seeded(43, 1000, 0.1);
        assert_ne!(a.faults, c.faults, "different seed, different plan");
        assert!(FaultPlan::seeded(7, 1000, 0.0).is_empty(), "zero rate injects nothing");
    }
}
