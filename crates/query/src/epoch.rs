//! Epoch-based snapshot isolation for a dynamic filter/refine index.
//!
//! The build-once pipeline becomes a lifecycle: a single writer mutates
//! a private *working* [`FilterRefineIndex`] through its incremental
//! [`insert`](FilterRefineIndex::insert) / [`delete`](FilterRefineIndex::delete)
//! operations, and [`publish`](DynamicIndex::publish)es immutable,
//! generation-counted [`IndexEpoch`] snapshots. Readers
//! [`pin`](DynamicIndex::pin) the latest published epoch through their
//! [`QueryContext`] (one `epoch_pins` count per pin) and then query the
//! pinned snapshot without holding any lock — they never block on the
//! writer and never observe a partially applied update. An epoch stays
//! alive for as long as any reader holds its `Arc`, so a slow query
//! keeps its consistent view even after several newer generations have
//! been published.
//!
//! An epoch shares with the working index every X-tree node and every
//! file segment neither has written since, so a publish costs what the
//! round changed, not what the index holds. The memory a retired epoch
//! alone still holds — the nodes and segments the writer has replaced —
//! was allocated by the writer's thread, and the writer takes it back:
//! the writer keeps every epoch it replaces until no reader pins it, and
//! in a later [`publish`](DynamicIndex::publish) hands its X-tree nodes
//! to the working tree, whose next first-touch copies fill them
//! ([`vsim_index::XTree::recycle`]), and frees the rest. A reader's
//! un-pin is a decrement and never a free.
//!
//! Nothing here keeps statistics or plans: the planner reads the counts
//! the structures keep ([`FilterRefineIndex::dataset_stats`]), so a
//! reader plans with `epoch.index().plan_knn(kq)` — for the epoch it
//! pinned, not for the writer's working state.

use std::io;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use crate::filter::FilterRefineIndex;
use vsim_index::QueryContext;
use vsim_setdist::VectorSet;

/// One immutable published snapshot of the index. Queries against
/// [`index`](Self::index) are bit-identical to a from-scratch rebuild
/// of the same insert/delete history — the snapshot *is* that history's
/// deterministic result, shared with the working index at publish time
/// and untouched by every write after it.
pub struct IndexEpoch {
    generation: u64,
    index: FilterRefineIndex,
}

impl IndexEpoch {
    /// Monotone publish counter; generation 0 is the built state.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// The immutable index snapshot to query.
    pub fn index(&self) -> &FilterRefineIndex {
        &self.index
    }
}

/// The writer's private mutable state, behind one mutex: only a held
/// writer lock hands out a `&mut Working`.
struct Working {
    index: FilterRefineIndex,
    generation: u64,
    /// Replaced epochs a reader may still pin. Nothing hands out a new
    /// pin on a retired epoch, so once its count reads one — this list's
    /// — it stays one, and `publish` takes it back.
    retired: Vec<Arc<IndexEpoch>>,
}

/// The published epoch. Its lock is private to this module and no guard
/// leaves it: readers get an `Arc` or a generation, and the one write
/// path takes the writer's `&mut Working`, so "publish under the writer
/// lock" is checked by the compiler.
mod slot {
    use super::{IndexEpoch, Working};
    use std::sync::{Arc, PoisonError, RwLock};

    pub(super) struct Slot(RwLock<Arc<IndexEpoch>>);

    impl Slot {
        pub(super) fn new(epoch: Arc<IndexEpoch>) -> Slot {
            Slot(RwLock::new(epoch))
        }

        /// One `Arc` clone under a brief read lock.
        pub(super) fn pin(&self) -> Arc<IndexEpoch> {
            Arc::clone(&self.0.read().unwrap_or_else(PoisonError::into_inner))
        }

        pub(super) fn generation(&self) -> u64 {
            self.0.read().unwrap_or_else(PoisonError::into_inner).generation
        }

        /// Publish `next` and return the epoch it replaces. The write
        /// guard is gone when this returns.
        pub(super) fn swap(&self, _writer: &mut Working, next: Arc<IndexEpoch>) -> Arc<IndexEpoch> {
            std::mem::replace(&mut *self.0.write().unwrap_or_else(PoisonError::into_inner), next)
        }
    }
}

/// A dynamic index: one writer, many concurrent snapshot readers.
///
/// All mutating methods take `&self` and serialize on an internal
/// writer mutex, so a writer thread can share the index with reader
/// threads through a plain `Arc`. Readers only ever touch the published
/// epoch pointer (a brief read-lock to clone an `Arc`), never the
/// writer mutex.
pub struct DynamicIndex {
    working: Mutex<Working>,
    published: slot::Slot,
}

impl DynamicIndex {
    /// Build the initial working index from `sets` and publish it as
    /// generation 0. The build is [`FilterRefineIndex::build`]'s: a
    /// packed X-tree whose nodes are all full, so the first insert into
    /// a leaf splits it; every later change goes through
    /// [`insert`](Self::insert) and [`delete`](Self::delete).
    pub fn build(sets: &[VectorSet], dim: usize, k: usize) -> io::Result<Self> {
        let index = FilterRefineIndex::build(sets, dim, k);
        let epoch = Arc::new(IndexEpoch { generation: 0, index: index.snapshot()? });
        Ok(DynamicIndex {
            working: Mutex::new(Working { index, generation: 0, retired: Vec::new() }),
            published: slot::Slot::new(epoch),
        })
    }

    fn working(&self) -> MutexGuard<'_, Working> {
        self.working.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Insert one vector set into the working index; readers keep
    /// seeing the last published epoch until [`publish`](Self::publish).
    /// Returns the stable id (counted in the context's `inserts`).
    pub fn insert(&self, set: &VectorSet, ctx: &QueryContext) -> io::Result<u64> {
        let id = self.working().index.insert(set)?;
        ctx.count_inserts(1);
        Ok(id)
    }

    /// Delete object `id` from the working index (tombstone + tree
    /// removal; counted in the context's `deletes`). Tombstoned bytes
    /// keep occupying pages — nothing compacts them yet — so only the
    /// live count shrinks, not what a scan reads.
    pub fn delete(&self, id: u64, ctx: &QueryContext) -> io::Result<bool> {
        let deleted = self.working().index.delete(id)?;
        if deleted {
            ctx.count_deletes(1);
        }
        Ok(deleted)
    }

    /// Snapshot the working state as the next epoch — sharing, not
    /// copying: the working index pays for the nodes and segments it
    /// writes next — and swap it in as the published snapshot. In-flight
    /// readers keep their pinned epochs; new pins see this generation.
    /// Replaced epochs that no reader pins any more are taken back here,
    /// on the writer's thread: their X-tree nodes become the buffers of
    /// the working tree's next copies, the rest is freed. Returns the
    /// generation.
    pub fn publish(&self) -> io::Result<u64> {
        let mut w = self.working();
        w.generation += 1;
        let epoch = Arc::new(IndexEpoch { generation: w.generation, index: w.index.snapshot()? });
        let replaced = self.published.swap(&mut w, epoch);
        w.retired.push(replaced);
        for epoch in std::mem::take(&mut w.retired) {
            match Arc::try_unwrap(epoch) {
                Ok(epoch) => w.index.recycle(epoch.index),
                Err(pinned) => w.retired.push(pinned),
            }
        }
        Ok(w.generation)
    }

    /// Pin the latest published epoch: one `Arc` clone under a brief
    /// read-lock, counted in the context's `epoch_pins`. The returned
    /// snapshot stays valid (and immutable) for as long as the `Arc`
    /// lives, however many generations the writer publishes meanwhile.
    pub fn pin(&self, ctx: &QueryContext) -> Arc<IndexEpoch> {
        ctx.count_epoch_pins(1);
        self.published.pin()
    }

    /// Generation of the currently published epoch.
    pub fn published_generation(&self) -> u64 {
        self.published.generation()
    }

    /// Live objects in the *working* state (unpublished ops included).
    pub fn live_len(&self) -> usize {
        self.working().index.live_len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::planner::AccessPath;
    use rand::prelude::*;
    use std::time::Duration;

    fn random_set(rng: &mut StdRng, k: usize) -> VectorSet {
        let card = rng.gen_range(1..=k);
        let mut s = VectorSet::new(6);
        for _ in 0..card {
            let v: Vec<f64> = (0..6).map(|_| rng.gen_range(0.05..1.0)).collect();
            s.push(&v);
        }
        s
    }

    fn random_sets(n: usize, k: usize, seed: u64) -> Vec<VectorSet> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n).map(|_| random_set(&mut rng, k)).collect()
    }

    #[test]
    fn readers_see_published_epochs_only() {
        let sets = random_sets(60, 5, 1);
        let idx = DynamicIndex::build(&sets, 6, 5).unwrap();
        let ctx = QueryContext::ephemeral();
        assert_eq!(idx.pin(&ctx).generation(), 0);

        let extra = random_sets(5, 5, 2);
        for s in &extra {
            idx.insert(s, &ctx).unwrap();
        }
        // Unpublished: readers still pin generation 0 with 60 objects.
        let pinned = idx.pin(&ctx);
        assert_eq!(pinned.generation(), 0);
        assert_eq!(pinned.index().live_len(), 60);
        assert_eq!(idx.live_len(), 65, "the working state has the inserts");

        let g = idx.publish().unwrap();
        assert_eq!(g, 1);
        let fresh = idx.pin(&ctx);
        assert_eq!(fresh.generation(), 1);
        assert_eq!(fresh.index().live_len(), 65);
        // The older pinned epoch is untouched by the publish.
        assert_eq!(pinned.index().live_len(), 60);

        let stats = ctx.stats(Duration::ZERO);
        assert_eq!(stats.epoch_pins, 3);
        assert_eq!(stats.inserts, 5);
    }

    #[test]
    fn pinned_epoch_survives_later_churn_with_identical_results() {
        let sets = random_sets(120, 5, 3);
        let idx = DynamicIndex::build(&sets, 6, 5).unwrap();
        let wctx = QueryContext::ephemeral();
        let q = sets[7].clone();

        let pinned = idx.pin(&QueryContext::ephemeral());
        let before = pinned.index().knn_with(&q, 8, &QueryContext::ephemeral()).unwrap();

        // Churn heavily and publish twice; the pinned epoch must not move.
        for s in random_sets(40, 5, 4) {
            idx.insert(&s, &wctx).unwrap();
        }
        for id in 0..30 {
            idx.delete(id, &wctx).unwrap();
        }
        idx.publish().unwrap();
        for id in 30..50 {
            idx.delete(id, &wctx).unwrap();
        }
        idx.publish().unwrap();
        assert_eq!(idx.published_generation(), 2);

        let after = pinned.index().knn_with(&q, 8, &QueryContext::ephemeral()).unwrap();
        assert_eq!(before.len(), after.len());
        for (a, b) in before.iter().zip(&after) {
            assert_eq!(a.0, b.0);
            assert_eq!(a.1.to_bits(), b.1.to_bits());
        }
        let wstats = wctx.stats(Duration::ZERO);
        assert_eq!((wstats.inserts, wstats.deletes), (40, 50));
    }

    #[test]
    fn the_writer_frees_a_retired_epoch_once_no_reader_pins_it() {
        let sets = random_sets(80, 5, 21);
        let idx = DynamicIndex::build(&sets, 6, 5).unwrap();
        let ctx = QueryContext::ephemeral();
        let retired = || idx.working().retired.len();
        let round = |seed: u64| {
            let id = idx.insert(&random_sets(1, 5, seed)[0], &ctx).unwrap();
            idx.delete(id - 40, &ctx).unwrap();
            idx.publish().unwrap();
        };
        // No pin outstanding: every replaced epoch dies in the publish
        // that replaces it.
        for g in 0..5 {
            let replaced = Arc::downgrade(&idx.pin(&ctx));
            round(100 + g);
            assert_eq!(retired(), 0, "generation {g}");
            assert!(replaced.upgrade().is_none(), "generation {g} outlived its publish");
        }
        // A pin held across 20 generations keeps its own epoch alive
        // and no other.
        let q = sets[3].clone();
        let pinned = idx.pin(&ctx);
        let before = pinned.index().knn_with(&q, 8, &QueryContext::ephemeral()).unwrap();
        for g in 0..20 {
            let replaced = Arc::downgrade(&idx.pin(&ctx));
            round(200 + g);
            assert_eq!(retired(), 1, "generation {g}");
            assert_eq!(replaced.upgrade().is_none(), g > 0, "only the pinned epoch survives");
        }
        assert_eq!(Arc::strong_count(&pinned), 2, "the reader's pin and the writer's list");
        let after = pinned.index().knn_with(&q, 8, &QueryContext::ephemeral()).unwrap();
        assert_eq!(before.len(), 8);
        for (a, b) in before.iter().zip(&after) {
            assert_eq!((a.0, a.1.to_bits()), (b.0, b.1.to_bits()));
        }
        // Un-pinning frees nothing; the next publish does.
        let survivor = Arc::downgrade(&pinned);
        drop(pinned);
        assert!(survivor.upgrade().is_some());
        assert_eq!(retired(), 1);
        round(300);
        assert_eq!(retired(), 0);
        assert!(survivor.upgrade().is_none());
    }

    #[test]
    fn churn_flips_the_planned_access_path() {
        // Tiny dataset: the scan is unbeatable.
        let idx = DynamicIndex::build(&random_sets(25, 4, 5), 6, 4).unwrap();
        let ctx = QueryContext::ephemeral();
        let tiny = idx.pin(&ctx);
        assert_eq!(tiny.index().plan_knn(10).path, AccessPath::SeqScan);

        // Bulk-load enough objects that the X-tree cursor wins. A plan
        // is read off the index it is asked of, so the flip shows on the
        // epoch that holds the inserts and nowhere else.
        for s in random_sets(2000, 4, 6) {
            idx.insert(&s, &ctx).unwrap();
        }
        assert_eq!(idx.pin(&ctx).index().plan_knn(10).path, AccessPath::SeqScan, "unpublished");
        idx.publish().unwrap();
        assert_eq!(idx.pin(&ctx).index().plan_knn(10).path, AccessPath::XTreeCursor);
        assert_eq!(
            tiny.index().plan_knn(10).path,
            AccessPath::SeqScan,
            "a pinned epoch keeps its plan"
        );
    }
}
