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
//! The writer also maintains the planner's [`DatasetStats`]
//! *incrementally*: `n` and the scan sizes by pure integer arithmetic
//! (an insert adds one live object and `8·dim` filter bytes; a delete
//! removes a live object but keeps its tombstoned bytes — exactly what
//! the flat file still has to scan before compaction), and the
//! tree-derived page counts by re-reading the structures after each
//! mutation (splits change them non-locally). All maintained counters
//! are integers, so a set with NaN coordinates can never poison them,
//! and the drift comparator below uses `total_cmp` — planning stays
//! total even on pathological inputs.

use std::io;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError, RwLock};

use crate::filter::FilterRefineIndex;
use crate::planner::{DatasetStats, Plan, Planner};
use vsim_index::{QueryContext, PAGE_SIZE};
use vsim_setdist::VectorSet;

/// Fraction of the dataset (inserts + deletes since the last plan,
/// relative to the size the plan was costed at) that must churn before
/// [`DynamicIndex::plan_knn`] re-costs the access paths. Below the
/// threshold the cached plan is reused — planning is cheap but the
/// statistics only drift meaningfully with bulk churn.
pub const REPLAN_DRIFT: f64 = 0.25;

/// One immutable published snapshot of the index. Queries against
/// [`index`](Self::index) are bit-identical to a from-scratch rebuild
/// of the same insert/delete history — the snapshot *is* that history's
/// deterministic result, deep-copied at publish time.
pub struct IndexEpoch {
    generation: u64,
    index: FilterRefineIndex,
    stats: DatasetStats,
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

    /// The writer's incrementally maintained statistics at publish time.
    pub fn stats(&self) -> DatasetStats {
        self.stats
    }
}

/// The writer's private mutable state, behind one mutex.
struct Working {
    index: FilterRefineIndex,
    /// Incrementally maintained copy of the planner statistics; kept
    /// exactly equal to `index.dataset_stats()` (tested by property).
    stats: DatasetStats,
    generation: u64,
    /// Cached `(kq, plan)` of the last costing, reused until drift.
    plan: Option<(usize, Plan)>,
    ops_since_plan: u64,
    n_at_plan: usize,
}

/// A dynamic index: one writer, many concurrent snapshot readers.
///
/// All mutating methods take `&self` and serialize on an internal
/// writer mutex, so a writer thread can share the index with reader
/// threads through a plain `Arc`. Readers only ever touch the published
/// epoch pointer (a brief read-lock to clone an `Arc`), never the
/// writer mutex.
pub struct DynamicIndex {
    dim: usize,
    working: Mutex<Working>,
    published: RwLock<Arc<IndexEpoch>>,
}

impl DynamicIndex {
    /// Build the initial working index from `sets` and publish it as
    /// generation 0.
    pub fn build(sets: &[VectorSet], dim: usize, k: usize) -> io::Result<Self> {
        let index = FilterRefineIndex::build(sets, dim, k);
        let stats = index.dataset_stats();
        let epoch = Arc::new(IndexEpoch { generation: 0, index: index.snapshot()?, stats });
        Ok(DynamicIndex {
            dim,
            working: Mutex::new(Working {
                index,
                stats,
                generation: 0,
                plan: None,
                ops_since_plan: 0,
                n_at_plan: stats.n,
            }),
            published: RwLock::new(epoch),
        })
    }

    fn working(&self) -> MutexGuard<'_, Working> {
        self.working.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Insert one vector set into the working index; readers keep
    /// seeing the last published epoch until [`publish`](Self::publish).
    /// Returns the stable id (counted in the context's `inserts`).
    pub fn insert(&self, set: &VectorSet, ctx: &QueryContext) -> io::Result<u64> {
        let mut guard = self.working();
        let w = &mut *guard;
        let id = w.index.insert(set)?;
        w.stats.n += 1;
        w.stats.scan_bytes += (8 * self.dim) as u64;
        w.stats.scan_pages = w.stats.scan_bytes.div_ceil(PAGE_SIZE as u64);
        w.index.refresh_tree_stats(&mut w.stats);
        w.ops_since_plan += 1;
        ctx.count_inserts(1);
        Ok(id)
    }

    /// Delete object `id` from the working index (tombstone + tree
    /// removal; counted in the context's `deletes`). The scan sizes in
    /// the statistics do *not* shrink — tombstoned bytes keep occupying
    /// pages, nothing compacts them yet — only the live count does.
    pub fn delete(&self, id: u64, ctx: &QueryContext) -> io::Result<bool> {
        let mut guard = self.working();
        let w = &mut *guard;
        if !w.index.delete(id)? {
            return Ok(false);
        }
        w.stats.n -= 1;
        w.index.refresh_tree_stats(&mut w.stats);
        w.ops_since_plan += 1;
        ctx.count_deletes(1);
        Ok(true)
    }

    /// Deep-copy the working state into the next epoch and swap it in
    /// as the published snapshot. In-flight readers keep their pinned
    /// epochs; new pins see this generation. Returns the generation.
    pub fn publish(&self) -> io::Result<u64> {
        let mut guard = self.working();
        let w = &mut *guard;
        w.generation += 1;
        let epoch = Arc::new(IndexEpoch {
            generation: w.generation,
            index: w.index.snapshot()?,
            stats: w.stats,
        });
        // Swap under the writer lock so generations publish in order.
        *self.published.write().unwrap_or_else(PoisonError::into_inner) = epoch;
        Ok(w.generation)
    }

    /// Pin the latest published epoch: one `Arc` clone under a brief
    /// read-lock, counted in the context's `epoch_pins`. The returned
    /// snapshot stays valid (and immutable) for as long as the `Arc`
    /// lives, however many generations the writer publishes meanwhile.
    pub fn pin(&self, ctx: &QueryContext) -> Arc<IndexEpoch> {
        ctx.count_epoch_pins(1);
        Arc::clone(&self.published.read().unwrap_or_else(PoisonError::into_inner))
    }

    /// Generation of the currently published epoch.
    pub fn published_generation(&self) -> u64 {
        self.published.read().unwrap_or_else(PoisonError::into_inner).generation
    }

    /// Live objects in the *working* state (unpublished ops included).
    pub fn live_len(&self) -> usize {
        self.working().stats.n
    }

    /// The writer's incrementally maintained statistics.
    pub fn stats(&self) -> DatasetStats {
        self.working().stats
    }

    /// Cost-based access-path choice with drift-triggered re-planning:
    /// the cached plan is reused until `kq` changes or the churn since
    /// the last costing exceeds [`REPLAN_DRIFT`] of the dataset size it
    /// was costed at. Returns the plan and whether it was re-costed.
    pub fn plan_knn(&self, kq: usize) -> (Plan, bool) {
        let mut guard = self.working();
        let w = &mut *guard;
        let drift = w.ops_since_plan as f64 / w.n_at_plan.max(1) as f64;
        if let Some((pk, p)) = w.plan {
            if pk == kq && drift.total_cmp(&REPLAN_DRIFT).is_le() {
                return (p, false);
            }
        }
        let p = Planner::default().plan_knn(&w.stats, kq);
        w.plan = Some((kq, p));
        w.ops_since_plan = 0;
        w.n_at_plan = w.stats.n;
        (p, true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::planner::AccessPath;
    use proptest::prelude::*;
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

    fn assert_stats_eq(inc: &DatasetStats, rec: &DatasetStats) {
        assert_eq!(inc.n, rec.n, "n");
        assert_eq!(inc.scan_pages, rec.scan_pages, "scan_pages");
        assert_eq!(inc.scan_bytes, rec.scan_bytes, "scan_bytes");
        assert_eq!(inc.xtree_pages, rec.xtree_pages, "xtree_pages");
        assert_eq!(inc.xtree_height, rec.xtree_height, "xtree_height");
        assert_eq!(inc.mtree_pages, rec.mtree_pages, "mtree_pages");
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
    fn churn_flips_the_planned_access_path() {
        // Tiny dataset: the scan is unbeatable.
        let idx = DynamicIndex::build(&random_sets(25, 4, 5), 6, 4).unwrap();
        let (plan, replanned) = idx.plan_knn(10);
        assert!(replanned, "first call must cost the paths");
        assert_eq!(plan.path, AccessPath::SeqScan);
        let (again, replanned) = idx.plan_knn(10);
        assert!(!replanned, "no churn: cached plan");
        assert_eq!(again.path, AccessPath::SeqScan);

        // Bulk-load enough objects that the X-tree cursor wins, then
        // re-plan: the drift threshold triggers a re-costing that flips
        // the access path.
        let ctx = QueryContext::ephemeral();
        for s in random_sets(2000, 4, 6) {
            idx.insert(&s, &ctx).unwrap();
        }
        let (flipped, replanned) = idx.plan_knn(10);
        assert!(replanned, "2000 inserts on a 25-object plan is past any drift threshold");
        assert_eq!(flipped.path, AccessPath::XTreeCursor);
    }

    #[test]
    fn nan_coordinates_cannot_poison_stats_or_planning() {
        let idx = DynamicIndex::build(&random_sets(40, 4, 7), 6, 4).unwrap();
        let ctx = QueryContext::ephemeral();
        let mut bad = VectorSet::new(6);
        bad.push(&[f64::NAN, 0.2, 0.3, 0.1, 0.5, f64::NAN]);
        idx.insert(&bad, &ctx).unwrap();
        // Every maintained counter is an integer and must match an
        // exact recompute; the drift comparator is total, so planning
        // still returns a path.
        let guard = idx.working();
        assert_stats_eq(&guard.stats, &guard.index.dataset_stats());
        drop(guard);
        let (plan, _) = idx.plan_knn(10);
        assert!(plan.chosen_ms().is_finite());
    }

    proptest! {
        /// Satellite invariant: the incrementally maintained statistics
        /// equal a from-scratch recompute on every integer counter after
        /// every operation of any insert/delete interleaving (including
        /// sets with NaN coordinates, which only ever enter — deleting
        /// needs a well-defined tree key).
        #[test]
        fn incremental_stats_match_recompute(seed in 0u64..1000, ops in proptest::collection::vec(0u64..10_000, 1..60)) {
            let initial = random_sets(30, 4, seed);
            let idx = DynamicIndex::build(&initial, 6, 4).unwrap();
            let ctx = QueryContext::ephemeral();
            let mut rng = StdRng::seed_from_u64(seed ^ 0xD15EA5E);
            let mut live: Vec<u64> = (0..30).collect();
            let mut next_id = 30u64;
            for op in ops {
                let (kind, pick) = (op % 10, (op / 10) as usize);
                match kind {
                    0..=4 => {
                        let s = random_set(&mut rng, 4);
                        prop_assert_eq!(idx.insert(&s, &ctx).unwrap(), next_id);
                        live.push(next_id);
                        next_id += 1;
                    }
                    5 => {
                        let mut s = VectorSet::new(6);
                        s.push(&[f64::NAN; 6]);
                        idx.insert(&s, &ctx).unwrap();
                        // NaN keys have no tree identity: never deleted.
                        next_id += 1;
                    }
                    _ => {
                        if !live.is_empty() {
                            let id = live.remove(pick % live.len());
                            prop_assert!(idx.delete(id, &ctx).unwrap());
                        }
                    }
                }
                let guard = idx.working();
                let recomputed = guard.index.dataset_stats();
                assert_stats_eq(&guard.stats, &recomputed);
            }
        }
    }
}
