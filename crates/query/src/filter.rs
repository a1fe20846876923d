//! The filter/refine access path of Section 4.3: 6-d extended centroids
//! indexed for incremental ranking, exact minimal matching distance on
//! demand via the optimal multi-step engine.
//!
//! The index is three structures over one dense id space — the X-tree
//! of centroids, the same centroids as a flat [`PointFile`], the heap
//! file of vector sets — and a query pulls its candidates from one of
//! two streams, the X-tree cursor or the sorted scan. The paper's
//! M-tree indexes the vector sets *themselves* under `dist_mm`; it is a
//! standalone alternative (`exp_ablation_index`), not a part of this
//! index.

use crate::multistep::{multi_step, Query, QueryKind};
use crate::planner::{AccessPath, DatasetStats, Plan, Planner};
use crate::stats::{settle, QueryStats};
use std::collections::hash_map::{Entry, HashMap};
use std::io::{self, Read, Write};
use std::path::Path;
use std::slice::from_ref;
use std::sync::Arc;
use std::time::Instant;
use vsim_index::persist::{expect_tag, get_f64, get_u64, invalid};
use vsim_index::{
    Backend, CandidateSource, FaultInjectingPageStore, FaultPlan, FilePageStore, PageStore,
    PageStreamReader, PageStreamWriter, PointFile, QueryContext, Scaled, StoreResult,
    VectorSetStore, XTree,
};
use vsim_setdist::matching::{MinimalMatching, PointDistance, WeightFunction};
use vsim_setdist::{extended_centroid, MatchingEngine, PrefilteredDistance, VectorSet};

/// Directory-stream tag of a persisted filter/refine index ("FRIX" v2:
/// three stream roots; v1 carried a fourth, a centroid M-tree).
const INDEX_TAG: u64 = 0x4652_4958_0000_0002;

/// Filter/refine index over vector sets.
///
/// * Filter: the extended centroid `C_{k,ω}` of every set, kept in
///   *two* interchangeable access paths — an X-tree and a flat
///   [`PointFile`] for sorted scans. By Lemma 2,
///   `k · ‖C(X) − C(q)‖₂ ≤ dist_mm(X, q)`, so centroid distance `· k`
///   lower-bounds the exact distance and both paths serve the same
///   nondecreasing candidate stream
///   (see [`FilterRefineIndex::with_candidate_source`]).
/// * Refinement: load the candidate's vector set from the heap file and
///   evaluate the exact minimal matching distance (weight `w_ω`).
///
/// There is one query entry point: a [`Query`] value — the variants of
/// the query object, k-NN or ε-range, and the access path or `None`
/// for the planner's choice — answered by [`execute`](Self::execute)
/// through a caller-supplied [`QueryContext`] (shared buffer pools,
/// batch execution) or by [`run`](Self::run) against a fresh ephemeral
/// context (the paper's cold-cache setting) together with its
/// [`QueryStats`]. `knn`, `range_query`, `knn_with`, `knn_via_with` and
/// `knn_planned` are one-line spellings of common queries.
pub struct FilterRefineIndex {
    k: usize,
    omega: Vec<f64>,
    tree: XTree,
    /// The same centroids as a flat file (sorted sequential scan).
    cfile: PointFile,
    store: VectorSetStore,
    mm: MinimalMatching,
}

impl FilterRefineIndex {
    /// Build from the database of vector sets; set `i` gets id `i`.
    /// `k` must bound every set's cardinality. `ω = 0` (the paper's
    /// choice — no cover has zero volume, so the metric conditions of
    /// Lemma 1 hold). The X-tree of centroids is packed in one pass
    /// ([`XTree::bulk_load`]: full nodes, no supernode), never built by
    /// inserts: the database is built once and then queried, as in the
    /// paper's Table 2. [`insert`](Self::insert) and
    /// [`delete`](Self::delete) change it afterwards.
    pub fn build(sets: &[VectorSet], dim: usize, k: usize) -> Self {
        let omega = vec![0.0; dim];
        let centroids: Vec<Vec<f64>> = sets
            .iter()
            .enumerate()
            .map(|(i, s)| {
                assert_eq!(s.dim(), dim, "set {i} has wrong dimension");
                extended_centroid(s, k, &omega)
            })
            .collect();
        let tree = XTree::bulk_load(dim, &centroids);
        let cfile = PointFile::build(dim, &centroids);
        let store = VectorSetStore::build(sets);
        FilterRefineIndex {
            k,
            omega,
            tree,
            cfile,
            store,
            mm: MinimalMatching {
                point_distance: PointDistance::Euclidean,
                weight: WeightFunction::Norm,
                sqrt_of_total: false,
            },
        }
    }

    /// Swap the refinement matching model (e.g. the paper's permutation
    /// variant). The filter structures are model-independent — the
    /// centroid ranking only orders candidates — so no rebuild is needed.
    pub fn with_model(mut self, mm: MinimalMatching) -> Self {
        self.mm = mm;
        self
    }

    /// Insert one vector set into all three structures — heap file,
    /// centroid point file and X-tree — and return its stable id. Ids
    /// are append-order dense and never reused, so results stay
    /// comparable across epochs. In-memory indexes only (an index
    /// opened from a page file is a read-only snapshot).
    pub fn insert(&mut self, set: &VectorSet) -> io::Result<u64> {
        assert_eq!(set.dim(), self.tree.dim(), "inserted set has wrong dimension");
        assert!(set.len() <= self.k, "inserted set exceeds the index cardinality bound k");
        let c = extended_centroid(set, self.k, &self.omega);
        let id = self.store.append(set)?;
        let fid = self.cfile.append(&c)?;
        debug_assert_eq!(id, fid, "heap file and point file ids diverged");
        self.tree.insert(&c, id);
        Ok(id)
    }

    /// Delete object `id`: remove its centroid from the X-tree and
    /// tombstone its records in the point and heap files. The bytes are
    /// not reclaimed, and an index with a tombstone can no longer be
    /// [`save`](Self::save)d: nothing compacts it yet (ROADMAP item 9).
    /// Returns `Ok(false)` if the id is unknown or already deleted, and
    /// `InvalidData` — with nothing tombstoned — if the X-tree does not
    /// hold the live object's centroid.
    pub fn delete(&mut self, id: u64) -> io::Result<bool> {
        if !self.store.is_live(id) {
            return Ok(false);
        }
        // The point file holds the exact centroid bits that were
        // inserted, so the tree deletion matches on an identical key.
        let c = self
            .cfile
            .point(id)
            .ok_or_else(|| invalid("dynamic deletes require the in-memory backing"))?;
        if !self.tree.delete(c, id) {
            return Err(invalid(format!("the X-tree does not hold live object {id}")));
        }
        self.cfile.tombstone(id);
        self.store.tombstone(id);
        Ok(true)
    }

    /// The whole index as it is now, with fresh page-store identities:
    /// queries return bit-identical results with identical charging,
    /// but every buffer pool treats the snapshot's pages as distinct
    /// files. The three structures share their nodes and segments with
    /// the snapshot until one side writes them, so this costs pointer
    /// clones, not the index. This is how the epoch layer publishes
    /// immutable snapshots while the writer keeps mutating the
    /// original. In-memory indexes only.
    pub fn snapshot(&self) -> io::Result<Self> {
        Ok(FilterRefineIndex {
            k: self.k,
            omega: self.omega.clone(),
            tree: self.tree.snapshot()?,
            cfile: self.cfile.snapshot()?,
            store: self.store.snapshot()?,
            mm: self.mm.clone(),
        })
    }

    /// Total records in the heap file, tombstoned ones included.
    pub fn len(&self) -> usize {
        self.store.len()
    }

    /// Live (non-deleted) objects.
    pub fn live_len(&self) -> usize {
        self.store.live_len()
    }

    /// Whether `id` names a live object.
    pub fn is_live(&self, id: u64) -> bool {
        self.store.is_live(id)
    }

    pub fn is_empty(&self) -> bool {
        self.store.is_empty()
    }

    /// The medium this index reads from: [`Backend::Memory`] for a
    /// freshly built index, `File`/`Mmap` after [`open`](Self::open) /
    /// [`open_mmap`](Self::open_mmap).
    pub fn backend(&self) -> Backend {
        self.store.page_store().backend()
    }

    /// Persist the whole index — X-tree, centroid point file and the
    /// vector-set heap file — into one durable page file at `path`:
    /// written to a `.tmp` sibling, fsynced, then atomically renamed
    /// over the target. A crash at any point leaves either the
    /// previous file untouched or the complete new index, never a torn
    /// mix. The heap file is written in X-tree leaf order, so centroid
    /// neighbours share pages in every saved index.
    pub fn save(&self, path: &Path) -> io::Result<()> {
        self.save_with(path, FaultPlan::none())?;
        Ok(())
    }

    /// Page budget for a fresh index file: a size limit on the handle
    /// that writes it, not stored in the file. The factor is headroom
    /// for stream framing (streams re-serialize the structures'
    /// contents with a per-page header).
    fn capacity_budget(&self) -> u64 {
        let data_pages =
            (self.tree.total_pages() + self.cfile.total_pages() + self.store.total_pages()) as u64;
        data_pages * 8 + 64
    }

    /// Serialize all three structures plus the directory stream into
    /// `target`; returns the directory's first page (the new root). The
    /// heap file goes out in X-tree leaf order: a query refines its
    /// candidates in ascending centroid distance, so the records it
    /// fetches one after another share pages.
    fn write_streams(&self, target: &dyn PageStore) -> io::Result<u64> {
        let t = self.tree.save_to(target)?;
        let f = self.cfile.save_to(target)?;
        let s = self.store.write_ordered(target, &self.tree.leaf_order())?;
        let mut meta = Vec::new();
        for v in [INDEX_TAG, self.k as u64, self.omega.len() as u64] {
            meta.extend_from_slice(&v.to_le_bytes());
        }
        for &w in &self.omega {
            meta.extend_from_slice(&w.to_le_bytes());
        }
        for v in [t.first, f.first, s.first] {
            meta.extend_from_slice(&v.to_le_bytes());
        }
        let mut w = PageStreamWriter::new(target);
        w.write_all(&meta)?;
        Ok(w.finish()?.first)
    }

    /// [`save`](Self::save) with every page-store operation routed
    /// through a [`FaultPlan`] (pass [`FaultPlan::none`] for a plain
    /// save): write-to-temp + fsync + rename + fsync-parent-directory.
    /// The target path is only ever touched by the atomic rename, so a
    /// crash anywhere in the save leaves the previous file bit-identical;
    /// the `.tmp` sibling is removed on every failure (and harmlessly
    /// overwritten by the next attempt if removal itself dies). Returns
    /// the number of page-store operations the save executed — the
    /// crash-recovery harness records this count once, then replays the
    /// save with `crash_at(n)` for every `n` below it.
    pub fn save_with(&self, path: &Path, plan: FaultPlan) -> StoreResult<u64> {
        let mut tmp_name = path.file_name().map(|n| n.to_os_string()).unwrap_or_default();
        tmp_name.push(".tmp");
        let tmp = path.with_file_name(tmp_name);
        let store = FaultInjectingPageStore::new(
            FilePageStore::create(&tmp, self.capacity_budget())?,
            plan,
        );
        let written = (|| {
            let dir = self.write_streams(&store)?;
            store.inner().set_root(dir);
            store.sync()?;
            Ok(store.ops())
        })();
        // On success the file is already synced; on failure the
        // simulated process died. Either way: close without a re-commit.
        store.into_inner().abandon();
        let outcome = written.and_then(|ops| {
            std::fs::rename(&tmp, path)?;
            if let Some(parent) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
                std::fs::File::open(parent)?.sync_all()?;
            }
            Ok(ops)
        });
        if outcome.is_err() {
            let _ = std::fs::remove_file(&tmp);
        }
        outcome
    }

    /// Reopen an index persisted by [`save`](Self::save), reading pages
    /// through `pread`. Queries return bit-identical hits to the index
    /// that was saved, with identical `refinements`, `filter_steps`,
    /// `pruned` and `f32_prefilter`; the page/byte accounting is that of
    /// the saved layout — identical between `open` and
    /// [`open_mmap`](Self::open_mmap), lower on heap pages than the
    /// in-memory index, whose records stay in id order.
    pub fn open(path: &Path) -> io::Result<Self> {
        Self::open_store(FilePageStore::open(path)?)
    }

    /// Like [`open`](Self::open) but with a read-only memory mapping as
    /// the read path (`pread` fallback past the mapped length).
    pub fn open_mmap(path: &Path) -> io::Result<Self> {
        Self::open_store(FilePageStore::open_mmap(path)?)
    }

    fn open_store(file: FilePageStore) -> io::Result<Self> {
        let dir = file.root().ok_or_else(|| invalid("index file has no root directory"))?;
        let store: Arc<dyn PageStore> = Arc::new(file);
        let mut r = PageStreamReader::open(store.as_ref(), dir)?;
        let mut meta = Vec::new();
        r.read_to_end(&mut meta)?;
        let rd = &mut &meta[..];
        expect_tag(rd, INDEX_TAG, "filter/refine index directory")?;
        let k = get_u64(rd)? as usize;
        let dim = get_u64(rd)? as usize;
        if k == 0 || dim == 0 || dim > 4096 {
            return Err(invalid("index directory header is inconsistent"));
        }
        let omega: Vec<f64> = (0..dim).map(|_| get_f64(rd)).collect::<io::Result<_>>()?;
        let (t, f, s) = (get_u64(rd)?, get_u64(rd)?, get_u64(rd)?);
        let tree = XTree::load_from(Arc::clone(&store), t)?;
        let cfile = PointFile::open_from(Arc::clone(&store), f)?;
        let vstore = VectorSetStore::open_from(store, s)?;
        if tree.dim() != dim || cfile.dim() != dim {
            return Err(invalid("filter dimension disagrees with the index directory"));
        }
        // The three streams share one dense id space: a query takes an
        // id from the X-tree or the point file and fetches that record.
        let n = vstore.len();
        let mut seen = vec![false; n];
        let claim =
            |&id: &u64| seen.get_mut(id as usize).is_some_and(|s| !std::mem::replace(s, true));
        if tree.len() != n || cfile.len() != n || !tree.leaf_order().iter().all(claim) {
            return Err(invalid("index streams disagree on the objects they hold"));
        }
        Ok(FilterRefineIndex {
            k,
            omega,
            tree,
            cfile,
            store: vstore,
            mm: MinimalMatching {
                point_distance: PointDistance::Euclidean,
                weight: WeightFunction::Norm,
                sqrt_of_total: false,
            },
        })
    }

    /// The exact distance used for refinement.
    pub fn exact_distance(&self, a: &VectorSet, b: &VectorSet) -> f64 {
        self.mm.distance_value(a, b)
    }

    /// A fresh matching engine for this index's refinement distance.
    /// One engine per query amortizes all matching-kernel allocations
    /// over the query's refinements.
    fn engine(&self) -> MatchingEngine {
        MatchingEngine::new(self.mm.clone())
    }

    /// Statistics the [`Planner`] costs access paths against, read off
    /// the structures themselves (counts they keep, plus the X-tree's
    /// node walk — no estimation, no second copy). `n` counts live
    /// objects; the scan sizes include tombstoned bytes — exactly what
    /// a sequential scan still has to read before compaction.
    pub fn dataset_stats(&self) -> DatasetStats {
        DatasetStats {
            n: self.store.live_len(),
            dim: self.tree.dim(),
            scan_pages: self.cfile.total_pages() as u64,
            scan_bytes: self.cfile.total_bytes() as u64,
            xtree_pages: self.tree.total_pages() as u64,
            xtree_height: self.tree.height() as u64,
            backend: self.backend(),
        }
    }

    /// Cost-based access-path choice for a `kq`-NN query under the
    /// paper's cost model.
    pub fn plan_knn(&self, kq: usize) -> Plan {
        Planner.plan_knn(&self.dataset_stats(), kq)
    }

    /// Cost-based access-path choice for an ε-range query.
    pub fn plan_range(&self) -> Plan {
        Planner.plan_range(&self.dataset_stats())
    }

    /// Open the chosen access path as a candidate stream for the query
    /// centroid `cq` and run `f` on it. The stream yields
    /// `(id, k · ‖C(X) − C(q)‖)` — the Lemma 2 lower bound of the exact
    /// distance — in nondecreasing order, with all page reads charged to
    /// `ctx`. Both paths produce bit-identical bounds (same Euclidean
    /// operation order, same `k ·` scaling), so the choice affects
    /// cost, never results.
    ///
    /// `f` is fallible so refinement reads inside the closure can
    /// propagate storage errors; opening the sorted scan itself can also
    /// fail (it materializes the centroid file through `ctx`).
    pub fn with_candidate_source<R>(
        &self,
        path: AccessPath,
        cq: &[f64],
        ctx: &QueryContext,
        f: impl FnOnce(&mut dyn CandidateSource) -> StoreResult<R>,
    ) -> StoreResult<R> {
        let factor = self.k as f64;
        match path {
            AccessPath::XTreeCursor => f(&mut Scaled::new(self.tree.nn_iter(cq, ctx), factor)),
            AccessPath::SeqScan => f(&mut Scaled::new(self.cfile.scan_ranked(cq, ctx)?, factor)),
        }
    }

    /// The stored vector set of object `id`, read through `ctx`: the
    /// record fetch of the refinement step, for loops composed outside
    /// this crate from [`with_candidate_source`](Self::with_candidate_source)
    /// and [`multi_step_knn`](crate::multi_step_knn) (baselines, traced runs).
    pub fn record(&self, id: u64, ctx: &QueryContext) -> StoreResult<VectorSet> {
        self.store.get(id, ctx)
    }

    /// Answer `query`, reading through `ctx` — the one filter/refine
    /// loop (Section 4.3). Per variant of the query object: open the
    /// access path as a candidate stream ascending in the Lemma 2 bound,
    /// and run the multi-step loop into the result set all variants share.
    /// Each candidate is refined by the bounded mixed-precision kernel
    /// against the variant prepared once (weight tables, padded f64/f32
    /// lane rows); the abort bound is ε, or the running k-th distance
    /// and the candidate's own entry from an earlier variant, so later
    /// variants stop earlier. A pruned refinement is provably beyond the
    /// bound — the `f32` stage's δ margin admits no false prune — so
    /// hits are bit-identical to refining every candidate in full.
    ///
    /// One logical query is one buffer scope: the variants share `ctx`'s
    /// pool, and a record is fetched by the first variant that refines
    /// it and reused by the others (I/O is charged on first use only,
    /// CPU for every matching evaluation).
    pub fn execute(&self, query: &Query, ctx: &QueryContext) -> StoreResult<Vec<(u64, f64)>> {
        let Some(mut result) = query.collector() else {
            return Ok(Vec::new());
        };
        let path = query.path.unwrap_or_else(|| match query.kind {
            QueryKind::Knn(kq) => self.plan_knn(kq).path,
            QueryKind::Range(_) => self.plan_range().path,
        });
        let mut engine = self.engine();
        let mut records: HashMap<u64, VectorSet> = HashMap::new();
        let mut fetched = VectorSet::new(self.tree.dim());
        for q in query.variants {
            let pq = engine.prepare(q.clone());
            let cq = extended_centroid(q, self.k, &self.omega);
            self.with_candidate_source(path, &cq, ctx, |src| {
                multi_step(src, &mut result, ctx, |id, upper| {
                    let set = if query.variants.len() == 1 {
                        // One stream yields every id once: nothing to
                        // keep, so every record lands in the same set.
                        self.store.get_into(id, ctx, &mut fetched)?;
                        &fetched
                    } else {
                        match records.entry(id) {
                            Entry::Occupied(e) => &*e.into_mut(),
                            Entry::Vacant(v) => &*v.insert(self.store.get(id, ctx)?),
                        }
                    };
                    match engine.distance(&pq, set, upper) {
                        PrefilteredDistance::Exact(d) => Ok(Some(d)),
                        PrefilteredDistance::PrunedByF32 => {
                            ctx.count_f32_prefilter(1);
                            Ok(None)
                        }
                        PrefilteredDistance::Pruned => Ok(None),
                    }
                })
            })?;
        }
        Ok(result.into_vec())
    }

    /// [`execute`](Self::execute) against a fresh ephemeral context (the
    /// paper's cold-cache setting), with the query's [`QueryStats`]. A
    /// storage error yields no hits and is named in `stats.error`.
    pub fn run(&self, query: &Query) -> (Vec<(u64, f64)>, QueryStats) {
        let ctx = QueryContext::ephemeral();
        let t0 = Instant::now();
        settle(self.execute(query, &ctx), &ctx, t0)
    }

    /// `kq`-NN of `q` on the X-tree cursor (the paper's configuration),
    /// cold cache: [`run`](Self::run) of `Query::knn(&[q], kq)`.
    pub fn knn(&self, q: &VectorSet, kq: usize) -> (Vec<(u64, f64)>, QueryStats) {
        self.run(&Query::knn(from_ref(q), kq).via(AccessPath::XTreeCursor))
    }

    /// All `(id, dist_mm)` within `eps` of `q` on the X-tree cursor, cold
    /// cache: [`run`](Self::run) of `Query::range(&[q], eps)`.
    pub fn range_query(&self, q: &VectorSet, eps: f64) -> (Vec<(u64, f64)>, QueryStats) {
        self.run(&Query::range(from_ref(q), eps).via(AccessPath::XTreeCursor))
    }

    /// [`knn`](Self::knn) against a caller-supplied context.
    pub fn knn_with(
        &self,
        q: &VectorSet,
        kq: usize,
        ctx: &QueryContext,
    ) -> StoreResult<Vec<(u64, f64)>> {
        self.knn_via_with(AccessPath::XTreeCursor, q, kq, ctx)
    }

    /// `kq`-NN of `q` over an explicitly chosen access path.
    pub fn knn_via_with(
        &self,
        path: AccessPath,
        q: &VectorSet,
        kq: usize,
        ctx: &QueryContext,
    ) -> StoreResult<Vec<(u64, f64)>> {
        self.execute(&Query::knn(from_ref(q), kq).via(path), ctx)
    }

    /// `kq`-NN of `q` on the access path the cost-based planner picks
    /// for this dataset, cold cache; the chosen path is returned too.
    pub fn knn_planned(
        &self,
        q: &VectorSet,
        kq: usize,
    ) -> (Vec<(u64, f64)>, QueryStats, AccessPath) {
        let path = self.plan_knn(kq).path;
        let (hits, stats) = self.run(&Query::knn(from_ref(q), kq).via(path));
        (hits, stats, path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::prelude::*;

    fn random_sets(n: usize, k: usize, seed: u64) -> Vec<VectorSet> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                let card = rng.gen_range(1..=k);
                let mut s = VectorSet::new(6);
                for _ in 0..card {
                    let v: Vec<f64> = (0..6).map(|_| rng.gen_range(0.05..1.0)).collect();
                    s.push(&v);
                }
                s
            })
            .collect()
    }

    fn exact_knn(sets: &[VectorSet], q: &VectorSet, kq: usize) -> Vec<(u64, f64)> {
        let mm = MinimalMatching::vector_set_model();
        let mut all: Vec<(u64, f64)> =
            sets.iter().enumerate().map(|(i, s)| (i as u64, mm.distance_value(q, s))).collect();
        all.sort_by(|a, b| a.1.total_cmp(&b.1));
        all.truncate(kq);
        all
    }

    #[test]
    fn range_query_is_exact() {
        let sets = random_sets(300, 5, 1);
        let idx = FilterRefineIndex::build(&sets, 6, 5);
        let mm = MinimalMatching::vector_set_model();
        for qi in [0usize, 7, 100] {
            let q = &sets[qi];
            for eps in [0.2, 0.5, 1.5] {
                let (got, stats) = idx.range_query(q, eps);
                let mut want: Vec<u64> = sets
                    .iter()
                    .enumerate()
                    .filter(|(_, s)| mm.distance_value(q, s) <= eps)
                    .map(|(i, _)| i as u64)
                    .collect();
                let mut got_ids: Vec<u64> = got.iter().map(|(id, _)| *id).collect();
                got_ids.sort_unstable();
                want.sort_unstable();
                assert_eq!(got_ids, want, "eps {eps}");
                // Filter effectiveness: the filter may not miss results.
                assert!(stats.refinements as usize >= got.len());
            }
        }
    }

    #[test]
    fn knn_matches_exact_scan() {
        let sets = random_sets(400, 7, 2);
        let idx = FilterRefineIndex::build(&sets, 6, 7);
        for qi in [3usize, 42, 250] {
            let (got, _) = idx.knn(&sets[qi], 10);
            let want = exact_knn(&sets, &sets[qi], 10);
            assert_eq!(got.len(), 10);
            for (g, w) in got.iter().zip(&want) {
                assert!((g.1 - w.1).abs() < 1e-9, "query {qi}: got {:?} want {:?}", g, w);
            }
            // Self-query: distance 0 to itself.
            assert_eq!(got[0].0, qi as u64);
            assert!(got[0].1.abs() < 1e-12);
        }
    }

    #[test]
    fn filter_prunes_most_refinements() {
        let sets = random_sets(1000, 5, 3);
        let idx = FilterRefineIndex::build(&sets, 6, 5);
        let (_, stats) = idx.knn(&sets[0], 10);
        assert!(
            (stats.refinements as usize) < sets.len() / 2,
            "refined {} of {} objects",
            stats.refinements,
            sets.len()
        );
    }

    #[test]
    fn io_accounting_is_nonzero_and_refinement_dependent() {
        let sets = random_sets(500, 5, 4);
        let idx = FilterRefineIndex::build(&sets, 6, 5);
        let (_, s1) = idx.knn(&sets[0], 1);
        let (_, s2) = idx.knn(&sets[0], 50);
        assert!(s1.io.pages > 0);
        assert!(s2.io.pages >= s1.io.pages);
        assert!(s2.refinements >= s1.refinements);
    }

    #[test]
    fn range_query_counts_pruned_refinements() {
        let sets = random_sets(400, 5, 8);
        let idx = FilterRefineIndex::build(&sets, 6, 5);
        let mut pruned = 0;
        for qi in [0usize, 50, 200] {
            for eps in [0.4, 0.8] {
                let (_, stats) = idx.range_query(&sets[qi], eps);
                assert!(stats.pruned <= stats.refinements);
                pruned += stats.pruned;
            }
        }
        assert!(pruned > 0, "ε bound never aborted a refinement");
    }

    #[test]
    fn all_access_paths_return_bit_identical_knn_results() {
        let sets = random_sets(350, 5, 9);
        let idx = FilterRefineIndex::build(&sets, 6, 5);
        for qi in [0usize, 60, 170, 340] {
            let q = &sets[qi];
            let runs: Vec<Vec<(u64, f64)>> = [AccessPath::XTreeCursor, AccessPath::SeqScan]
                .into_iter()
                .map(|path| {
                    let ctx = QueryContext::ephemeral();
                    idx.knn_via_with(path, q, 10, &ctx).unwrap()
                })
                .collect();
            for other in &runs[1..] {
                assert_eq!(runs[0].len(), other.len(), "query {qi}");
                for (a, b) in runs[0].iter().zip(other) {
                    assert_eq!(a.0, b.0, "query {qi}");
                    assert_eq!(a.1.to_bits(), b.1.to_bits(), "query {qi}");
                }
            }
        }
    }

    #[test]
    fn all_access_paths_return_identical_range_results() {
        let sets = random_sets(300, 5, 15);
        let idx = FilterRefineIndex::build(&sets, 6, 5);
        for qi in [4usize, 120, 260] {
            let q = &sets[qi];
            let runs: Vec<Vec<(u64, f64)>> = [AccessPath::XTreeCursor, AccessPath::SeqScan]
                .into_iter()
                .map(|path| idx.run(&Query::range(from_ref(q), 0.6).via(path)).0)
                .collect();
            for other in &runs[1..] {
                assert_eq!(runs[0], other.clone(), "query {qi}");
            }
        }
    }

    #[test]
    fn planner_picks_scan_for_tiny_and_xtree_for_large_datasets() {
        let tiny = random_sets(25, 4, 17);
        let tiny_idx = FilterRefineIndex::build(&tiny, 6, 4);
        assert_eq!(tiny_idx.plan_knn(10).path, AccessPath::SeqScan);

        let large = random_sets(2000, 4, 18);
        let large_idx = FilterRefineIndex::build(&large, 6, 4);
        assert_eq!(large_idx.plan_knn(10).path, AccessPath::XTreeCursor);

        // Planner choice is invisible in results.
        let (planned, stats, path) = large_idx.knn_planned(&large[7], 10);
        let (default, _) = large_idx.knn(&large[7], 10);
        assert_eq!(path, AccessPath::XTreeCursor);
        assert_eq!(planned, default);
        assert!(stats.filter_steps >= stats.refinements);
    }

    #[test]
    fn stats_report_filter_steps_and_saved_refinements() {
        let sets = random_sets(600, 5, 19);
        let idx = FilterRefineIndex::build(&sets, 6, 5);
        let (_, stats) = idx.knn(&sets[0], 10);
        assert!(stats.filter_steps > 0);
        assert_eq!(stats.filter_steps, stats.refinements + stats.refinements_saved);
        assert!(
            stats.refinements_saved > 0,
            "the termination bound never dismissed a candidate on 600 objects"
        );
    }

    #[test]
    fn delete_refuses_an_id_the_tree_does_not_hold_before_it_tombstones_anything() {
        let sets = random_sets(30, 3, 6);
        let mut idx = FilterRefineIndex::build(&sets, 6, 3);
        idx.tree = XTree::new(6);
        let err = idx.delete(4).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(idx.is_live(4) && idx.cfile.is_live(4), "nothing was tombstoned");
        assert_eq!(idx.live_len(), 30);
    }

    #[test]
    fn knn_with_k_larger_than_db_returns_all() {
        let sets = random_sets(20, 3, 5);
        let idx = FilterRefineIndex::build(&sets, 6, 3);
        let (got, _) = idx.knn(&sets[0], 100);
        assert_eq!(got.len(), 20);
    }
}
