//! An M-tree (Ciaccia, Patella & Zezula, VLDB'97 — reference \[10\]):
//! a paged access method for *metric* data. Because the minimal matching
//! distance is a metric (Lemma 1), vector sets can be indexed directly —
//! the alternative Section 4.3 mentions before introducing the centroid
//! filter.

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::io::{self, Read, Write};
use std::sync::Arc;

use vsim_setdist::Distance;
use vsim_store::{PageStore, PageStreamReader, PageStreamWriter, QueryContext, StreamHandle};

use crate::persist::{
    expect_tag, get_f64, get_len, get_u64, get_usize, invalid, put_f64, put_u64, NodeStore,
    PagePayload,
};

/// Stream tag for a persisted M-tree ("MTRE" + format version).
const MTREE_TAG: u64 = 0x4D54_5245_0000_0001;

#[derive(Clone)]
struct LeafEntry<T> {
    obj: T,
    id: u64,
    dist_to_parent: f64,
}

#[derive(Clone)]
struct RoutingEntry<T> {
    obj: T,
    radius: f64,
    dist_to_parent: f64,
    child: usize,
}

#[derive(Clone)]
enum MNode<T> {
    Leaf(Vec<LeafEntry<T>>),
    Internal(Vec<RoutingEntry<T>>),
}

impl<T> MNode<T> {
    fn len(&self) -> usize {
        match self {
            MNode::Leaf(v) => v.len(),
            MNode::Internal(v) => v.len(),
        }
    }
}

/// An M-tree over objects of type `T` under a supplied metric. One node
/// occupies one page of the tree's page store (its number recorded in
/// `node_pages`, fixed at save time for persisted trees); queries read
/// nodes through the buffer pool of the [`QueryContext`] they are given.
pub struct MTree<T> {
    dist: Arc<dyn Distance<T>>,
    nodes: Vec<MNode<T>>,
    /// Page of node `i` in the backing store.
    node_pages: Vec<u64>,
    root: usize,
    capacity: usize,
    bytes_per_entry: usize,
    store: NodeStore,
    len: usize,
}

impl<T> std::fmt::Debug for MTree<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MTree")
            .field("len", &self.len)
            .field("nodes", &self.nodes.len())
            .field("capacity", &self.capacity)
            .field("store", &self.store)
            .finish_non_exhaustive()
    }
}

impl<T: Clone> MTree<T> {
    /// `capacity` = entries per node (page); `bytes_per_entry` feeds the
    /// byte-level I/O accounting.
    pub fn new(dist: Arc<dyn Distance<T>>, capacity: usize, bytes_per_entry: usize) -> Self {
        assert!(capacity >= 4, "M-tree capacity must be at least 4");
        let mut tree = MTree {
            dist,
            nodes: Vec::new(),
            node_pages: Vec::new(),
            root: 0,
            capacity,
            bytes_per_entry,
            store: NodeStore::fresh(),
            len: 0,
        };
        tree.push_node(MNode::Leaf(Vec::new()));
        tree
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Deep copy with a fresh page-store identity and the same page
    /// span (see `XTree::snapshot`). Only in-memory trees can be
    /// snapshotted; the metric is shared via `Arc`.
    pub fn snapshot(&self) -> std::io::Result<MTree<T>> {
        Ok(MTree {
            dist: Arc::clone(&self.dist),
            nodes: self.nodes.clone(),
            node_pages: self.node_pages.clone(),
            root: self.root,
            capacity: self.capacity,
            bytes_per_entry: self.bytes_per_entry,
            store: self.store.snapshot()?,
            len: self.len,
        })
    }

    /// Total pages of the tree (one node per page).
    pub fn total_pages(&self) -> usize {
        self.nodes.len()
    }

    /// Append a node, allocating its page from the backing store.
    fn push_node(&mut self, node: MNode<T>) -> usize {
        let idx = self.nodes.len();
        self.nodes.push(node);
        self.node_pages.push(self.store.allocate(1));
        idx
    }

    /// Build-phase distance (not charged to any query).
    fn d(&self, a: &T, b: &T) -> f64 {
        self.dist.distance(a, b)
    }

    /// Query-phase distance, counted on the query's context.
    fn dq(&self, a: &T, b: &T, ctx: &QueryContext) -> f64 {
        ctx.count_distance_evals(1);
        self.dist.distance(a, b)
    }

    /// Read one node through the context's buffer pool: a miss charges
    /// one page plus the node's payload bytes; a hit is free.
    fn charge(&self, node: usize, ctx: &QueryContext) {
        let missed = ctx.access(self.store.id(), self.node_pages[node], 1);
        if missed > 0 {
            ctx.record_bytes((self.nodes[node].len() * self.bytes_per_entry) as u64);
        }
    }

    /// Insert an object (build phase: no I/O charged).
    pub fn insert(&mut self, obj: T, id: u64) {
        if let Some((e1, e2)) = self.insert_rec(self.root, obj, id, None) {
            let children = vec![e1, e2];
            let idx = self.push_node(MNode::Internal(children));
            self.root = idx;
        }
        self.len += 1;
    }

    /// Returns two routing entries if the node split.
    fn insert_rec(
        &mut self,
        node: usize,
        obj: T,
        id: u64,
        parent_obj: Option<&T>,
    ) -> Option<(RoutingEntry<T>, RoutingEntry<T>)> {
        match &self.nodes[node] {
            MNode::Leaf(_) => {
                let dtp = parent_obj.map(|p| self.d(p, &obj)).unwrap_or(0.0);
                if let MNode::Leaf(entries) = &mut self.nodes[node] {
                    entries.push(LeafEntry { obj, id, dist_to_parent: dtp });
                }
                if self.nodes[node].len() > self.capacity {
                    return Some(self.split(node));
                }
                let _ = parent_obj;
                None
            }
            MNode::Internal(entries) => {
                // Choose the routing entry: containing with min distance,
                // else min radius enlargement.
                let mut best = usize::MAX;
                let mut best_key = (false, f64::INFINITY);
                let mut dists = Vec::with_capacity(entries.len());
                // Collect distances first (immutable borrow).
                let objs: Vec<&T> = entries.iter().map(|e| &e.obj).collect();
                for o in &objs {
                    dists.push(self.d(o, &obj));
                }
                if let MNode::Internal(entries) = &self.nodes[node] {
                    for (i, e) in entries.iter().enumerate() {
                        let contained = dists[i] <= e.radius;
                        let key =
                            if contained { (true, dists[i]) } else { (false, dists[i] - e.radius) };
                        // Prefer contained; among those min distance;
                        // otherwise min enlargement.
                        let better = match (key.0, best_key.0) {
                            (true, false) => true,
                            (false, true) => false,
                            _ => key.1 < best_key.1,
                        };
                        if better {
                            best = i;
                            best_key = key;
                        }
                    }
                }
                let (child, route_obj, need_enlarge) = {
                    if let MNode::Internal(entries) = &self.nodes[node] {
                        let e = &entries[best];
                        (e.child, e.obj.clone(), dists[best].max(e.radius))
                    } else {
                        unreachable!()
                    }
                };
                // Enlarge radius if needed.
                if let MNode::Internal(entries) = &mut self.nodes[node] {
                    entries[best].radius = need_enlarge;
                }
                let split = self.insert_rec(child, obj, id, Some(&route_obj));
                if let Some((mut e1, mut e2)) = split {
                    // The promoted entries become entries of THIS node:
                    // their parent distance is to this node's routing
                    // object (`parent_obj`), not to the split child's.
                    e1.dist_to_parent = parent_obj.map(|p| self.d(p, &e1.obj)).unwrap_or(0.0);
                    e2.dist_to_parent = parent_obj.map(|p| self.d(p, &e2.obj)).unwrap_or(0.0);
                    if let MNode::Internal(entries) = &mut self.nodes[node] {
                        entries.remove(best);
                        entries.push(e1);
                        entries.push(e2);
                    }
                    if self.nodes[node].len() > self.capacity {
                        return Some(self.split(node));
                    }
                }
                None
            }
        }
    }

    /// Remove the entry for `(obj, id)` if present; returns whether one
    /// was removed. Descent follows every routing entry whose covering
    /// radius could contain `obj` (`d(obj, routing) ≤ radius`), so the
    /// *stored* object must be supplied — a leaf entry matches on its id
    /// plus zero metric distance (identity of indiscernibles). Covering
    /// radii are not re-tightened after removal: over-coverage never
    /// affects correctness, only pruning, and periodic epoch rebuilds
    /// restore compactness. Emptied nodes are unlinked from their
    /// parents and a single-entry internal root is collapsed
    /// (`dist_to_parent` is unused at the root, so collapsing is safe).
    pub fn delete(&mut self, obj: &T, id: u64) -> bool {
        if self.len == 0 || !self.delete_rec(self.root, obj, id) {
            return false;
        }
        self.len -= 1;
        loop {
            match &self.nodes[self.root] {
                MNode::Internal(entries) if entries.len() == 1 => {
                    self.root = entries[0].child;
                }
                MNode::Internal(entries) if entries.is_empty() => {
                    let idx = self.push_node(MNode::Leaf(Vec::new()));
                    self.root = idx;
                    break;
                }
                _ => break,
            }
        }
        true
    }

    fn delete_rec(&mut self, node: usize, obj: &T, id: u64) -> bool {
        match &self.nodes[node] {
            MNode::Leaf(entries) => {
                let pos = entries.iter().position(|e| e.id == id && self.d(&e.obj, obj) == 0.0);
                let Some(pos) = pos else { return false };
                if let MNode::Leaf(entries) = &mut self.nodes[node] {
                    entries.remove(pos);
                }
                true
            }
            MNode::Internal(entries) => {
                let candidates: Vec<(usize, usize)> = entries
                    .iter()
                    .enumerate()
                    .filter(|(_, e)| self.d(&e.obj, obj) <= e.radius)
                    .map(|(i, e)| (i, e.child))
                    .collect();
                for (i, child) in candidates {
                    if self.delete_rec(child, obj, id) {
                        if self.nodes[child].len() == 0 {
                            if let MNode::Internal(entries) = &mut self.nodes[node] {
                                entries.remove(i);
                            }
                        }
                        return true;
                    }
                }
                false
            }
        }
    }

    /// Split `node`, promoting two routing objects (max-distance-pair
    /// heuristic) and partitioning by generalized hyperplane. The
    /// returned entries carry `dist_to_parent = 0`; the caller must set
    /// it relative to *its own* routing object before storing them.
    fn split(&mut self, node: usize) -> (RoutingEntry<T>, RoutingEntry<T>) {
        // Gather the objects.
        let objs: Vec<T> = match &self.nodes[node] {
            MNode::Leaf(v) => v.iter().map(|e| e.obj.clone()).collect(),
            MNode::Internal(v) => v.iter().map(|e| e.obj.clone()).collect(),
        };
        let n = objs.len();
        // Promote: farthest from objs[0], then farthest from that.
        let mut p1 = 0usize;
        let mut far = -1.0;
        for (i, o) in objs.iter().enumerate() {
            let d = self.d(&objs[0], o);
            if d > far {
                far = d;
                p1 = i;
            }
        }
        let mut p2 = if p1 == 0 { 1 % n } else { 0 };
        far = -1.0;
        for (i, o) in objs.iter().enumerate() {
            if i == p1 {
                continue;
            }
            let d = self.d(&objs[p1], o);
            if d > far {
                far = d;
                p2 = i;
            }
        }
        let o1 = objs[p1].clone();
        let o2 = objs[p2].clone();

        // Partition entries to the nearer promoted object.
        let assign: Vec<bool> = objs.iter().map(|o| self.d(&o1, o) <= self.d(&o2, o)).collect();

        let (left_idx, right_idx, r1, r2) =
            match std::mem::replace(&mut self.nodes[node], MNode::Leaf(Vec::new())) {
                MNode::Leaf(entries) => {
                    let mut left = Vec::new();
                    let mut right = Vec::new();
                    let mut r1 = 0.0f64;
                    let mut r2 = 0.0f64;
                    for (e, &to_left) in entries.into_iter().zip(&assign) {
                        if to_left {
                            let d = self.d(&o1, &e.obj);
                            r1 = r1.max(d);
                            left.push(LeafEntry { dist_to_parent: d, ..e });
                        } else {
                            let d = self.d(&o2, &e.obj);
                            r2 = r2.max(d);
                            right.push(LeafEntry { dist_to_parent: d, ..e });
                        }
                    }
                    self.nodes[node] = MNode::Leaf(left);
                    let ridx = self.push_node(MNode::Leaf(right));
                    (node, ridx, r1, r2)
                }
                MNode::Internal(entries) => {
                    let mut left = Vec::new();
                    let mut right = Vec::new();
                    let mut r1 = 0.0f64;
                    let mut r2 = 0.0f64;
                    for (e, &to_left) in entries.into_iter().zip(&assign) {
                        if to_left {
                            let d = self.d(&o1, &e.obj);
                            r1 = r1.max(d + e.radius);
                            left.push(RoutingEntry { dist_to_parent: d, ..e });
                        } else {
                            let d = self.d(&o2, &e.obj);
                            r2 = r2.max(d + e.radius);
                            right.push(RoutingEntry { dist_to_parent: d, ..e });
                        }
                    }
                    self.nodes[node] = MNode::Internal(left);
                    let ridx = self.push_node(MNode::Internal(right));
                    (node, ridx, r1, r2)
                }
            };

        (
            RoutingEntry { obj: o1, radius: r1, dist_to_parent: 0.0, child: left_idx },
            RoutingEntry { obj: o2, radius: r2, dist_to_parent: 0.0, child: right_idx },
        )
    }

    /// All `(id, distance)` within `eps` of `query`.
    pub fn range_query(&self, query: &T, eps: f64, ctx: &QueryContext) -> Vec<(u64, f64)> {
        let mut out = Vec::new();
        if self.len == 0 {
            return out;
        }
        // Stack of (node, dist(query, node's routing object) or None for root).
        let mut stack: Vec<(usize, Option<f64>)> = vec![(self.root, None)];
        while let Some((node, parent_dist)) = stack.pop() {
            self.charge(node, ctx);
            match &self.nodes[node] {
                MNode::Leaf(entries) => {
                    for e in entries {
                        // Parent-distance pre-filter (triangle inequality).
                        if let Some(pd) = parent_dist {
                            if (pd - e.dist_to_parent).abs() > eps {
                                continue;
                            }
                        }
                        let d = self.dq(query, &e.obj, ctx);
                        if d <= eps {
                            out.push((e.id, d));
                        }
                    }
                }
                MNode::Internal(entries) => {
                    for e in entries {
                        if let Some(pd) = parent_dist {
                            if (pd - e.dist_to_parent).abs() > eps + e.radius {
                                continue;
                            }
                        }
                        let d = self.dq(query, &e.obj, ctx);
                        if d <= eps + e.radius {
                            stack.push((e.child, Some(d)));
                        }
                    }
                }
            }
        }
        out
    }

    /// The `k` nearest neighbors, sorted by distance (best-first search
    /// with covering-radius pruning).
    pub fn knn(&self, query: &T, k: usize, ctx: &QueryContext) -> Vec<(u64, f64)> {
        if self.len == 0 || k == 0 {
            return Vec::new();
        }
        let mut heap: BinaryHeap<MHeapEntry> = BinaryHeap::new();
        heap.push(MHeapEntry { dist: 0.0, node: self.root });
        let mut result: Vec<(u64, f64)> = Vec::new();
        let mut worst = f64::INFINITY;
        while let Some(MHeapEntry { dist, node }) = heap.pop() {
            if dist > worst {
                break;
            }
            self.charge(node, ctx);
            match &self.nodes[node] {
                MNode::Leaf(entries) => {
                    for e in entries {
                        let d = self.dq(query, &e.obj, ctx);
                        if d < worst || result.len() < k {
                            result.push((e.id, d));
                            result.sort_by(|a, b| a.1.total_cmp(&b.1));
                            result.truncate(k);
                            if result.len() == k {
                                worst = result[k - 1].1;
                            }
                        }
                    }
                }
                MNode::Internal(entries) => {
                    for e in entries {
                        let d = self.dq(query, &e.obj, ctx);
                        let mindist = (d - e.radius).max(0.0);
                        if mindist <= worst {
                            heap.push(MHeapEntry { dist: mindist, node: e.child });
                        }
                    }
                }
            }
        }
        result
    }
}

impl<T: Clone + PagePayload> MTree<T> {
    /// Persist the tree into `target`: each node gets one page allocated
    /// in `target` *now* (so reopening never re-allocates), and the node
    /// entries — objects included, via [`PagePayload`] — go into a
    /// checksummed metadata stream. Returns the stream handle for a
    /// directory. The metric itself is not serialized; the caller
    /// supplies it again on [`load_from`](Self::load_from).
    pub fn save_to(&self, target: &dyn PageStore) -> io::Result<StreamHandle> {
        let pages: Vec<u64> =
            self.nodes.iter().map(|_| target.allocate(1)).collect::<Result<_, _>>()?;
        let mut meta = Vec::new();
        put_u64(&mut meta, MTREE_TAG);
        put_u64(&mut meta, self.capacity as u64);
        put_u64(&mut meta, self.bytes_per_entry as u64);
        put_u64(&mut meta, self.root as u64);
        put_u64(&mut meta, self.len as u64);
        put_u64(&mut meta, self.nodes.len() as u64);
        for (node, &page) in self.nodes.iter().zip(&pages) {
            put_u64(&mut meta, page);
            match node {
                MNode::Leaf(entries) => {
                    put_u64(&mut meta, 0);
                    put_u64(&mut meta, entries.len() as u64);
                    for e in entries {
                        e.obj.encode_into(&mut meta);
                        put_u64(&mut meta, e.id);
                        put_f64(&mut meta, e.dist_to_parent);
                    }
                }
                MNode::Internal(entries) => {
                    put_u64(&mut meta, 1);
                    put_u64(&mut meta, entries.len() as u64);
                    for e in entries {
                        e.obj.encode_into(&mut meta);
                        put_f64(&mut meta, e.radius);
                        put_f64(&mut meta, e.dist_to_parent);
                        put_u64(&mut meta, e.child as u64);
                    }
                }
            }
        }
        let mut w = PageStreamWriter::new(target);
        w.write_all(&meta)?;
        w.finish()
    }

    /// Reopen a tree persisted by [`save_to`](Self::save_to), supplying
    /// the same metric it was built with (metrics are code, not data).
    /// Queries charge the node pages recorded at save time, so page and
    /// byte accounting is bit-identical to the tree that was saved.
    pub fn load_from(
        store: Arc<dyn PageStore>,
        meta_first: u64,
        dist: Arc<dyn Distance<T>>,
    ) -> io::Result<Self> {
        let mut r = PageStreamReader::open(store.as_ref(), meta_first)?;
        let mut meta = Vec::new();
        r.read_to_end(&mut meta)?;
        let r = &mut &meta[..];
        expect_tag(r, MTREE_TAG, "M-tree")?;
        let capacity = get_len(r, "M-tree capacity")?;
        let bytes_per_entry = get_len(r, "entry byte size")?;
        let root = get_usize(r)?;
        let len = get_len(r, "M-tree entry")?;
        let n_nodes = get_len(r, "M-tree node")?;
        if capacity < 4 || root >= n_nodes {
            return Err(invalid("M-tree header is inconsistent"));
        }
        let mut nodes = Vec::with_capacity(n_nodes);
        let mut node_pages = Vec::with_capacity(n_nodes);
        for _ in 0..n_nodes {
            let page = get_u64(r)?;
            if page >= store.page_count() {
                return Err(invalid("M-tree node page exceeds the page store"));
            }
            node_pages.push(page);
            let kind = get_u64(r)?;
            let n_entries = get_len(r, "node entry")?;
            let node = match kind {
                0 => {
                    let mut entries = Vec::with_capacity(n_entries);
                    for _ in 0..n_entries {
                        let obj = T::decode_from(r)?;
                        let id = get_u64(r)?;
                        let dist_to_parent = get_f64(r)?;
                        entries.push(LeafEntry { obj, id, dist_to_parent });
                    }
                    MNode::Leaf(entries)
                }
                1 => {
                    let mut entries = Vec::with_capacity(n_entries);
                    for _ in 0..n_entries {
                        let obj = T::decode_from(r)?;
                        let radius = get_f64(r)?;
                        let dist_to_parent = get_f64(r)?;
                        let child = get_usize(r)?;
                        if child >= n_nodes {
                            return Err(invalid("M-tree child index out of range"));
                        }
                        entries.push(RoutingEntry { obj, radius, dist_to_parent, child });
                    }
                    MNode::Internal(entries)
                }
                _ => return Err(invalid("M-tree node kind is neither leaf nor internal")),
            };
            nodes.push(node);
        }
        Ok(MTree {
            dist,
            nodes,
            node_pages,
            root,
            capacity,
            bytes_per_entry,
            store: NodeStore::Shared(store),
            len,
        })
    }
}

struct MHeapEntry {
    dist: f64,
    node: usize,
}
impl PartialEq for MHeapEntry {
    fn eq(&self, o: &Self) -> bool {
        self.dist == o.dist
    }
}
impl Eq for MHeapEntry {}
impl Ord for MHeapEntry {
    fn cmp(&self, o: &Self) -> Ordering {
        o.dist.total_cmp(&self.dist)
    }
}
impl PartialOrd for MHeapEntry {
    fn partial_cmp(&self, o: &Self) -> Option<Ordering> {
        Some(self.cmp(o))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::prelude::*;

    fn euclid2(a: &[f64], b: &[f64]) -> f64 {
        a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum::<f64>().sqrt()
    }

    fn build(points: &[Vec<f64>]) -> MTree<Vec<f64>> {
        let dist: Arc<dyn Distance<Vec<f64>>> =
            Arc::new(|a: &Vec<f64>, b: &Vec<f64>| euclid2(a, b));
        let mut t = MTree::new(dist, 8, 32);
        for (i, p) in points.iter().enumerate() {
            t.insert(p.clone(), i as u64);
        }
        t
    }

    fn random_points(n: usize, dim: usize, seed: u64) -> Vec<Vec<f64>> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n).map(|_| (0..dim).map(|_| rng.gen_range(0.0..100.0)).collect()).collect()
    }

    #[test]
    fn empty_tree() {
        let dist: Arc<dyn Distance<Vec<f64>>> =
            Arc::new(|a: &Vec<f64>, b: &Vec<f64>| euclid2(a, b));
        let t: MTree<Vec<f64>> = MTree::new(dist, 8, 32);
        let ctx = QueryContext::ephemeral();
        assert!(t.is_empty());
        assert!(t.range_query(&vec![0.0, 0.0], 5.0, &ctx).is_empty());
        assert!(t.knn(&vec![0.0, 0.0], 3, &ctx).is_empty());
    }

    #[test]
    fn range_query_matches_brute_force() {
        let pts = random_points(400, 3, 99);
        let t = build(&pts);
        for q in random_points(8, 3, 100) {
            for eps in [10.0, 30.0] {
                let ctx = QueryContext::ephemeral();
                let mut got: Vec<u64> =
                    t.range_query(&q, eps, &ctx).into_iter().map(|(id, _)| id).collect();
                got.sort_unstable();
                let mut want: Vec<u64> = pts
                    .iter()
                    .enumerate()
                    .filter(|(_, p)| euclid2(p, &q) <= eps)
                    .map(|(i, _)| i as u64)
                    .collect();
                want.sort_unstable();
                assert_eq!(got, want, "eps {eps}");
            }
        }
    }

    #[test]
    fn knn_matches_brute_force() {
        let pts = random_points(300, 2, 123);
        let t = build(&pts);
        for q in random_points(6, 2, 124) {
            let ctx = QueryContext::ephemeral();
            let got = t.knn(&q, 7, &ctx);
            let mut all: Vec<(u64, f64)> =
                pts.iter().enumerate().map(|(i, p)| (i as u64, euclid2(p, &q))).collect();
            all.sort_by(|a, b| a.1.total_cmp(&b.1));
            assert_eq!(got.len(), 7);
            for (g, w) in got.iter().zip(all.iter()) {
                assert!((g.1 - w.1).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn pruning_saves_distance_computations() {
        let pts = random_points(2000, 2, 7);
        let t = build(&pts);
        let ctx = QueryContext::ephemeral();
        let _ = t.knn(&pts[0], 5, &ctx);
        let used = ctx.stats(std::time::Duration::ZERO).distance_evals;
        assert!(
            (used as usize) < pts.len(),
            "kNN used {used} distance computations for {} objects",
            pts.len()
        );
    }

    #[test]
    fn io_charged_on_queries() {
        let pts = random_points(500, 2, 8);
        let t = build(&pts);
        let ctx = QueryContext::ephemeral();
        let _ = t.range_query(&pts[3], 5.0, &ctx);
        let snap = ctx.stats(std::time::Duration::ZERO);
        assert!(snap.io.pages > 0);
        assert!(snap.io.bytes > 0);
    }

    #[test]
    fn warm_pool_charges_no_pages_or_bytes() {
        let pts = random_points(500, 2, 9);
        let t = build(&pts);
        let pool = vsim_store::BufferPool::unbounded();
        let cold = QueryContext::with_pool(Arc::clone(&pool));
        let _ = t.knn(&pts[0], 5, &cold);
        assert!(cold.stats(std::time::Duration::ZERO).io.pages > 0);
        let warm = QueryContext::with_pool(pool);
        let _ = t.knn(&pts[0], 5, &warm);
        let s = warm.stats(std::time::Duration::ZERO);
        assert_eq!(s.io.pages, 0);
        assert_eq!(s.io.bytes, 0, "bytes are only charged on misses");
        assert!(s.distance_evals > 0, "CPU work is still counted");
    }

    #[test]
    fn deep_tree_range_queries_stay_exact() {
        // Small capacity + clustered data forces many splits at several
        // levels; exactness here guards the parent-distance bookkeeping
        // (a wrong dist_to_parent makes the triangle-inequality pruning
        // drop valid subtrees).
        let mut rng = StdRng::seed_from_u64(77);
        let mut pts: Vec<Vec<f64>> = Vec::new();
        for c in 0..20 {
            let cx = (c % 5) as f64 * 20.0;
            let cy = (c / 5) as f64 * 20.0;
            for _ in 0..60 {
                pts.push(vec![cx + rng.gen_range(-3.0..3.0), cy + rng.gen_range(-3.0..3.0)]);
            }
        }
        let dist: Arc<dyn Distance<Vec<f64>>> =
            Arc::new(|a: &Vec<f64>, b: &Vec<f64>| euclid2(a, b));
        let mut t = MTree::new(dist, 4, 32);
        for (i, p) in pts.iter().enumerate() {
            t.insert(p.clone(), i as u64);
        }
        for qi in (0..pts.len()).step_by(97) {
            for eps in [1.0, 4.0, 15.0] {
                let ctx = QueryContext::ephemeral();
                let mut got: Vec<u64> =
                    t.range_query(&pts[qi], eps, &ctx).into_iter().map(|(id, _)| id).collect();
                got.sort_unstable();
                let mut want: Vec<u64> = pts
                    .iter()
                    .enumerate()
                    .filter(|(_, p)| euclid2(p, &pts[qi]) <= eps)
                    .map(|(i, _)| i as u64)
                    .collect();
                want.sort_unstable();
                assert_eq!(got, want, "query {qi} eps {eps}");
            }
        }
    }

    #[test]
    fn delete_matches_brute_force_after_churn() {
        let pts = random_points(400, 3, 201);
        let mut t = build(&pts);
        assert!(!t.delete(&vec![777.0, 0.0, 0.0], 0), "absent object");
        assert!(!t.delete(&pts[2], 9999), "wrong id");
        let mut live: Vec<(u64, Vec<f64>)> =
            pts.iter().enumerate().map(|(i, p)| (i as u64, p.clone())).collect();
        for i in (0..400).step_by(3) {
            assert!(t.delete(&pts[i], i as u64), "point {i} must be present");
        }
        live.retain(|(id, _)| id % 3 != 0);
        for (j, p) in random_points(50, 3, 202).into_iter().enumerate() {
            let id = 1000 + j as u64;
            t.insert(p.clone(), id);
            live.push((id, p));
        }
        assert_eq!(t.len(), live.len());
        for q in random_points(5, 3, 203) {
            let ctx = QueryContext::ephemeral();
            let got = t.knn(&q, 10, &ctx);
            let mut want: Vec<(u64, f64)> =
                live.iter().map(|(id, p)| (*id, euclid2(p, &q))).collect();
            want.sort_by(|a, b| a.1.total_cmp(&b.1));
            for (g, w) in got.iter().zip(&want) {
                assert!((g.1 - w.1).abs() < 1e-9, "{g:?} vs {w:?}");
            }
            let mut ids: Vec<u64> =
                t.range_query(&q, 30.0, &ctx).into_iter().map(|(id, _)| id).collect();
            ids.sort_unstable();
            let mut want_ids: Vec<u64> =
                live.iter().filter(|(_, p)| euclid2(p, &q) <= 30.0).map(|(id, _)| *id).collect();
            want_ids.sort_unstable();
            assert_eq!(ids, want_ids);
        }
    }

    #[test]
    fn delete_to_empty_then_reinsert() {
        let pts = random_points(80, 2, 205);
        let mut t = build(&pts);
        for (i, p) in pts.iter().enumerate() {
            assert!(t.delete(p, i as u64));
        }
        assert!(t.is_empty());
        let ctx = QueryContext::ephemeral();
        assert!(t.knn(&vec![0.0, 0.0], 3, &ctx).is_empty());
        assert!(t.range_query(&vec![0.0, 0.0], 1e9, &ctx).is_empty());
        for (i, p) in pts.iter().enumerate() {
            t.insert(p.clone(), i as u64);
        }
        assert_eq!(t.len(), 80);
        assert_eq!(t.knn(&pts[5], 1, &ctx)[0].0, 5);
    }

    #[test]
    fn save_load_round_trips_with_identical_queries_and_charging() {
        let pts = random_points(400, 3, 61);
        let t = build(&pts);
        let target: Arc<dyn PageStore> = Arc::new(vsim_store::InMemoryPageStore::new());
        let handle = t.save_to(target.as_ref()).unwrap();
        let dist: Arc<dyn Distance<Vec<f64>>> =
            Arc::new(|a: &Vec<f64>, b: &Vec<f64>| euclid2(a, b));
        let back = MTree::load_from(Arc::clone(&target), handle.first, dist).unwrap();
        assert_eq!(back.len(), t.len());
        assert_eq!(back.total_pages(), t.total_pages());
        for q in random_points(5, 3, 62) {
            let (ca, cb) = (QueryContext::ephemeral(), QueryContext::ephemeral());
            let a = t.knn(&q, 8, &ca);
            let b = back.knn(&q, 8, &cb);
            assert_eq!(a.len(), b.len());
            for (x, y) in a.iter().zip(&b) {
                assert_eq!(x.0, y.0);
                assert_eq!(x.1.to_bits(), y.1.to_bits(), "knn distance bits");
            }
            let (sa, sb) =
                (ca.stats(std::time::Duration::ZERO), cb.stats(std::time::Duration::ZERO));
            assert_eq!(sa.io.pages, sb.io.pages, "page charge");
            assert_eq!(sa.io.bytes, sb.io.bytes, "byte charge");
            assert_eq!(sa.distance_evals, sb.distance_evals);
        }
        let after_save = target.page_count();
        let dist2: Arc<dyn Distance<Vec<f64>>> =
            Arc::new(|a: &Vec<f64>, b: &Vec<f64>| euclid2(a, b));
        let _ = MTree::<Vec<f64>>::load_from(Arc::clone(&target), handle.first, dist2).unwrap();
        assert_eq!(target.page_count(), after_save, "load allocates no pages");
    }

    #[test]
    fn corrupted_mtree_stream_is_rejected() {
        let pts = random_points(100, 2, 63);
        let t = build(&pts);
        let target: Arc<dyn PageStore> = Arc::new(vsim_store::InMemoryPageStore::new());
        let handle = t.save_to(target.as_ref()).unwrap();
        target.write_page(handle.first, &[0u8; vsim_store::PAGE_SIZE]).unwrap();
        let dist: Arc<dyn Distance<Vec<f64>>> =
            Arc::new(|a: &Vec<f64>, b: &Vec<f64>| euclid2(a, b));
        let err = MTree::<Vec<f64>>::load_from(target, handle.first, dist).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    }

    #[test]
    fn works_with_a_non_euclidean_metric() {
        // L1 metric.
        let l1 = |a: &Vec<f64>, b: &Vec<f64>| -> f64 {
            a.iter().zip(b).map(|(x, y)| (x - y).abs()).sum()
        };
        let dist: Arc<dyn Distance<Vec<f64>>> = Arc::new(l1);
        let mut t = MTree::new(dist, 6, 16);
        let pts = random_points(200, 2, 55);
        for (i, p) in pts.iter().enumerate() {
            t.insert(p.clone(), i as u64);
        }
        let q = vec![50.0, 50.0];
        let ctx = QueryContext::ephemeral();
        let got = t.knn(&q, 5, &ctx);
        let mut all: Vec<(u64, f64)> =
            pts.iter().enumerate().map(|(i, p)| (i as u64, l1(p, &q))).collect();
        all.sort_by(|a, b| a.1.total_cmp(&b.1));
        for (g, w) in got.iter().zip(all.iter()) {
            assert!((g.1 - w.1).abs() < 1e-9);
        }
    }
}
