//! An X-tree: R*-tree topology extended with *supernodes*
//! (Berchtold, Keim & Kriegel, VLDB'96 — reference \[8\] of the paper).
//!
//! In low dimensions the tree behaves like an R*-tree. In high
//! dimensions, directory splits would produce heavily overlapping
//! entries; instead of accepting such a split the X-tree grows the node
//! into a multi-page *supernode*. As dimensionality rises the directory
//! degenerates gracefully toward a sequential scan — the effect that
//! makes the 42-dimensional one-vector index of Table 2 pay its large
//! I/O bill, while the 6-dimensional centroid filter index stays
//! selective.
//!
//! Implementation notes (documented simplifications):
//! * subtree choice minimizes the L1 (margin) enlargement, which is
//!   numerically robust in high dimensions where volumes underflow;
//! * overlap of a candidate split is measured as the fraction of entries
//!   whose rectangle intersects both halves (volume-free, robust);
//! * no forced reinsertion (the X-tree's supernode mechanism, not R*
//!   reinsertion, is the effect under study).
//!
//! A tree over a known point set is packed, not inserted:
//! [`XTree::bulk_load`] sorts the points tile by tile over all `dim`
//! axes and fills every leaf and directory node to capacity, so a
//! packed tree has no supernode and the least height for its size.
//! Splits and supernodes come only from [`XTree::insert`] — the 42-d
//! one-vector baseline is insert-built for that reason, and a dynamic
//! index grows them from its inserts.
//!
//! A node keeps its entries — points in a leaf, child rectangles in a
//! directory node — in the entry-major lane blocks of `crate::lanes`
//! and nowhere else; a node's own rectangle lives in its parent's entry
//! for it, as in the R-tree papers (DESIGN.md §9). Nodes sit behind
//! `Arc`s: a `snapshot()` shares them all, and an insert or delete
//! copies the nodes on its path the first time it writes them
//! (DESIGN.md §14).

use std::cmp::Ordering;
use std::collections::binary_heap::PeekMut;
use std::collections::BinaryHeap;
use std::io::{self, Read, Write};
use std::ops::{Index, IndexMut, Range};
use std::sync::Arc;

use vsim_store::{
    PageStore, PageStreamReader, PageStreamWriter, QueryContext, StreamHandle, PAGE_SIZE,
};

use crate::lanes::{self, Slot, W};
use crate::persist::{
    expect_tag, get_f64, get_len, get_u64, get_usize, invalid, put_f64, put_u64, NodeStore,
};

/// Stream tag for a persisted X-tree ("XTRE" + format version).
const XTREE_TAG: u64 = 0x5854_5245_0000_0001;

/// Minimum fill fraction per split half.
const MIN_FILL: f64 = 0.4;

#[derive(Debug, Clone)]
struct Node {
    leaf: bool,
    /// Number of disk pages this node occupies (> 1 ⇒ supernode).
    pages: usize,
    /// First page of this node's span in the tree's page store.
    first_page: u64,
    /// Values per entry: `dim` coordinates in a leaf, `2·dim` bounds
    /// (low, high per dimension) in a directory node.
    rows: usize,
    /// The entries, in blocks of [`W`] × `rows` (see [`crate::lanes`]).
    lanes: Vec<f64>,
    /// Leaf payload ids, parallel to the entries.
    ids: Vec<u64>,
    /// Directory payload: child node indices, parallel to the entries.
    children: Vec<usize>,
}

impl Node {
    /// An empty node with buffers for `cap` entries.
    fn new(leaf: bool, dim: usize, cap: usize) -> Self {
        let rows = if leaf { dim } else { 2 * dim };
        Node {
            leaf,
            pages: 1,
            first_page: 0,
            rows,
            lanes: Vec::with_capacity(cap.div_ceil(W) * rows * W),
            ids: Vec::with_capacity(if leaf { cap } else { 0 }),
            children: Vec::with_capacity(if leaf { 0 } else { cap }),
        }
    }

    fn len(&self) -> usize {
        if self.leaf {
            self.ids.len()
        } else {
            self.children.len()
        }
    }

    fn dim(&self) -> usize {
        if self.leaf {
            self.rows
        } else {
            self.rows / 2
        }
    }

    /// Position in `lanes` of value `r` of entry `i`.
    #[inline]
    fn at(&self, i: usize, r: usize) -> usize {
        (i / W * self.rows + r) * W + i % W
    }

    /// `[low, high]` of entry `i` in dimension `d`.
    #[inline]
    fn bounds(&self, i: usize, d: usize) -> [f64; 2] {
        if self.leaf {
            [self.lanes[self.at(i, d)]; 2]
        } else {
            [self.lanes[self.at(i, 2 * d)], self.lanes[self.at(i, 2 * d + 1)]]
        }
    }

    /// Write the values of entry `i`, opening a new block if it is the
    /// first entry of one.
    fn set_entry(&mut self, i: usize, values: impl Iterator<Item = f64>) {
        let blocks = (i / W + 1) * self.rows * W;
        if self.lanes.len() < blocks {
            self.lanes.resize(blocks, 0.0);
        }
        for (r, v) in values.enumerate() {
            let at = self.at(i, r);
            self.lanes[at] = v;
        }
    }

    fn push_point(&mut self, point: &[f64], id: u64) {
        self.set_entry(self.ids.len(), point.iter().copied());
        self.ids.push(id);
    }

    fn set_bounds(&mut self, i: usize, lo: &[f64], hi: &[f64]) {
        self.set_entry(i, lo.iter().zip(hi).flat_map(|(&lo, &hi)| [lo, hi]));
    }

    fn push_child(&mut self, child: usize, lo: &[f64], hi: &[f64]) {
        self.set_bounds(self.children.len(), lo, hi);
        self.children.push(child);
    }

    /// Remove entry `i`, shifting the later ones down: entry order is
    /// part of what [`XTree::save_to`] writes.
    fn remove_entry(&mut self, i: usize) {
        let last = self.len() - 1;
        for j in i..last {
            for r in 0..self.rows {
                let (to, from) = (self.at(j, r), self.at(j + 1, r));
                self.lanes[to] = self.lanes[from];
            }
        }
        self.lanes.truncate(last.div_ceil(W) * self.rows * W);
        if self.leaf {
            self.ids.remove(i);
        } else {
            self.children.remove(i);
        }
    }

    /// Whether entry `i` contains `point` (for a leaf entry: equals it).
    /// A NaN coordinate equals a stored NaN and is outside no rectangle:
    /// `min` / `max` keep NaN out of every cover, so a rectangle says
    /// nothing about the NaNs below it.
    fn holds(&self, i: usize, point: &[f64]) -> bool {
        point.iter().enumerate().all(|(d, &p)| {
            let [lo, hi] = self.bounds(i, d);
            if p.is_nan() {
                !self.leaf || lo.is_nan()
            } else {
                p >= lo && p <= hi
            }
        })
    }

    /// Exact cover of the entries, accumulated in entry order.
    fn cover(&self) -> Mbr {
        let mut mbr = Mbr::empty(self.dim());
        for i in 0..self.len() {
            for d in 0..self.dim() {
                let [lo, hi] = self.bounds(i, d);
                mbr.min[d] = mbr.min[d].min(lo);
                mbr.max[d] = mbr.max[d].max(hi);
            }
        }
        mbr
    }

    /// Entry-major copy of one bound of every entry: `which` 0 the low
    /// bounds, 1 the high ones (the same points twice for a leaf).
    fn gather(&self, which: usize) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.len() * self.dim());
        for i in 0..self.len() {
            out.extend((0..self.dim()).map(|d| self.bounds(i, d)[which]));
        }
        out
    }
}

/// The nodes of a tree, each behind an `Arc` a snapshot shares: reading
/// `nodes[i]` borrows the node, writing `nodes[i]` first makes it this
/// tree's own — a copy iff a snapshot still holds it — so a round of
/// writes copies the nodes it touches and no others.
#[derive(Debug, Clone, Default)]
struct Nodes(Vec<Arc<Node>>);

impl Nodes {
    fn len(&self) -> usize {
        self.0.len()
    }

    fn push(&mut self, node: Node) {
        self.0.push(Arc::new(node));
    }

    fn iter(&self) -> impl Iterator<Item = &Node> {
        self.0.iter().map(|n| &**n)
    }
}

impl Index<usize> for Nodes {
    type Output = Node;

    #[inline]
    fn index(&self, i: usize) -> &Node {
        &self.0[i]
    }
}

impl IndexMut<usize> for Nodes {
    #[inline]
    fn index_mut(&mut self, i: usize) -> &mut Node {
        Arc::make_mut(&mut self.0[i])
    }
}

/// A minimum bounding rectangle outside the lanes: what a node's parent
/// is about to store for it.
struct Mbr {
    min: Vec<f64>,
    max: Vec<f64>,
}

impl Mbr {
    fn empty(dim: usize) -> Self {
        Mbr { min: vec![f64::INFINITY; dim], max: vec![f64::NEG_INFINITY; dim] }
    }
}

/// A point X-tree over `dim`-dimensional `f64` points with `u64` payload
/// ids. Node pages live in a page store — an owned in-memory one at
/// build time, or a span of a shared durable store after
/// [`save_to`](Self::save_to)/[`load_from`](Self::load_from); queries
/// read them through the buffer pool of the [`QueryContext`] they are
/// given, so all I/O accounting is per query.
#[derive(Debug)]
pub struct XTree {
    dim: usize,
    nodes: Nodes,
    root: usize,
    leaf_cap: usize,
    dir_cap: usize,
    /// Split-overlap threshold above which a directory node becomes a
    /// supernode (the X-tree paper suggests ~20%).
    pub max_overlap: f64,
    store: NodeStore,
    len: usize,
}

impl XTree {
    /// Create an empty X-tree. Node capacities derive from [`PAGE_SIZE`]
    /// and the entry sizes (8 bytes per coordinate + 8-byte id for leaf
    /// entries, two coordinates vectors + pointer for directory entries).
    pub fn new(dim: usize) -> Self {
        assert!(dim > 0);
        let leaf_entry = 8 * dim + 8;
        let dir_entry = 16 * dim + 8;
        let leaf_cap = (PAGE_SIZE / leaf_entry).max(4);
        let dir_cap = (PAGE_SIZE / dir_entry).max(4);
        let mut tree = XTree {
            dim,
            nodes: Nodes::default(),
            root: 0,
            leaf_cap,
            dir_cap,
            max_overlap: 0.2,
            store: NodeStore::fresh(),
            len: 0,
        };
        tree.add_node(tree.new_node(true));
        tree
    }

    /// The tree as it is now, under a fresh page-store identity with the
    /// same page span: queries on the snapshot return bit-identical
    /// results with identical charging, but its pages are distinct to
    /// every buffer pool. No node is copied — the snapshot shares them
    /// all, and a later insert or delete on either tree copies the nodes
    /// along its own path first. Only in-memory trees can be snapshotted.
    pub fn snapshot(&self) -> std::io::Result<XTree> {
        Ok(XTree {
            dim: self.dim,
            nodes: self.nodes.clone(),
            root: self.root,
            leaf_cap: self.leaf_cap,
            dir_cap: self.dir_cap,
            max_overlap: self.max_overlap,
            store: self.store.snapshot()?,
            len: self.len,
        })
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of nodes occupying more than one page.
    pub fn supernode_count(&self) -> usize {
        self.nodes.iter().filter(|n| n.pages > 1).count()
    }

    /// Total pages of the tree (index size on "disk").
    pub fn total_pages(&self) -> usize {
        self.nodes.iter().map(|n| n.pages).sum()
    }

    /// Every stored id once, leaf by leaf: depth-first from the root,
    /// children and ids in entry order — deterministic for a given tree.
    /// Ids that are neighbours here are neighbours in the indexed space,
    /// which is the order a saved heap file keeps its records in.
    pub fn leaf_order(&self) -> Vec<u64> {
        let mut order = Vec::with_capacity(self.len);
        let mut stack = vec![self.root];
        while let Some(n) = stack.pop() {
            order.extend_from_slice(&self.nodes[n].ids);
            stack.extend(self.nodes[n].children.iter().rev());
        }
        order
    }

    /// Nodes of this tree that are not the very allocation `snapshot`
    /// holds at the same index: what writes since have copied or added.
    #[cfg(test)]
    fn unshared_nodes(&self, snapshot: &XTree) -> usize {
        let shared =
            self.nodes.0.iter().zip(&snapshot.nodes.0).filter(|(a, b)| Arc::ptr_eq(a, b)).count();
        self.nodes.len() - shared
    }

    /// Persist the tree into `target`: each node gets a page span
    /// allocated in `target` *now* (so reopening never re-allocates or
    /// grows the file), and the topology — with those span locations —
    /// goes into a checksummed metadata stream. Returns the stream
    /// handle for a directory.
    pub fn save_to(&self, target: &dyn PageStore) -> io::Result<StreamHandle> {
        let spans: Vec<u64> =
            self.nodes.iter().map(|n| target.allocate(n.pages as u64)).collect::<Result<_, _>>()?;
        let mut meta = Vec::new();
        put_u64(&mut meta, XTREE_TAG);
        put_u64(&mut meta, self.dim as u64);
        put_u64(&mut meta, self.root as u64);
        put_u64(&mut meta, self.len as u64);
        put_u64(&mut meta, self.leaf_cap as u64);
        put_u64(&mut meta, self.dir_cap as u64);
        put_f64(&mut meta, self.max_overlap);
        put_u64(&mut meta, self.nodes.len() as u64);
        for (n, &first) in self.nodes.iter().zip(&spans) {
            put_u64(&mut meta, n.leaf as u64);
            put_u64(&mut meta, n.pages as u64);
            put_u64(&mut meta, first);
            // The format gives every node its own rectangle: the exact
            // cover of its entries, which is what its parent holds.
            let mbr = n.cover();
            for &v in mbr.min.iter().chain(&mbr.max) {
                put_f64(&mut meta, v);
            }
            put_u64(&mut meta, n.ids.len() as u64);
            for i in 0..n.ids.len() {
                for d in 0..self.dim {
                    put_f64(&mut meta, n.lanes[n.at(i, d)]);
                }
            }
            for &id in &n.ids {
                put_u64(&mut meta, id);
            }
            put_u64(&mut meta, n.children.len() as u64);
            for &c in &n.children {
                put_u64(&mut meta, c as u64);
            }
        }
        let mut w = PageStreamWriter::new(target);
        w.write_all(&meta)?;
        w.finish()
    }

    /// Reopen a tree persisted by [`save_to`](Self::save_to). Queries on
    /// the reopened tree charge the spans recorded at save time, so page
    /// and byte accounting is bit-identical to the tree that was saved.
    /// Every structural field is validated, the topology included — the
    /// nodes reachable from the root must form a tree whose leaves hold
    /// exactly the recorded number of entries; a corrupted stream
    /// surfaces as `InvalidData`. A tree reopened from a page file is
    /// read-only: the file refuses new spans.
    pub fn load_from(store: Arc<dyn PageStore>, meta_first: u64) -> io::Result<Self> {
        let mut r = PageStreamReader::open(store.as_ref(), meta_first)?;
        let mut meta = Vec::new();
        r.read_to_end(&mut meta)?;
        let r = &mut &meta[..];
        expect_tag(r, XTREE_TAG, "X-tree")?;
        let dim = get_len(r, "X-tree dim")?;
        if dim == 0 {
            return Err(invalid("X-tree dimension must be positive"));
        }
        let root = get_usize(r)?;
        let len = get_len(r, "X-tree entry")?;
        let leaf_cap = get_len(r, "leaf capacity")?;
        let dir_cap = get_len(r, "directory capacity")?;
        let max_overlap = get_f64(r)?;
        let n_nodes = get_len(r, "X-tree node")?;
        // Every node brings a rectangle of `2 · dim` values.
        if root >= n_nodes || leaf_cap == 0 || dir_cap == 0 || dim > r.len() / 16 {
            return Err(invalid("X-tree header is inconsistent"));
        }
        // No count sizes a buffer beyond what is left of the stream
        // could fill: a corrupted one runs into its end instead.
        let mut nodes = Vec::with_capacity(n_nodes.min(r.len() / 8));
        // The stream keeps each node's rectangle with the node; a
        // directory entry is filled from its child's once all are read.
        let mut mbrs: Vec<Mbr> = Vec::with_capacity(nodes.capacity());
        let mut point = vec![0.0; dim];
        for _ in 0..n_nodes {
            let leaf = match get_u64(r)? {
                0 => false,
                1 => true,
                _ => return Err(invalid("X-tree node flag is neither leaf nor directory")),
            };
            let pages = get_len(r, "node page")?.max(1);
            let first_page = get_u64(r)?;
            if first_page.checked_add(pages as u64).is_none_or(|end| end > store.page_count()) {
                return Err(invalid("X-tree node span exceeds the page store"));
            }
            let mut mbr = Mbr::empty(dim);
            for v in mbr.min.iter_mut().chain(mbr.max.iter_mut()) {
                *v = get_f64(r)?;
            }
            mbrs.push(mbr);
            let entries = get_len(r, "leaf entry")?;
            if !leaf && entries > 0 {
                return Err(invalid("X-tree directory node holds points"));
            }
            let mut node = Node::new(leaf, dim, entries.min(r.len() / (8 * dim)));
            node.pages = pages;
            node.first_page = first_page;
            for i in 0..entries {
                for v in &mut point {
                    *v = get_f64(r)?;
                }
                node.set_entry(i, point.iter().copied());
            }
            for _ in 0..entries {
                node.ids.push(get_u64(r)?);
            }
            let n_children = get_len(r, "child")?;
            if leaf && n_children > 0 {
                return Err(invalid("X-tree leaf has children"));
            }
            node.children.reserve_exact(n_children.min(r.len() / 8));
            for _ in 0..n_children {
                let c = get_usize(r)?;
                if c >= n_nodes {
                    return Err(invalid("X-tree child index out of range"));
                }
                node.children.push(c);
            }
            nodes.push(node);
        }
        for node in nodes.iter_mut().filter(|n| !n.leaf) {
            for i in 0..node.children.len() {
                let mbr = &mbrs[node.children[i]];
                node.set_bounds(i, &mbr.min, &mbr.max);
            }
        }
        // What the root reaches must be a tree: a node with two parents
        // would be emitted twice, a cycle would never finish.
        let mut seen = vec![false; n_nodes];
        seen[root] = true;
        let mut stack = vec![root];
        let mut leaf_entries = 0usize;
        while let Some(n) = stack.pop() {
            leaf_entries += nodes[n].ids.len();
            for &c in &nodes[n].children {
                if std::mem::replace(&mut seen[c], true) {
                    return Err(invalid("X-tree child links do not form a tree"));
                }
                stack.push(c);
            }
        }
        if leaf_entries != len {
            return Err(invalid("X-tree leaves do not hold the recorded number of entries"));
        }
        Ok(XTree {
            dim,
            nodes: Nodes(nodes.into_iter().map(Arc::new).collect()),
            root,
            leaf_cap,
            dir_cap,
            max_overlap,
            store: NodeStore::Shared(store),
            len,
        })
    }

    /// An empty node with room for one page of entries and the one
    /// more that overflows it.
    fn new_node(&self, leaf: bool) -> Node {
        Node::new(leaf, self.dim, self.one_page_cap(leaf) + 1)
    }

    /// Append `node` with a freshly allocated page span.
    fn add_node(&mut self, node: Node) -> usize {
        let idx = self.nodes.len();
        self.nodes.push(node);
        self.place_node(idx);
        idx
    }

    /// (Re)allocate a node's page span after its page count changed.
    /// Superseded spans are simply abandoned in the store — only
    /// [`total_pages`](Self::total_pages) reflects the live tree size.
    fn place_node(&mut self, node: usize) {
        let pages = self.nodes[node].pages as u64;
        self.nodes[node].first_page = self.store.allocate(pages);
    }

    pub fn height(&self) -> usize {
        let mut h = 1;
        let mut n = self.root;
        while !self.nodes[n].leaf {
            h += 1;
            n = self.nodes[n].children[0];
        }
        h
    }

    fn one_page_cap(&self, leaf: bool) -> usize {
        if leaf {
            self.leaf_cap
        } else {
            self.dir_cap
        }
    }

    fn capacity(&self, node: usize) -> usize {
        let n = &self.nodes[node];
        self.one_page_cap(n.leaf) * n.pages
    }

    /// Bulk-load with Sort-Tile-Recursive packing (Leutenegger, Lopez &
    /// Edgington, ICDE'97): the points are sorted on the first axis and
    /// cut into ⌈leaves^(1/d)⌉ slabs for the `d` axes not yet sorted,
    /// each slab recursively on the next axis, over all `dim` axes.
    /// Every slab is a whole number of leaves, so a leaf never straddles
    /// two slabs. The order is then chunked into full leaves and the
    /// directory is built bottom-up from full nodes: every node but the
    /// last of its level is full, the height is the least that holds
    /// the points, and no node is a supernode — a packed tree only grows
    /// supernodes from later inserts. Ids are the input positions.
    pub fn bulk_load(dim: usize, points: &[Vec<f64>]) -> Self {
        let mut tree = XTree::new(dim);
        if points.is_empty() {
            return tree;
        }
        fn str_sort(points: &[Vec<f64>], idx: &mut [usize], axis: usize, dim: usize, cap: usize) {
            if idx.len() <= cap || axis == dim {
                return;
            }
            idx.sort_by(|&a, &b| points[a][axis].total_cmp(&points[b][axis]));
            let leaves = idx.len().div_ceil(cap);
            let slabs = (leaves as f64).powf(1.0 / (dim - axis) as f64).ceil() as usize;
            for slab in idx.chunks_mut(leaves.div_ceil(slabs.max(1)) * cap) {
                str_sort(points, slab, axis + 1, dim, cap);
            }
        }
        let mut order: Vec<usize> = (0..points.len()).collect();
        str_sort(points, &mut order, 0, dim, tree.leaf_cap);

        tree.nodes = Nodes::default();
        tree.store = NodeStore::fresh();
        let mut level: Vec<usize> = Vec::new();
        for chunk in order.chunks(tree.leaf_cap) {
            let mut node = tree.new_node(true);
            for &i in chunk {
                node.push_point(&points[i], i as u64);
            }
            level.push(tree.add_node(node));
        }
        while level.len() > 1 {
            let mut next: Vec<usize> = Vec::new();
            for chunk in level.chunks(tree.dir_cap) {
                let mut node = tree.new_node(false);
                for &c in chunk {
                    let mbr = tree.nodes[c].cover();
                    node.push_child(c, &mbr.min, &mbr.max);
                }
                next.push(tree.add_node(node));
            }
            level = next;
        }
        tree.root = level[0];
        tree.len = points.len();
        tree
    }

    /// Insert a point (build phase: no I/O charged).
    pub fn insert(&mut self, point: &[f64], id: u64) {
        assert_eq!(point.len(), self.dim);
        if let Some(sibling) = self.insert_rec(self.root, point, id) {
            // Root split: new root with the two nodes as children.
            let mut new_root = self.new_node(false);
            for half in [self.root, sibling] {
                let mbr = self.nodes[half].cover();
                new_root.push_child(half, &mbr.min, &mbr.max);
            }
            self.root = self.add_node(new_root);
        }
        self.len += 1;
    }

    /// Insert below `node`; returns the new sibling if `node` split. The
    /// caller owns `node`'s rectangle and updates it from the outcome.
    fn insert_rec(&mut self, node: usize, point: &[f64], id: u64) -> Option<usize> {
        if self.nodes[node].leaf {
            self.nodes[node].push_point(point, id);
        } else {
            let slot = self.choose_subtree(node, point);
            let child = self.nodes[node].children[slot];
            match self.insert_rec(child, point, id) {
                None => {
                    let n = &mut self.nodes[node];
                    for (d, &p) in point.iter().enumerate() {
                        let (lo, hi) = (n.at(slot, 2 * d), n.at(slot, 2 * d + 1));
                        n.lanes[lo] = n.lanes[lo].min(p);
                        n.lanes[hi] = n.lanes[hi].max(p);
                    }
                    return None;
                }
                Some(sibling) => {
                    let kept = self.nodes[child].cover();
                    let moved = self.nodes[sibling].cover();
                    let n = &mut self.nodes[node];
                    n.set_bounds(slot, &kept.min, &kept.max);
                    n.push_child(sibling, &moved.min, &moved.max);
                }
            }
        }
        if self.nodes[node].len() > self.capacity(node) {
            return self.split(node);
        }
        None
    }

    /// Remove the entry `(point, id)` if present; returns whether an
    /// entry was removed. The tree stays query-correct after any
    /// interleaving of inserts and deletes: MBRs are recomputed exactly
    /// along the deletion path, emptied nodes are unlinked from their
    /// parents, supernodes shed pages they no longer need, and a
    /// single-child directory root is collapsed so the height can shrink
    /// back. (No R*-style reinsertion — underfull nodes are legal and
    /// only cost packing, which the epoch layer reclaims on rebuild.)
    pub fn delete(&mut self, point: &[f64], id: u64) -> bool {
        assert_eq!(point.len(), self.dim);
        if self.len == 0 || !self.delete_rec(self.root, point, id) {
            return false;
        }
        self.len -= 1;
        while !self.nodes[self.root].leaf && self.nodes[self.root].children.len() == 1 {
            self.root = self.nodes[self.root].children[0];
        }
        if !self.nodes[self.root].leaf && self.nodes[self.root].children.is_empty() {
            // Every descendant vanished: restart from an empty leaf root.
            self.root = self.add_node(self.new_node(true));
        }
        true
    }

    fn delete_rec(&mut self, node: usize, point: &[f64], id: u64) -> bool {
        let n = &self.nodes[node];
        if n.leaf {
            let Some(pos) = (0..n.ids.len()).find(|&i| n.ids[i] == id && n.holds(i, point)) else {
                return false;
            };
            self.nodes[node].remove_entry(pos);
            self.shrink_node(node);
            return true;
        }
        for slot in 0..n.children.len() {
            let child = self.nodes[node].children[slot];
            if self.nodes[node].holds(slot, point) && self.delete_rec(child, point, id) {
                if self.nodes[child].len() == 0 {
                    self.nodes[node].remove_entry(slot);
                    self.shrink_node(node);
                } else {
                    let kept = self.nodes[child].cover();
                    self.nodes[node].set_bounds(slot, &kept.min, &kept.max);
                }
                return true;
            }
        }
        false
    }

    /// Release supernode pages a node no longer needs after shrinking.
    fn shrink_node(&mut self, node: usize) {
        let n = &self.nodes[node];
        let want = pages_for(n.len(), self.one_page_cap(n.leaf));
        if want < n.pages {
            self.nodes[node].pages = want;
            self.place_node(node);
        }
    }

    /// The entry of directory `node` to descend into: least enlargement,
    /// then least margin. A point no rectangle can take in at a finite
    /// cost (a non-finite coordinate makes every enlargement `∞ − ∞`)
    /// goes to the first child.
    fn choose_subtree(&self, node: usize, point: &[f64]) -> usize {
        let n = &self.nodes[node];
        let mut best = 0;
        let mut best_enl = f64::INFINITY;
        let mut best_margin = f64::INFINITY;
        let blocks = n.lanes.chunks_exact(n.rows * W).zip(n.children.chunks(W));
        for (b, (block, children)) in blocks.enumerate() {
            let (enl, margin) = lanes::enlargement(block, point);
            for (l, (&enl, &margin)) in enl.iter().zip(&margin).enumerate().take(children.len()) {
                if enl < best_enl - 1e-12 || (enl < best_enl + 1e-12 && margin < best_margin) {
                    best = b * W + l;
                    best_enl = enl;
                    best_margin = margin;
                }
            }
        }
        best
    }

    /// R*-style topological split of a node — or supernode growth when
    /// even the best split leaves more than `max_overlap` of the entries
    /// intersecting both halves (the X-tree split policy). For point
    /// entries a crossing requires exact ties on the split axis, so
    /// continuous data still always splits a leaf; clustered or
    /// duplicate-heavy data — which the packed bulk-load shape absorbs by
    /// construction — grows leaf supernodes on the insert path instead
    /// of producing a pair of fully overlapping leaves.
    fn split(&mut self, node: usize) -> Option<usize> {
        let dim = self.dim;
        let leaf = self.nodes[node].leaf;
        let lo = self.nodes[node].gather(0);
        let hi = self.nodes[node].gather(1);
        let cap = self.one_page_cap(leaf);
        let split = choose_split(dim, &lo, &hi, cap);
        if split.crossing > self.max_overlap {
            // Supernode: extend by one page instead of splitting.
            self.nodes[node].pages += 1;
            self.place_node(node);
            return None;
        }
        let mut right = self.new_node(leaf);
        let left = self.new_node(leaf);
        let old = std::mem::replace(&mut self.nodes.0[node], Arc::new(left));
        for (rank, &e) in split.order.iter().enumerate() {
            let half = if rank < split.at { &mut self.nodes[node] } else { &mut right };
            let span = e * dim..(e + 1) * dim;
            if leaf {
                half.push_point(&lo[span], old.ids[e]);
            } else {
                half.push_child(old.children[e], &lo[span.clone()], &hi[span]);
            }
        }
        self.nodes[node].pages = pages_for(self.nodes[node].len(), cap);
        right.pages = pages_for(right.len(), cap);
        self.place_node(node);
        Some(self.add_node(right))
    }

    #[inline]
    fn charge_node(&self, node: usize, ctx: &QueryContext) {
        let n = &self.nodes[node];
        ctx.access(self.store.id(), n.first_page, n.pages as u64);
    }

    /// All `(id, distance)` pairs within `radius` (Euclidean) of `center`.
    pub fn range_query(&self, center: &[f64], radius: f64, ctx: &QueryContext) -> Vec<(u64, f64)> {
        assert_eq!(center.len(), self.dim);
        let mut out = Vec::new();
        if self.len == 0 {
            return out;
        }
        let mut stack = vec![self.root];
        let r2 = radius * radius;
        while let Some(n) = stack.pop() {
            self.charge_node(n, ctx);
            let node = &self.nodes[n];
            let blocks = node.lanes.chunks_exact(node.rows * W);
            if node.leaf {
                ctx.count_distance_evals(node.ids.len() as u64);
                for (block, ids) in blocks.zip(node.ids.chunks(W)) {
                    let d2 = lanes::leaf_dist2(block, center);
                    out.extend(
                        ids.iter()
                            .zip(d2)
                            .filter(|(_, d2)| *d2 <= r2)
                            .map(|(&id, d2)| (id, d2.sqrt())),
                    );
                }
            } else {
                for (block, children) in blocks.zip(node.children.chunks(W)) {
                    let d2 = lanes::child_mindist2(block, center);
                    stack.extend(
                        children.iter().zip(d2).filter(|(_, d2)| *d2 <= r2).map(|(&c, _)| c),
                    );
                }
            }
        }
        out
    }

    /// The `k` nearest neighbors of `center`, sorted by distance.
    pub fn knn(&self, center: &[f64], k: usize, ctx: &QueryContext) -> Vec<(u64, f64)> {
        self.nn_iter(center, ctx).take(k).collect()
    }

    /// Incremental nearest-neighbor ranking (Hjaltason/Samet best-first
    /// traversal) — yields `(id, distance)` in non-decreasing distance
    /// order. This is the ranking primitive required by the optimal
    /// multi-step k-NN algorithm [Seidl & Kriegel, SIGMOD'98]. Node
    /// pages already resident in the context's buffer pool are served
    /// without an I/O charge — sharing one context across subqueries
    /// (e.g. the 48 permutation subqueries of one invariant query,
    /// Section 4.3) models a per-query buffer.
    pub fn nn_iter<'a>(&'a self, center: &'a [f64], ctx: &'a QueryContext) -> NnIter<'a> {
        assert_eq!(center.len(), self.dim);
        let mut heap = BinaryHeap::new();
        if self.len > 0 {
            heap.push(HeapEntry { dist2: 0.0, kind: EntryKind::Node(self.root) });
        }
        NnIter { tree: self, center, ctx, heap, slots: Vec::new() }
    }
}

/// Incremental NN iterator over an [`XTree`].
///
/// The heap is keyed by *squared* distance and holds one entry per
/// unexpanded node and one per expanded leaf that still has points to
/// emit — never one per point. An expanded leaf's squared distances and
/// ids sit in the iterator's scratch; its heap entry carries the
/// smallest distance. Emitting it moves the leaf's last live slot into
/// the emitted one, rescans what is left for the next minimum and
/// re-keys the entry in place; the leaf leaves the heap when its count
/// of live slots reaches zero, whatever the distances were (a NaN is a
/// distance like any other here, emitted once).
pub struct NnIter<'a> {
    tree: &'a XTree,
    center: &'a [f64],
    ctx: &'a QueryContext,
    heap: BinaryHeap<HeapEntry>,
    /// The live points of every expanded leaf, leaf after leaf.
    slots: Vec<Slot>,
}

#[derive(Clone, Copy)]
enum EntryKind {
    /// A node not yet read, keyed by its squared MINDIST.
    Node(usize),
    /// An expanded leaf: its live slots are `start..start + live` of
    /// the scratch, the key is the one at `start + min_at`.
    Leaf { start: usize, live: usize, min_at: usize },
}

struct HeapEntry {
    dist2: f64,
    kind: EntryKind,
}

impl PartialEq for HeapEntry {
    fn eq(&self, o: &Self) -> bool {
        self.cmp(o) == Ordering::Equal
    }
}
impl Eq for HeapEntry {}
impl Ord for HeapEntry {
    fn cmp(&self, o: &Self) -> Ordering {
        o.dist2.total_cmp(&self.dist2)
    }
}
impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, o: &Self) -> Option<Ordering> {
        Some(self.cmp(o))
    }
}

impl NnIter<'_> {
    /// Read node `n` and put what it holds on the heap: its children,
    /// or itself as an expanded leaf.
    fn expand(&mut self, n: usize) {
        let tree = self.tree;
        tree.charge_node(n, self.ctx);
        let node = &tree.nodes[n];
        let blocks = node.lanes.chunks_exact(node.rows * W);
        if node.leaf {
            let live = node.ids.len();
            self.ctx.count_distance_evals(live as u64);
            if live == 0 {
                return;
            }
            let start = self.slots.len();
            for (block, ids) in blocks.zip(node.ids.chunks(W)) {
                let d2 = lanes::leaf_dist2(block, self.center);
                self.slots.extend(ids.iter().zip(d2).map(|(&id, dist2)| Slot { dist2, id }));
            }
            let (min_at, dist2) = lanes::min_scan(&self.slots[start..]);
            self.heap.push(HeapEntry { dist2, kind: EntryKind::Leaf { start, live, min_at } });
        } else {
            for (block, children) in blocks.zip(node.children.chunks(W)) {
                let d2 = lanes::child_mindist2(block, self.center);
                for (&c, dist2) in children.iter().zip(d2) {
                    self.heap.push(HeapEntry { dist2, kind: EntryKind::Node(c) });
                }
            }
        }
    }
}

impl Iterator for NnIter<'_> {
    type Item = (u64, f64);

    fn next(&mut self) -> Option<(u64, f64)> {
        loop {
            let mut top = self.heap.peek_mut()?;
            // `left`: the leaf's live slots once this one is emitted.
            let (start, left, at) = match top.kind {
                EntryKind::Node(n) => {
                    PeekMut::pop(top);
                    self.expand(n);
                    continue;
                }
                EntryKind::Leaf { start, live, min_at } => (start, live - 1, start + min_at),
            };
            let hit = (self.slots[at].id, top.dist2.sqrt());
            if left == 0 {
                PeekMut::pop(top);
            } else {
                self.slots[at] = self.slots[start + left];
                let (min_at, dist2) = lanes::min_scan(&self.slots[start..start + left]);
                *top = HeapEntry { dist2, kind: EntryKind::Leaf { start, live: left, min_at } };
            }
            return Some(hit);
        }
    }
}

fn pages_for(entries: usize, cap: usize) -> usize {
    entries.div_ceil(cap).max(1)
}

/// A chosen split: entries `order[..at]` stay, `order[at..]` move.
struct Split {
    at: usize,
    /// Fraction of the entries that intersect both halves.
    crossing: f64,
    /// The entries sorted along the chosen axis.
    order: Vec<usize>,
}

/// Covers of every prefix and every suffix of one ordering of the entry
/// rectangles: `pre_*[s]` covers `order[..s]`, `suf_*[s]` covers
/// `order[s..]`, each `dim` wide. One pass each way instead of one cover
/// computation per split position.
struct Covers {
    dim: usize,
    pre_min: Vec<f64>,
    pre_max: Vec<f64>,
    suf_min: Vec<f64>,
    suf_max: Vec<f64>,
}

impl Covers {
    fn new(dim: usize, n: usize) -> Self {
        let empty = |v: f64| vec![v; (n + 1) * dim];
        Covers {
            dim,
            pre_min: empty(f64::INFINITY),
            pre_max: empty(f64::NEG_INFINITY),
            suf_min: empty(f64::INFINITY),
            suf_max: empty(f64::NEG_INFINITY),
        }
    }

    fn fill(&mut self, lo: &[f64], hi: &[f64], order: &[usize]) {
        let dim = self.dim;
        for (s, &e) in order.iter().enumerate() {
            for d in 0..dim {
                self.pre_min[(s + 1) * dim + d] = self.pre_min[s * dim + d].min(lo[e * dim + d]);
                self.pre_max[(s + 1) * dim + d] = self.pre_max[s * dim + d].max(hi[e * dim + d]);
            }
        }
        for (s, &e) in order.iter().enumerate().rev() {
            for d in 0..dim {
                self.suf_min[s * dim + d] = self.suf_min[(s + 1) * dim + d].min(lo[e * dim + d]);
                self.suf_max[s * dim + d] = self.suf_max[(s + 1) * dim + d].max(hi[e * dim + d]);
            }
        }
    }

    fn span(&self, s: usize) -> Range<usize> {
        s * self.dim..(s + 1) * self.dim
    }

    /// Margin of the two halves of a split at `s`.
    fn margin(&self, s: usize) -> f64 {
        margin(&self.pre_min[self.span(s)], &self.pre_max[self.span(s)])
            + margin(&self.suf_min[self.span(s)], &self.suf_max[self.span(s)])
    }
}

/// Choose a split for the given entry rectangles (`lo` / `hi`,
/// entry-major, `dim` wide): the axis with minimum total margin over
/// candidate distributions, then the distribution with minimum crossing
/// entries (entries intersecting both halves), tie-broken by margin.
///
/// Prefix covers only grow and suffix covers only shrink as the split
/// position moves right, so an entry meets the left half from some
/// position on and the right half up to some position: two binary
/// searches per entry give the crossing count of every position at once.
fn choose_split(dim: usize, lo: &[f64], hi: &[f64], one_page_cap: usize) -> Split {
    let n = lo.len() / dim;
    let min_fill = ((one_page_cap as f64 * MIN_FILL) as usize).max(1);
    let first = min_fill.min(n - 1);
    let last = n - first;
    debug_assert!(first <= last, "a node over capacity has room for two minimum fills");

    let mut covers = Covers::new(dim, n);
    let mut orders: Vec<usize> = Vec::with_capacity(dim * n);
    let mut best_axis = 0;
    let mut best_axis_margin = f64::INFINITY;
    for axis in 0..dim {
        orders.extend(0..n);
        let order = &mut orders[axis * n..];
        order.sort_by(|&a, &b| {
            lo[a * dim + axis]
                .total_cmp(&lo[b * dim + axis])
                .then_with(|| hi[a * dim + axis].total_cmp(&hi[b * dim + axis]))
        });
        covers.fill(lo, hi, order);
        let mut margin_sum = 0.0;
        for s in first..=last {
            margin_sum += covers.margin(s);
        }
        if margin_sum < best_axis_margin {
            best_axis_margin = margin_sum;
            best_axis = axis;
        }
    }

    let order = &orders[best_axis * n..(best_axis + 1) * n];
    covers.fill(lo, hi, order);
    let positions: Vec<usize> = (first..=last).collect();
    // Entries crossing at `positions[i]`: `crossing[i]` after the
    // running sum below.
    let mut crossing = vec![0isize; positions.len() + 1];
    for e in 0..n {
        let (elo, ehi) = (&lo[e * dim..(e + 1) * dim], &hi[e * dim..(e + 1) * dim]);
        let meets_left = |s: usize| {
            intersects(elo, ehi, &covers.pre_min[covers.span(s)], &covers.pre_max[covers.span(s)])
        };
        let meets_right = |s: usize| {
            intersects(elo, ehi, &covers.suf_min[covers.span(s)], &covers.suf_max[covers.span(s)])
        };
        let from = positions.partition_point(|&s| !meets_left(s));
        let until = positions.partition_point(|&s| meets_right(s));
        if from < until {
            crossing[from] += 1;
            crossing[until] -= 1;
        }
    }
    let mut best_split = first;
    let mut best_cross = usize::MAX;
    let mut best_margin = f64::INFINITY;
    let mut cross = 0isize;
    for (&s, entered) in positions.iter().zip(&crossing) {
        cross += entered;
        let m = covers.margin(s);
        if (cross as usize) < best_cross || (cross as usize == best_cross && m < best_margin) {
            best_cross = cross as usize;
            best_margin = m;
            best_split = s;
        }
    }
    Split { at: best_split, crossing: best_cross as f64 / n as f64, order: order.to_vec() }
}

fn margin(mn: &[f64], mx: &[f64]) -> f64 {
    mn.iter().zip(mx).map(|(a, b)| b - a).sum()
}

fn intersects(amin: &[f64], amax: &[f64], bmin: &[f64], bmax: &[f64]) -> bool {
    amin.iter()
        .zip(amax)
        .zip(bmin.iter().zip(bmax))
        .all(|((alo, ahi), (blo, bhi))| alo <= bhi && ahi >= blo)
}

/// The split evaluation as it was before the prefix and suffix covers:
/// both covers recomputed from scratch for every split position on
/// every axis, every entry tested against both for every position. Kept
/// as the oracle [`choose_split`] must agree with to the bit.
#[cfg(test)]
mod reference {
    use super::{intersects, margin, MIN_FILL};

    pub(super) type Rect = (Vec<f64>, Vec<f64>);

    pub(super) fn by_axis(rects: &[Rect], axis: usize) -> Vec<usize> {
        let mut order: Vec<usize> = (0..rects.len()).collect();
        order.sort_by(|&a, &b| {
            rects[a].0[axis]
                .total_cmp(&rects[b].0[axis])
                .then_with(|| rects[a].1[axis].total_cmp(&rects[b].1[axis]))
        });
        order
    }

    /// `(axis, split_index, crossing_fraction)`.
    pub(super) fn choose_split(rects: &[Rect], one_page_cap: usize) -> (usize, usize, f64) {
        let n_entries = rects.len();
        let dim = rects[0].0.len();
        let min_fill = ((one_page_cap as f64 * MIN_FILL) as usize).max(1);
        let lo = min_fill.min(n_entries - 1);
        let hi = n_entries - lo;

        let mut best_axis = 0;
        let mut best_axis_margin = f64::INFINITY;
        for axis in 0..dim {
            let order = by_axis(rects, axis);
            let mut margin_sum = 0.0;
            for split_at in lo..=hi {
                let (amin, amax) = cover(rects, &order[..split_at]);
                let (bmin, bmax) = cover(rects, &order[split_at..]);
                margin_sum += margin(&amin, &amax) + margin(&bmin, &bmax);
            }
            if margin_sum < best_axis_margin {
                best_axis_margin = margin_sum;
                best_axis = axis;
            }
        }

        let order = by_axis(rects, best_axis);
        let mut best_split = lo;
        let mut best_cross = usize::MAX;
        let mut best_margin = f64::INFINITY;
        for split_at in lo..=hi {
            let (amin, amax) = cover(rects, &order[..split_at]);
            let (bmin, bmax) = cover(rects, &order[split_at..]);
            let cross = rects
                .iter()
                .filter(|(rmin, rmax)| {
                    intersects(rmin, rmax, &amin, &amax) && intersects(rmin, rmax, &bmin, &bmax)
                })
                .count();
            let m = margin(&amin, &amax) + margin(&bmin, &bmax);
            if cross < best_cross || (cross == best_cross && m < best_margin) {
                best_cross = cross;
                best_margin = m;
                best_split = split_at;
            }
        }
        (best_axis, best_split, best_cross as f64 / n_entries as f64)
    }

    fn cover(rects: &[Rect], idx: &[usize]) -> Rect {
        let dim = rects[0].0.len();
        let mut mn = vec![f64::INFINITY; dim];
        let mut mx = vec![f64::NEG_INFINITY; dim];
        for &i in idx {
            for d in 0..dim {
                mn[d] = mn[d].min(rects[i].0[d]);
                mx[d] = mx[d].max(rects[i].1[d]);
            }
        }
        (mn, mx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::prelude::*;

    fn brute_knn(points: &[Vec<f64>], q: &[f64], k: usize) -> Vec<(u64, f64)> {
        let mut all: Vec<(u64, f64)> = points
            .iter()
            .enumerate()
            .map(|(i, p)| {
                let d2: f64 = p.iter().zip(q).map(|(a, b)| (a - b) * (a - b)).sum();
                (i as u64, d2.sqrt())
            })
            .collect();
        all.sort_by(|a, b| a.1.total_cmp(&b.1));
        all.truncate(k);
        all
    }

    fn random_points(n: usize, dim: usize, seed: u64) -> Vec<Vec<f64>> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n).map(|_| (0..dim).map(|_| rng.gen_range(0.0..100.0)).collect()).collect()
    }

    fn build(points: &[Vec<f64>]) -> XTree {
        let mut t = XTree::new(points[0].len());
        for (i, p) in points.iter().enumerate() {
            t.insert(p, i as u64);
        }
        t
    }

    #[test]
    fn empty_tree_queries() {
        let t = XTree::new(3);
        let ctx = QueryContext::ephemeral();
        assert!(t.is_empty());
        assert!(t.range_query(&[0.0, 0.0, 0.0], 10.0, &ctx).is_empty());
        assert!(t.knn(&[0.0, 0.0, 0.0], 5, &ctx).is_empty());
    }

    #[test]
    fn range_query_matches_brute_force() {
        let pts = random_points(500, 3, 7);
        let t = build(&pts);
        assert_eq!(t.len(), 500);
        for q in random_points(10, 3, 8) {
            for radius in [5.0, 20.0, 60.0] {
                let ctx = QueryContext::ephemeral();
                let mut got: Vec<u64> =
                    t.range_query(&q, radius, &ctx).into_iter().map(|(id, _)| id).collect();
                got.sort_unstable();
                let mut want: Vec<u64> = pts
                    .iter()
                    .enumerate()
                    .filter(|(_, p)| {
                        p.iter().zip(&q).map(|(a, b)| (a - b) * (a - b)).sum::<f64>()
                            <= radius * radius
                    })
                    .map(|(i, _)| i as u64)
                    .collect();
                want.sort_unstable();
                assert_eq!(got, want, "radius {radius}");
            }
        }
    }

    #[test]
    fn knn_matches_brute_force() {
        let pts = random_points(400, 4, 42);
        let t = build(&pts);
        for q in random_points(5, 4, 43) {
            let ctx = QueryContext::ephemeral();
            let got = t.knn(&q, 10, &ctx);
            let want = brute_knn(&pts, &q, 10);
            assert_eq!(got.len(), 10);
            for (g, w) in got.iter().zip(&want) {
                assert!((g.1 - w.1).abs() < 1e-9, "distance mismatch {g:?} vs {w:?}");
            }
        }
    }

    #[test]
    fn nn_iter_is_sorted_and_complete() {
        let pts = random_points(300, 2, 5);
        let t = build(&pts);
        let q = [50.0, 50.0];
        let ctx = QueryContext::ephemeral();
        let hits: Vec<(u64, f64)> = t.nn_iter(&q, &ctx).collect();
        assert_eq!(hits.len(), 300);
        for w in hits.windows(2) {
            assert!(w[0].1 <= w[1].1 + 1e-12);
        }
        let mut ids: Vec<u64> = hits.iter().map(|h| h.0).collect();
        ids.sort_unstable();
        assert_eq!(ids, (0..300).collect::<Vec<u64>>());
    }

    #[test]
    fn io_is_charged_per_query() {
        let pts = random_points(2000, 2, 11);
        let t = build(&pts);
        let ctx = QueryContext::ephemeral();
        let _ = t.knn(&[50.0, 50.0], 10, &ctx);
        let pages_knn = ctx.stats(std::time::Duration::ZERO).io.pages;
        assert!(pages_knn > 0);
        // A selective query must touch far fewer pages than the tree has.
        assert!(
            (pages_knn as usize) < t.total_pages() / 2,
            "kNN touched {pages_knn} of {} pages",
            t.total_pages()
        );
    }

    #[test]
    fn repeat_query_through_shared_pool_is_free() {
        let pts = random_points(1000, 3, 12);
        let t = build(&pts);
        let pool = vsim_store::BufferPool::unbounded();
        let cold = QueryContext::with_pool(std::sync::Arc::clone(&pool));
        let _ = t.knn(&pts[0], 10, &cold);
        assert!(cold.stats(std::time::Duration::ZERO).io.pages > 0);
        let warm = QueryContext::with_pool(pool);
        let _ = t.knn(&pts[0], 10, &warm);
        let s = warm.stats(std::time::Duration::ZERO);
        assert_eq!(s.io.pages, 0, "warm pool: identical query re-reads no pages");
        assert!(s.cache.hits > 0);
    }

    #[test]
    fn high_dimensions_degrade_to_supernodes() {
        // 6-d tree stays selective; 42-d tree grows supernodes and reads
        // a large fraction of its pages per query (the Table 2 effect).
        let n = 1500;
        let low = random_points(n, 6, 1);
        let high = random_points(n, 42, 2);
        let t_low = build(&low);
        let t_high = build(&high);

        let c_low = QueryContext::ephemeral();
        let c_high = QueryContext::ephemeral();
        let _ = t_low.knn(&low[0], 10, &c_low);
        let _ = t_high.knn(&high[0], 10, &c_high);
        let frac_low =
            c_low.stats(std::time::Duration::ZERO).io.pages as f64 / t_low.total_pages() as f64;
        let frac_high =
            c_high.stats(std::time::Duration::ZERO).io.pages as f64 / t_high.total_pages() as f64;
        assert!(
            frac_high > 2.0 * frac_low,
            "high-d page fraction {frac_high:.2} vs low-d {frac_low:.2}"
        );
    }

    #[test]
    fn duplicate_points_are_retrievable() {
        let mut t = XTree::new(2);
        for i in 0..50 {
            t.insert(&[1.0, 1.0], i);
        }
        let ctx = QueryContext::ephemeral();
        let hits = t.range_query(&[1.0, 1.0], 0.0, &ctx);
        assert_eq!(hits.len(), 50);
    }

    #[test]
    fn bulk_load_queries_match_insert_build() {
        let pts = random_points(800, 5, 31);
        let inserted = build(&pts);
        let bulk = XTree::bulk_load(5, &pts);
        assert_eq!(bulk.len(), 800);
        for q in random_points(5, 5, 32) {
            let ctx = QueryContext::ephemeral();
            let a = inserted.knn(&q, 10, &ctx);
            let b = bulk.knn(&q, 10, &ctx);
            assert_eq!(a.len(), b.len());
            // The cursor computes each distance in the same order of
            // operations whatever tree holds the point.
            for (x, y) in a.iter().zip(&b) {
                assert_eq!(x.1.to_bits(), y.1.to_bits(), "{x:?} vs {y:?}");
            }
            let mut ra: Vec<u64> =
                inserted.range_query(&q, 25.0, &ctx).into_iter().map(|(i, _)| i).collect();
            let mut rb: Vec<u64> =
                bulk.range_query(&q, 25.0, &ctx).into_iter().map(|(i, _)| i).collect();
            ra.sort_unstable();
            rb.sort_unstable();
            assert_eq!(ra, rb);
        }
    }

    /// Tight clusters on a coarse grid: many exact coordinate ties, so
    /// insert-path splits see high crossing fractions — the shape where
    /// the insert and bulk-load builds previously diverged (the insert
    /// path forced fully-overlapping leaf pairs instead of supernodes).
    fn clustered_points(n: usize, dim: usize, seed: u64) -> Vec<Vec<f64>> {
        let mut rng = StdRng::seed_from_u64(seed);
        let centers: Vec<Vec<f64>> =
            (0..8).map(|_| (0..dim).map(|_| rng.gen_range(0.0..100.0)).collect()).collect();
        (0..n)
            .map(|i| {
                let c = &centers[i % centers.len()];
                c.iter().map(|&v| v + rng.gen_range(0..3) as f64).collect()
            })
            .collect()
    }

    #[test]
    fn bulk_load_queries_match_insert_build_on_adversarial_clusters() {
        let pts = clustered_points(800, 5, 71);
        let inserted = build(&pts);
        let bulk = XTree::bulk_load(5, &pts);
        assert_eq!(inserted.len(), 800);
        assert!(
            inserted.supernode_count() > 0,
            "clustered ties must drive the insert path into leaf supernodes"
        );
        for q in clustered_points(5, 5, 72) {
            let ctx = QueryContext::ephemeral();
            let a = inserted.knn(&q, 10, &ctx);
            let b = bulk.knn(&q, 10, &ctx);
            assert_eq!(a.len(), b.len());
            // The cursor computes each distance in the same order of
            // operations whatever tree holds the point.
            for (x, y) in a.iter().zip(&b) {
                assert_eq!(x.1.to_bits(), y.1.to_bits(), "{x:?} vs {y:?}");
            }
            let mut ra: Vec<u64> =
                inserted.range_query(&q, 6.0, &ctx).into_iter().map(|(i, _)| i).collect();
            let mut rb: Vec<u64> =
                bulk.range_query(&q, 6.0, &ctx).into_iter().map(|(i, _)| i).collect();
            ra.sort_unstable();
            rb.sort_unstable();
            assert_eq!(ra, rb);
        }
    }

    #[test]
    fn delete_matches_brute_force_after_churn() {
        let pts = random_points(400, 3, 51);
        let mut t = build(&pts);
        // Delete every third point, then reinsert a fresh batch.
        let mut live: Vec<(u64, Vec<f64>)> =
            pts.iter().enumerate().map(|(i, p)| (i as u64, p.clone())).collect();
        for i in (0..400).step_by(3) {
            assert!(t.delete(&pts[i], i as u64), "point {i} must be present");
        }
        live.retain(|(id, _)| id % 3 != 0);
        for (j, p) in random_points(50, 3, 52).into_iter().enumerate() {
            let id = 1000 + j as u64;
            t.insert(&p, id);
            live.push((id, p));
        }
        assert_eq!(t.len(), live.len());
        for q in random_points(5, 3, 53) {
            let ctx = QueryContext::ephemeral();
            let got = t.knn(&q, 10, &ctx);
            let mut want: Vec<(u64, f64)> = live
                .iter()
                .map(|(id, p)| {
                    let d2: f64 = p.iter().zip(&q).map(|(a, b)| (a - b) * (a - b)).sum();
                    (*id, d2.sqrt())
                })
                .collect();
            want.sort_by(|a, b| a.1.total_cmp(&b.1));
            for (g, w) in got.iter().zip(&want) {
                assert!((g.1 - w.1).abs() < 1e-9, "{g:?} vs {w:?}");
            }
            let mut ids: Vec<u64> =
                t.range_query(&q, 30.0, &ctx).into_iter().map(|(id, _)| id).collect();
            ids.sort_unstable();
            let mut want_ids: Vec<u64> = live
                .iter()
                .filter(|(_, p)| {
                    p.iter().zip(&q).map(|(a, b)| (a - b) * (a - b)).sum::<f64>() <= 900.0
                })
                .map(|(id, _)| *id)
                .collect();
            want_ids.sort_unstable();
            assert_eq!(ids, want_ids);
        }
    }

    #[test]
    fn delete_to_empty_then_reinsert() {
        let pts = random_points(60, 2, 55);
        let mut t = build(&pts);
        assert!(!t.delete(&[1234.0, 0.0], 0), "absent point");
        assert!(!t.delete(&pts[1], 999), "wrong id");
        for (i, p) in pts.iter().enumerate() {
            assert!(t.delete(p, i as u64));
        }
        assert!(t.is_empty());
        let ctx = QueryContext::ephemeral();
        assert!(t.knn(&[50.0, 50.0], 5, &ctx).is_empty());
        assert!(t.range_query(&[50.0, 50.0], 100.0, &ctx).is_empty());
        for (i, p) in pts.iter().enumerate() {
            t.insert(p, i as u64);
        }
        assert_eq!(t.len(), 60);
        let hits = t.knn(&pts[0], 1, &ctx);
        assert_eq!(hits[0].0, 0);
    }

    #[test]
    fn delete_shrinks_leaf_supernodes() {
        // Enough duplicates to overflow a dim-2 leaf (cap 170) into a
        // supernode, then delete most of them: pages must come back.
        let mut t = XTree::new(2);
        for i in 0..400 {
            t.insert(&[1.0, 1.0], i);
        }
        assert!(t.supernode_count() > 0, "duplicates must form a leaf supernode");
        let before = t.total_pages();
        for i in 0..390 {
            assert!(t.delete(&[1.0, 1.0], i));
        }
        assert_eq!(t.len(), 10);
        assert!(t.total_pages() < before, "supernode pages must shrink after deletes");
        let ctx = QueryContext::ephemeral();
        assert_eq!(t.range_query(&[1.0, 1.0], 0.0, &ctx).len(), 10);
    }

    #[test]
    fn bulk_load_is_better_packed() {
        let pts = random_points(3000, 2, 33);
        let inserted = build(&pts);
        let bulk = XTree::bulk_load(2, &pts);
        assert!(
            bulk.total_pages() <= inserted.total_pages(),
            "bulk {} pages vs inserted {}",
            bulk.total_pages(),
            inserted.total_pages()
        );
        assert_eq!(bulk.supernode_count(), 0);
        // Packed tree answers selective queries with fewer page reads.
        let ctx = QueryContext::ephemeral();
        let _ = bulk.knn(&pts[0], 10, &ctx);
        let pages = ctx.stats(std::time::Duration::ZERO).io.pages;
        assert!((pages as usize) < bulk.total_pages() / 4);
    }

    /// The packed shape, level by level from the root: every node but
    /// the last of its level holds a full page of entries, all leaves
    /// sit on one level and there are ⌈n / leaf_cap⌉ of them, no node is
    /// a supernode, and the height is the least that holds `n` points.
    #[test]
    fn bulk_load_packs_full_nodes_at_the_least_height() {
        let cases = [(1, 6), (73, 6), (74, 6), (5_000, 6), (50_000, 6), (20_000, 2), (3_000, 42)];
        for (n, dim) in cases {
            let pts = random_points(n, dim, n as u64);
            let t = XTree::bulk_load(dim, &pts);
            assert_eq!(t.supernode_count(), 0, "n {n} dim {dim}");
            let (mut level, mut height) = (vec![t.root], 0);
            while !level.is_empty() {
                height += 1;
                let leaf = t.nodes[level[0]].leaf;
                for (j, &node) in level.iter().enumerate() {
                    let node = &t.nodes[node];
                    assert_eq!(node.leaf, leaf, "n {n} dim {dim}: leaves on two levels");
                    let cap = t.one_page_cap(leaf);
                    if j + 1 < level.len() {
                        assert_eq!(node.len(), cap, "n {n} dim {dim} level {height} node {j}");
                    } else {
                        assert!((1..=cap).contains(&node.len()), "n {n} dim {dim}: last node");
                    }
                }
                if leaf {
                    assert_eq!(level.len(), n.div_ceil(t.leaf_cap), "n {n} dim {dim}: leaves");
                }
                level = level.iter().flat_map(|&c| t.nodes[c].children.clone()).collect();
            }
            assert_eq!(height, t.height());
            let holds = |h: u32| t.leaf_cap * t.dir_cap.pow(h - 1) >= n;
            let h = height as u32;
            assert!(holds(h) && (h == 1 || !holds(h - 1)), "n {n} dim {dim}: height {h}");
            let mut ids = t.leaf_order();
            ids.sort_unstable();
            assert_eq!(ids, (0..n as u64).collect::<Vec<_>>(), "n {n} dim {dim}");
        }
    }

    /// Slabs are cut in whole leaves, so no leaf straddles two: on
    /// uniform 2-d points (118 leaves, 11 x-slabs of 11 leaves each,
    /// the last one short) every leaf spans about a slab's share of y. A
    /// leaf that took the top of one x-slab and the bottom of the next
    /// would span nearly all of it.
    #[test]
    fn bulk_load_never_cuts_a_leaf_across_two_slabs() {
        let t = XTree::bulk_load(2, &random_points(20_000, 2, 35));
        assert_eq!(t.nodes.iter().filter(|n| n.leaf).count(), 118);
        for leaf in t.nodes.iter().filter(|n| n.leaf) {
            let mbr = leaf.cover();
            let (lo, hi) = (mbr.min[1], mbr.max[1]);
            assert!(hi - lo < 25.0, "a leaf spans y {lo}..{hi}");
        }
    }

    #[test]
    fn bulk_load_empty_and_tiny() {
        let empty = XTree::bulk_load(3, &[]);
        assert!(empty.is_empty());
        let one = XTree::bulk_load(3, &[vec![1.0, 2.0, 3.0]]);
        assert_eq!(one.len(), 1);
        let ctx = QueryContext::ephemeral();
        assert_eq!(one.knn(&[0.0, 0.0, 0.0], 1, &ctx)[0].0, 0);
    }

    #[test]
    fn save_load_round_trips_with_identical_queries_and_charging() {
        let pts = random_points(600, 4, 21);
        let t = build(&pts);
        let target: Arc<dyn PageStore> = Arc::new(vsim_store::InMemoryPageStore::new());
        let handle = t.save_to(target.as_ref()).unwrap();
        let back = XTree::load_from(Arc::clone(&target), handle.first).unwrap();
        assert_eq!(back.len(), t.len());
        assert_eq!(back.total_pages(), t.total_pages());
        for q in random_points(5, 4, 22) {
            let (ca, cb) = (QueryContext::ephemeral(), QueryContext::ephemeral());
            let a = t.knn(&q, 10, &ca);
            let b = back.knn(&q, 10, &cb);
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
        // Reopening must not have allocated anything beyond the save.
        let after_save = target.page_count();
        let again = XTree::load_from(Arc::clone(&target), handle.first).unwrap();
        assert_eq!(target.page_count(), after_save, "load allocates no pages");
        assert_eq!(again.total_pages(), t.total_pages());
    }

    #[test]
    fn leaf_order_names_every_id_once_leaf_by_leaf() {
        // Insert-built, churned and bulk-loaded trees of height 3: the
        // order is a permutation of the stored ids, it is the same for
        // the same tree reopened, and the points of one leaf are
        // contiguous in it — a pull's leaf is a run of the order.
        let pts = random_points(20_000, 2, 31);
        let mut churned = build(&pts);
        for (i, p) in pts.iter().enumerate().take(1500) {
            assert!(churned.delete(p, i as u64));
        }
        for tree in [build(&pts), churned, XTree::bulk_load(2, &pts)] {
            assert!(tree.height() >= 3);
            let order = tree.leaf_order();
            let mut sorted = order.clone();
            sorted.sort_unstable();
            let first = (pts.len() - tree.len()) as u64;
            assert_eq!(sorted, (first..pts.len() as u64).collect::<Vec<_>>());
            let mut at = vec![0; pts.len()];
            for (slot, &id) in order.iter().enumerate() {
                at[id as usize] = slot;
            }
            for leaf in tree.nodes.iter().filter(|n| n.leaf) {
                for (j, &id) in leaf.ids.iter().enumerate() {
                    assert_eq!(at[id as usize], at[leaf.ids[0] as usize] + j, "a leaf is a run");
                }
            }
            let target: Arc<dyn PageStore> = Arc::new(vsim_store::InMemoryPageStore::new());
            let handle = tree.save_to(target.as_ref()).unwrap();
            assert_eq!(XTree::load_from(target, handle.first).unwrap().leaf_order(), order);
        }
        assert!(XTree::new(3).leaf_order().is_empty());
    }

    #[test]
    fn loaded_tree_accepts_inserts_from_the_shared_store() {
        let pts = random_points(200, 3, 23);
        let t = build(&pts);
        let target: Arc<dyn PageStore> = Arc::new(vsim_store::InMemoryPageStore::new());
        let handle = t.save_to(target.as_ref()).unwrap();
        let mut back = XTree::load_from(target, handle.first).unwrap();
        back.insert(&[1.0, 2.0, 3.0], 999);
        assert_eq!(back.len(), 201);
        let ctx = QueryContext::ephemeral();
        assert_eq!(back.knn(&[1.0, 2.0, 3.0], 1, &ctx)[0].0, 999);
    }

    #[test]
    fn corrupted_tree_stream_is_rejected() {
        let pts = random_points(100, 2, 24);
        let t = build(&pts);
        let target: Arc<dyn PageStore> = Arc::new(vsim_store::InMemoryPageStore::new());
        let handle = t.save_to(target.as_ref()).unwrap();
        target.write_page(handle.first, &[0u8; PAGE_SIZE]).unwrap();
        let err = XTree::load_from(target, handle.first).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    }

    fn meta_checksum(t: &XTree) -> u64 {
        let target = vsim_store::InMemoryPageStore::new();
        let handle = t.save_to(&target).unwrap();
        let mut meta = Vec::new();
        PageStreamReader::open(&target, handle.first).unwrap().read_to_end(&mut meta).unwrap();
        vsim_store::checksum(&meta)
    }

    /// The constants are what the commit before the lane layout wrote
    /// for the same seeded histories (PR 19 measured them there). The
    /// stream holds every node's rectangle, page count and span, the
    /// points and ids in entry order and the child links, so one equal
    /// checksum says the rewrite chose the same subtrees and the same
    /// splits, grew the same supernodes, kept entry order through
    /// deletes (a shift, not a swap-remove) and left the format alone.
    #[test]
    fn insert_and_churn_histories_save_the_bytes_they_saved_before_the_lane_layout() {
        let mut pts = random_points(4000, 6, 1903);
        pts.extend(clustered_points(1000, 6, 1904));
        let mut t = build(&pts);
        assert!(t.supernode_count() > 0, "the history must cover supernode growth");
        assert_eq!(meta_checksum(&t), 0xce8d_e878_36ab_3de0, "5 000-point 6-d insert build");
        for (i, p) in random_points(1000, 6, 1905).iter().enumerate() {
            assert!(t.delete(&pts[5 * i], 5 * i as u64));
            t.insert(p, 5000 + i as u64);
        }
        assert_eq!(meta_checksum(&t), 0xf168_d67d_bb95_4505, "after 1 000 deletes + 1 000 inserts");
        // Height 3 through a successful directory split, which 6-d
        // data turns into a root supernode instead.
        let t = build(&random_points(20_000, 2, 1906));
        assert_eq!((t.height(), t.supernode_count()), (3, 0));
        assert_eq!(meta_checksum(&t), 0xffcd_caaa_c2dc_bfa1, "20 000-point 2-d insert build");
    }

    /// What a snapshot answers and saves is settled when it is taken:
    /// splits, supernode growth, deletes that empty nodes and collapse
    /// the root, all on the origin, leave its saved bytes and its
    /// ranking alone — and the other way round.
    #[test]
    fn a_snapshot_is_not_moved_by_writes_to_its_origin() {
        let mut pts = clustered_points(800, 5, 71);
        pts.extend(random_points(1400, 5, 61));
        let mut t = build(&pts[..300]);
        // The saved bytes, and the ranking bit for bit.
        let reads = |t: &XTree| -> (u64, Vec<(u64, u64)>) {
            let ctx = QueryContext::ephemeral();
            let ranking = t.nn_iter(&[50.0; 5], &ctx).map(|(id, d)| (id, d.to_bits())).collect();
            (meta_checksum(t), ranking)
        };
        let mut taken = Vec::new();
        let mut take = |t: &XTree| taken.push((t.snapshot().unwrap(), reads(t)));

        take(&t);
        let (nodes, supernodes) = (t.nodes.len(), t.supernode_count());
        for (i, p) in pts.iter().enumerate().skip(300) {
            t.insert(p, i as u64);
        }
        assert!(t.nodes.len() > nodes, "the inserts must split");
        assert!(t.supernode_count() > supernodes, "the clustered inserts must grow a supernode");
        take(&t);
        let height = t.height();
        for (i, p) in pts.iter().enumerate().skip(1) {
            assert!(t.delete(p, i as u64));
        }
        assert!(t.height() < height, "the deletes must collapse the root");
        take(&t);
        assert!(t.delete(&pts[0], 0) && t.is_empty());
        t.insert(&pts[1], 1);

        for (at, (snapshot, then)) in taken.iter().enumerate() {
            assert_eq!(&reads(snapshot), then, "snapshot {at}");
        }
        // A snapshot is a tree like any other: writing to it copies its
        // nodes and leaves the later snapshots' alone.
        let (first, rest) = taken.split_first_mut().unwrap();
        for (i, p) in pts.iter().enumerate().take(150) {
            assert!(first.0.delete(p, i as u64));
        }
        assert_eq!(first.0.len(), 150);
        for (snapshot, then) in rest.iter() {
            assert_eq!(&reads(snapshot), then);
        }
    }

    /// A flat publish, as a count: a round of 150 inserts and
    /// 150 deletes on a tree a snapshot shares copies one leaf per
    /// operation at most, the few directory nodes above them and what
    /// its splits add — the same bound at ten times the points.
    #[test]
    fn a_round_copies_the_nodes_it_writes_however_many_there_are() {
        const ROUND: usize = 150;
        for n in [2_000, 20_000] {
            let pts = random_points(n + ROUND, 6, 77);
            let mut t = build(&pts[..n]);
            let snapshot = t.snapshot().unwrap();
            assert_eq!(t.unshared_nodes(&snapshot), 0);
            for (i, p) in pts.iter().enumerate().skip(n) {
                t.insert(p, i as u64);
            }
            for i in (0..n).step_by(n / ROUND).take(ROUND) {
                assert!(t.delete(&pts[i], i as u64));
            }
            let copied = t.unshared_nodes(&snapshot);
            assert!(copied <= 2 * ROUND + 16, "n = {n}: {copied} of {} nodes", t.nodes.len());
            // The next round pays again only for what it writes: nobody
            // shares the copies.
            drop(snapshot);
            let snapshot = t.snapshot().unwrap();
            t.insert(&pts[0], 0);
            assert!(t.unshared_nodes(&snapshot) <= t.height() + 1);
        }
    }

    /// Same axis, same position, same crossing fraction as the
    /// quadratic evaluation, on the shapes that decide differently:
    /// continuous rectangles, rectangles on a coarse grid (ties in the
    /// sort keys, the margins and the crossing counts), point entries,
    /// and the 42-d rectangles of a one-vector directory.
    #[test]
    fn linear_split_evaluation_chooses_what_the_quadratic_one_chose() {
        let mut rng = StdRng::seed_from_u64(404);
        for case in 0..300 {
            let dim = [2, 3, 6, 42][case % 4];
            let grid = case % 3 == 1;
            let points = case % 5 == 2;
            let cap = rng.gen_range(4..60usize);
            let n = cap + 1 + if case % 7 == 0 { rng.gen_range(0..3 * cap) } else { 0 };
            let coord = |rng: &mut StdRng| {
                if grid {
                    rng.gen_range(0..4) as f64
                } else {
                    rng.gen_range(0.0..10.0)
                }
            };
            let rects: Vec<reference::Rect> = (0..n)
                .map(|_| {
                    let lo: Vec<f64> = (0..dim).map(|_| coord(&mut rng)).collect();
                    let hi = if points {
                        lo.clone()
                    } else {
                        lo.iter().map(|&v| v + coord(&mut rng) * 0.3).collect()
                    };
                    (lo, hi)
                })
                .collect();
            let flat = |which: fn(&reference::Rect) -> &Vec<f64>| -> Vec<f64> {
                rects.iter().flat_map(|r| which(r).iter().copied()).collect()
            };
            let got = choose_split(dim, &flat(|r| &r.0), &flat(|r| &r.1), cap);
            let (axis, at, crossing) = reference::choose_split(&rects, cap);
            assert_eq!(
                (got.at, got.crossing.to_bits()),
                (at, crossing.to_bits()),
                "case {case}: dim {dim}, {n} entries over a page of {cap}"
            );
            assert_eq!(got.order, reference::by_axis(&rects, axis), "case {case}: axis {axis}");
        }
    }

    /// HEAD panicked here: with a non-finite coordinate no child has a
    /// finite enlargement (`∞ − ∞` is NaN and loses every `<`), the
    /// subtree choice came back as `usize::MAX` and indexed the nodes.
    #[test]
    fn non_finite_coordinates_insert_past_a_directory_and_stream_once() {
        for odd in [f64::INFINITY, f64::NEG_INFINITY, f64::NAN, -0.0] {
            let pts: Vec<[f64; 2]> =
                (0..300).map(|i| [i as f64, if i % 7 == 0 { odd } else { 1.0 }]).collect();
            let mut t = XTree::new(2);
            for (i, p) in pts.iter().enumerate() {
                t.insert(p, i as u64);
            }
            assert!(t.height() >= 2, "300 2-d points overflow one leaf");
            let ctx = QueryContext::ephemeral();
            let mut ids: Vec<u64> = t.nn_iter(&[150.0, 1.0], &ctx).map(|(id, _)| id).collect();
            ids.sort_unstable();
            assert_eq!(ids, (0..300).collect::<Vec<u64>>(), "coordinate {odd}");
            // HEAD could not delete a NaN point (it equals nothing, itself
            // included) and the index tombstoned its record all the same.
            assert!(!t.delete(&[0.0, 1.0], 0), "point 0 has coordinate {odd}, not 1");
            for (i, p) in pts.iter().enumerate().filter(|(i, _)| i % 7 == 0) {
                assert!(t.delete(p, i as u64), "point {i} with coordinate {odd}");
            }
            assert_eq!(t.len(), 300 - 43);
            let mut ids: Vec<u64> = t.nn_iter(&[150.0, 1.0], &ctx).map(|(id, _)| id).collect();
            ids.sort_unstable();
            assert_eq!(ids, (0..300).filter(|i| i % 7 != 0).collect::<Vec<u64>>());
        }
    }

    /// One node of a hand-written stream: 1-d, so a point is one value.
    struct RawNode {
        leaf: u64,
        pages: u64,
        first_page: u64,
        points: Vec<f64>,
        children: Vec<u64>,
    }

    fn raw_leaf(points: &[f64]) -> RawNode {
        RawNode { leaf: 1, pages: 1, first_page: 0, points: points.to_vec(), children: vec![] }
    }

    fn raw_dir(children: &[u64]) -> RawNode {
        RawNode { leaf: 0, pages: 1, first_page: 0, points: vec![], children: children.to_vec() }
    }

    /// Write `nodes` as an X-tree stream the way `save_to` lays it out
    /// and try to open it.
    fn load_raw(root: u64, len: u64, nodes: &[RawNode]) -> io::Result<XTree> {
        let target: Arc<dyn PageStore> = Arc::new(vsim_store::InMemoryPageStore::new());
        target.allocate(4).unwrap();
        let mut meta = Vec::new();
        for v in [XTREE_TAG, 1, root, len, 255, 170] {
            put_u64(&mut meta, v);
        }
        put_f64(&mut meta, 0.2);
        put_u64(&mut meta, nodes.len() as u64);
        for n in nodes {
            for v in [n.leaf, n.pages, n.first_page] {
                put_u64(&mut meta, v);
            }
            put_f64(&mut meta, 0.0);
            put_f64(&mut meta, 9.0);
            put_u64(&mut meta, n.points.len() as u64);
            for &p in &n.points {
                put_f64(&mut meta, p);
            }
            for id in 0..n.points.len() as u64 {
                put_u64(&mut meta, id);
            }
            put_u64(&mut meta, n.children.len() as u64);
            for &c in &n.children {
                put_u64(&mut meta, c);
            }
        }
        let mut w = PageStreamWriter::new(target.as_ref());
        w.write_all(&meta)?;
        let handle = w.finish()?;
        XTree::load_from(target, handle.first)
    }

    #[test]
    fn a_stream_that_is_not_a_tree_of_the_recorded_size_is_rejected() {
        let two_leaves = || vec![raw_dir(&[1, 2]), raw_leaf(&[1.0, 2.0]), raw_leaf(&[3.0])];
        let t = load_raw(0, 3, &two_leaves()).unwrap();
        assert_eq!(t.knn(&[2.9], 3, &QueryContext::ephemeral()).len(), 3);
        // Nodes the root does not reach are what deletes leave behind.
        let mut with_garbage = two_leaves();
        with_garbage.push(raw_dir(&[0]));
        assert_eq!(load_raw(0, 3, &with_garbage).unwrap().len(), 3);

        let rejected = |what: &str, root: u64, len: u64, nodes: &[RawNode]| {
            let err = load_raw(root, len, nodes).expect_err(what);
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{what}: {err}");
        };
        // HEAD looped forever in `nn_iter` on the first two and emitted
        // ids twice on the next two.
        rejected("a node that is its own child", 0, 0, &[raw_dir(&[0])]);
        rejected("a cycle of two", 0, 1, &[raw_dir(&[1]), raw_dir(&[0, 2]), raw_leaf(&[1.0])]);
        rejected("one child linked twice", 0, 2, &[raw_dir(&[1, 1]), raw_leaf(&[1.0])]);
        rejected(
            "a leaf under two parents",
            0,
            2,
            &[raw_dir(&[1, 2]), raw_dir(&[3]), raw_dir(&[3]), raw_leaf(&[1.0])],
        );
        let mut leaf_with_children = two_leaves();
        leaf_with_children[2].children = vec![1];
        rejected("a leaf with children", 0, 3, &leaf_with_children);
        let mut dir_with_points = two_leaves();
        dir_with_points[0].points = vec![5.0];
        rejected("a directory with points", 0, 3, &dir_with_points);
        rejected("more entries recorded than held", 0, 4, &two_leaves());
        rejected("fewer entries recorded than held", 0, 2, &two_leaves());
        // HEAD: `first_page + pages` overflowed, a panic in debug builds.
        let mut span_overflow = two_leaves();
        span_overflow[1].first_page = u64::MAX;
        span_overflow[1].pages = 2;
        rejected("a span that wraps around", 0, 3, &span_overflow);
        let mut span_outside = two_leaves();
        span_outside[1].first_page = 1 << 40;
        rejected("a span past the store", 0, 3, &span_outside);
    }

    #[test]
    fn tree_height_grows_logarithmically() {
        let pts = random_points(3000, 2, 3);
        let t = build(&pts);
        assert!(t.height() >= 2);
        assert!(t.height() <= 6, "height {} too large for 3000 points", t.height());
    }
}
