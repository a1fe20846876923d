//! A cost-based access-path planner for multi-step queries.
//!
//! The experiment binaries used to hard-code which access path answers
//! a query. The planner replaces that choice with a small Selinger-style
//! cost comparison: for each [`AccessPath`] it estimates the simulated
//! I/O of one query from the [`CostModel`] page/byte constants and a
//! handful of [`DatasetStats`], and picks the cheapest. The estimates
//! are deliberately coarse — they only need to rank the paths, not
//! predict absolute times:
//!
//! * **Sequential scan** reads the whole filter file every time:
//!   `pages · c_page + bytes · c_byte`. Unbeatable for tiny files
//!   (one page beats any tree descent), hopeless for large `n`.
//! * **X-tree cursor** descends the directory and touches the leaf
//!   pages holding the candidates. The candidate count is modeled as
//!   `kq · 2^(dim/6)` — selectivity degrades exponentially with
//!   dimensionality (the Table 2 effect that makes the 6k-d one-vector
//!   index read most of its pages).
//!
//! With the paper's constants this ranks: the scan cheapest for `n` of
//! a few dozen and again once `dim` amplifies the X-tree's candidates
//! to the whole file, the X-tree cursor cheapest for large low-d filter
//! files — every index this workspace builds (`dim = 6`).
//!
//! The statistics are read off the index's own structures at plan time
//! ([`FilterRefineIndex::dataset_stats`]: field reads and the X-tree's
//! node walk), so a plan is always of the index it is asked about —
//! a pinned epoch plans for itself, whatever the writer has done since.
//!
//! [`FilterRefineIndex::dataset_stats`]: crate::FilterRefineIndex::dataset_stats

use vsim_index::{Backend, CostModel, IoSnapshot};

/// The access paths a multi-step query can pull candidates from. Both
/// implement the same `CandidateSource` contract, so the choice affects
/// only cost, never results.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessPath {
    /// Best-first MINDIST ranking over the X-tree.
    XTreeCursor,
    /// Full scan of the filter file, sorted by filter distance.
    SeqScan,
}

impl std::fmt::Display for AccessPath {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            AccessPath::XTreeCursor => "xtree_cursor",
            AccessPath::SeqScan => "seq_scan",
        })
    }
}

/// Statistics about one filter layer that the planner costs access
/// paths against.
#[derive(Debug, Clone, Copy)]
pub struct DatasetStats {
    /// Number of indexed objects.
    pub n: usize,
    /// Dimensionality of the filter feature (6 for extended centroids).
    pub dim: usize,
    /// Pages of the flat filter file (the scan path reads all of them).
    pub scan_pages: u64,
    /// Bytes of the flat filter file.
    pub scan_bytes: u64,
    /// Total pages of the X-tree.
    pub xtree_pages: u64,
    /// Height of the X-tree (directory descent cost).
    pub xtree_height: u64,
    /// The medium the filter structures read from. Simulated (memory)
    /// backends are costed with the paper's charged constants; durable
    /// backends with the measured-device constants of
    /// [`CostModel::for_backend`], so an index reopened from a page file
    /// is planned against its actual page costs.
    pub backend: Backend,
}

/// The planner's decision: the chosen path plus the estimated cost of
/// every alternative (milliseconds of simulated I/O), for reporting.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    pub path: AccessPath,
    pub est_ms: [(AccessPath, f64); 2],
}

impl Plan {
    /// Estimated cost of the chosen path.
    pub fn chosen_ms(&self) -> f64 {
        self.est_ms.iter().find(|(p, _)| *p == self.path).map(|(_, c)| *c).unwrap_or(f64::NAN)
    }
}

/// Cost-based access-path chooser.
#[derive(Debug, Clone, Copy, Default)]
pub struct Planner;

impl Planner {
    /// Milliseconds `backend` charges for the I/O: the paper's charged
    /// constants for simulated backends, the measured-device model for
    /// durable ones ([`CostModel::for_backend`]).
    fn ms(&self, backend: Backend, pages: u64, bytes: u64) -> f64 {
        CostModel::for_backend(backend).seconds(IoSnapshot { pages, bytes }) * 1e3
    }

    /// Estimated cost of scanning the whole filter file once.
    fn scan_ms(&self, s: &DatasetStats) -> f64 {
        self.ms(s.backend, s.scan_pages, s.scan_bytes)
    }

    /// Estimated cost of pulling ~`cand` candidates through the X-tree
    /// cursor: the directory descent plus the fraction of leaf pages
    /// the candidates live on. Page-only — the X-tree charges no bytes.
    fn xtree_ms(&self, s: &DatasetStats, cand: f64) -> f64 {
        if s.n == 0 {
            return self.ms(s.backend, s.xtree_height, 0);
        }
        let frac = (cand / s.n as f64).min(1.0);
        let leaf_pages = (frac * s.xtree_pages as f64).ceil() as u64;
        self.ms(s.backend, s.xtree_height + leaf_pages, 0)
    }

    /// Expected candidates a k-NN query must examine on the X-tree:
    /// `kq` amplified exponentially by filter dimensionality.
    fn est_candidates_knn(s: &DatasetStats, kq: usize) -> f64 {
        kq as f64 * 2f64.powf(s.dim as f64 / 6.0)
    }

    /// The cheaper path for ~`cand` X-tree candidates; the X-tree
    /// cursor on a tie.
    fn pick(&self, s: &DatasetStats, cand: f64) -> Plan {
        let (xtree, scan) = (self.xtree_ms(s, cand), self.scan_ms(s));
        let path = if scan.total_cmp(&xtree).is_lt() {
            AccessPath::SeqScan
        } else {
            AccessPath::XTreeCursor
        };
        Plan { path, est_ms: [(AccessPath::XTreeCursor, xtree), (AccessPath::SeqScan, scan)] }
    }

    /// Choose the access path for a `kq`-NN query.
    pub fn plan_knn(&self, s: &DatasetStats, kq: usize) -> Plan {
        self.pick(s, Self::est_candidates_knn(s, kq.max(1)))
    }

    /// Choose the access path for an ε-range query. Without per-query
    /// selectivity statistics the expected candidate count is modeled
    /// as a fixed 2% of the dataset (floored at 10), which preserves
    /// the scan-for-tiny / index-for-large ranking.
    pub fn plan_range(&self, s: &DatasetStats) -> Plan {
        let cand = (s.n as f64 * 0.02).max(10.0);
        self.pick(s, cand * 2f64.powf(s.dim as f64 / 6.0) / 2.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats(n: usize, dim: usize) -> DatasetStats {
        let bytes = (n * dim * 8) as u64;
        let scan_pages = bytes.div_ceil(4096).max(if n > 0 { 1 } else { 0 });
        // Tree size modeled the way the real structure comes out: a
        // leaf entry is a point and an id, leaves 80% full (58 entries
        // at dim 6, 9 at dim 42).
        let per_leaf = (4096 * 4 / 5 / (8 * dim + 8)) as u64;
        let xtree_pages = (n as u64).div_ceil(per_leaf).max(1);
        let height = if n > 400 { 2 } else { 1 };
        DatasetStats {
            n,
            dim,
            scan_pages,
            scan_bytes: bytes,
            xtree_pages,
            xtree_height: height,
            backend: Backend::Memory,
        }
    }

    #[test]
    fn tiny_datasets_scan() {
        let plan = Planner.plan_knn(&stats(30, 6), 10);
        assert_eq!(plan.path, AccessPath::SeqScan, "{:?}", plan.est_ms);
    }

    #[test]
    fn large_low_dim_datasets_use_the_xtree() {
        let plan = Planner.plan_knn(&stats(2000, 6), 10);
        assert_eq!(plan.path, AccessPath::XTreeCursor, "{:?}", plan.est_ms);
        let plan5k = Planner.plan_knn(&stats(5000, 6), 10);
        assert_eq!(plan5k.path, AccessPath::XTreeCursor);
    }

    #[test]
    fn high_dimensionality_abandons_the_xtree() {
        // At 42-d a 10-NN query is modeled as 1280 candidates: all of a
        // 1000-object file, and the tree's pages are more than the flat
        // file's. (With twice the objects the cursor still reads only
        // 0.64 of its leaves and stays cheaper than the scan.)
        let plan = Planner.plan_knn(&stats(1000, 42), 10);
        assert_ne!(plan.path, AccessPath::XTreeCursor, "{:?}", plan.est_ms);
        assert_eq!(Planner.plan_knn(&stats(2000, 42), 10).path, AccessPath::XTreeCursor);
    }

    #[test]
    fn range_planning_follows_the_same_shape() {
        let planner = Planner;
        assert_eq!(planner.plan_range(&stats(30, 6)).path, AccessPath::SeqScan);
        assert_eq!(planner.plan_range(&stats(5000, 6)).path, AccessPath::XTreeCursor);
    }

    #[test]
    fn chosen_ms_reports_the_winning_estimate() {
        let plan = Planner.plan_knn(&stats(2000, 6), 10);
        let min = plan.est_ms.iter().map(|(_, c)| *c).fold(f64::INFINITY, f64::min);
        assert_eq!(plan.chosen_ms(), min);
    }

    #[test]
    fn durable_backends_are_costed_with_measured_constants() {
        let planner = Planner;
        let mem = stats(2000, 6);
        let mut file = mem;
        file.backend = Backend::File;
        let mut mmap = mem;
        mmap.backend = Backend::Mmap;
        // Same shape, vastly cheaper estimates on real devices.
        let (pm, pf, pp) =
            (planner.plan_knn(&mem, 10), planner.plan_knn(&file, 10), planner.plan_knn(&mmap, 10));
        assert!(pf.chosen_ms() < pm.chosen_ms() / 10.0, "{} vs {}", pf.chosen_ms(), pm.chosen_ms());
        assert!(pp.chosen_ms() < pf.chosen_ms(), "{} vs {}", pp.chosen_ms(), pf.chosen_ms());
        // The ranking itself stays sane: a large low-d dataset still
        // prefers the X-tree on every backend.
        assert_eq!(pf.path, AccessPath::XTreeCursor);
        assert_eq!(pp.path, AccessPath::XTreeCursor);
    }

    #[test]
    fn empty_dataset_does_not_panic() {
        // Nothing to scan costs nothing; the X-tree still reads its root.
        let plan = Planner.plan_knn(&stats(0, 6), 10);
        assert_eq!(plan.path, AccessPath::SeqScan, "{:?}", plan.est_ms);
        assert_eq!(plan.chosen_ms(), 0.0);
        assert_eq!(Planner.plan_range(&stats(0, 6)).path, AccessPath::SeqScan);

        // And the plan serves an empty index: no hits, no panic.
        let empty = crate::FilterRefineIndex::build(&[], 6, 4);
        assert_eq!(empty.plan_knn(10).path, AccessPath::SeqScan);
        assert_eq!(empty.plan_range().path, AccessPath::SeqScan);
        let q = [vsim_setdist::VectorSet::from_rows(6, &[&[0.1, 0.2, 0.3, 0.4, 0.5, 0.6]])];
        for query in [crate::Query::knn(&q, 10), crate::Query::range(&q, 1e9)] {
            let (hits, stats) = empty.run(&query);
            assert!(hits.is_empty() && stats.error.is_none(), "{:?}", stats.error);
        }
    }
}
