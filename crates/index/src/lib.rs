#![cfg_attr(not(test), forbid(unsafe_code))]
// The unit tests' counting allocator (`lanes::tests`) is the one
// `unsafe` item, allowed where it stands.
#![cfg_attr(test, deny(unsafe_code, clippy::undocumented_unsafe_blocks))]
// Everything downstream of a page store can see an injected fault, so
// library code here propagates typed errors instead of panicking; the
// CI clippy step (`-D warnings`) turns these into errors.
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]
//! # vsim-index — access methods with simulated I/O accounting
//!
//! The paper's efficiency experiment (Table 2) compares three access
//! paths for 10-NN queries, with I/O *simulated* ("one page access was
//! counted as 8 ms and for the costs of reading one byte we counted
//! 200 ns") because data and indexes fit in RAM. This crate rebuilds
//! that setting on top of `vsim-store`'s layered storage engine: every
//! access method owns a span of pages in an in-memory page store, and
//! queries read those pages through the buffer pool of a per-query
//! [`QueryContext`] — so hit/miss accounting, simulated I/O, and
//! algorithmic counters are all attributed to individual queries.
//!
//! * [`xtree`] — an X-tree [Berchtold, Keim & Kriegel, VLDB'96]:
//!   R*-tree topology plus *supernodes* that grow instead of splitting
//!   when a split would produce high-overlap directory entries. Indexes
//!   the 6-d extended centroids (filter step) and the `6k`-d one-vector
//!   features (whose degradation in high dimensions is exactly what
//!   Table 2 exercises).
//! * [`mtree`] — an M-tree [Ciaccia, Patella & Zezula, VLDB'97] for
//!   metric data, usable directly on vector sets with the minimal
//!   matching distance (Section 4.3 suggests this).
//! * [`storage`] — a paged heap file of vector sets for the refinement
//!   step and the sequential-scan baseline, plus a flat [`PointFile`]
//!   of fixed-dimension filter features.
//! * [`cursor`] — the [`CandidateSource`] candidate-stream abstraction:
//!   every access path exposed as an incremental `(id, filter_dist)`
//!   ranking in nondecreasing order, the contract the optimal
//!   multi-step k-NN engine in `vsim-query` builds on.

//! ```
//! use vsim_index::{QueryContext, XTree};
//!
//! let mut tree = XTree::new(2);
//! for i in 0..100 {
//!     tree.insert(&[i as f64, (i % 10) as f64], i);
//! }
//! let ctx = QueryContext::ephemeral();
//! let hits = tree.knn(&[50.0, 5.0], 3, &ctx);
//! assert_eq!(hits.len(), 3);
//! // Queries charge simulated I/O to their own context.
//! assert!(ctx.stats(std::time::Duration::ZERO).io.pages > 0);
//! ```

pub mod cursor;
mod lanes;
pub mod mtree;
pub mod persist;
mod segvec;
pub mod storage;
pub mod xtree;

pub use cursor::{CandidateSource, Scaled, SortedScan};
pub use mtree::MTree;
pub use persist::PagePayload;
pub use storage::{PointFile, VectorSetStore};
pub use xtree::{NnIter, XTree};
// The storage-engine layer these access methods are built on.
pub use vsim_store::{
    checksum, Backend, BufferPool, CacheCounts, CostModel, Fault, FaultInjectingPageStore,
    FaultPlan, FilePageStore, InMemoryPageStore, IoSnapshot, PageKey, PageStore, PageStreamReader,
    PageStreamWriter, PoolStats, QueryContext, QueryStats, StoreError, StoreErrorKind, StoreId,
    StoreResult, StreamHandle, PAGE_SIZE,
};
