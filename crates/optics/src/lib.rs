// This crate and `vsim-store` are the two with `unsafe`; every block
// states why its requirements hold.
#![deny(clippy::undocumented_unsafe_blocks)]
//! # vsim-optics — density-based hierarchical clustering for model
//! evaluation
//!
//! The paper evaluates similarity models not with cherry-picked k-NN
//! queries but by clustering the *whole* dataset with OPTICS
//! [Ankerst, Breunig, Kriegel & Sander, SIGMOD'99] and inspecting the
//! reachability plot (Section 5.2): valleys are clusters, and a model is
//! good when its valleys correspond to intuitive part families.
//!
//! * [`pairwise`] — the condensed distance matrix, built once per pair
//!   in parallel tiles ([`pairwise_tiled`]).
//! * [`optics::Optics`] — the clustering algorithm, run over that matrix
//!   ([`Optics::run_matrix`]).
//! * [`plot`] — reachability plots: CSV export and ASCII rendering.
//! * [`cluster`] — ε-cut cluster extraction from a cluster ordering
//!   (the "cut at level ε" of Figure 5).
//! * [`eval`] — objective quality scores against ground-truth labels
//!   (our synthetic datasets are labeled, which turns the paper's visual
//!   arguments into measurable ones).

//! ```
//! use vsim_optics::{extract_clusters, pairwise_tiled, Optics};
//!
//! // Two 1-D clusters far apart.
//! let pts: [f64; 6] = [0.0, 0.1, 0.2, 9.0, 9.1, 9.2];
//! let m = pairwise_tiled(pts.len(), 32, || (), |_, i, j| (pts[i] - pts[j]).abs());
//! let o = Optics { min_pts: 2, eps: f64::INFINITY }.run_matrix(&m);
//! let c = extract_clusters(&o, 1.0, 2);
//! assert_eq!(c.num_clusters(), 2);
//! ```

pub mod cluster;
pub mod eval;
pub mod hierarchy;
pub mod optics;
pub mod pairwise;
pub mod plot;

pub use cluster::{extract_clusters, Clustering};
pub use eval::{adjusted_rand_index, best_cut, pairwise_f1, purity, CutQuality, DEFAULT_GRID};
pub use hierarchy::{cluster_tree, ClusterNode, TreeParams};
pub use optics::{ClusterOrdering, Optics};
pub use pairwise::{pairwise_tiled, CondensedDistanceMatrix};
pub use plot::ReachabilityPlot;
