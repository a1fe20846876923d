#![forbid(unsafe_code)]
//! # vsim-setdist — distances on feature vectors and vector sets
//!
//! This crate implements Section 4 of the paper: the *minimal matching
//! distance* on sets of feature vectors (Definition 6), its efficient
//! `O(k³)` computation via the Kuhn–Munkres (Hungarian) algorithm, the
//! *minimum Euclidean distance under permutation* of the one-vector model
//! (Definition 4) derived from it, and the *extended centroid* filter
//! (Definitions 7/8, Lemma 2) — the matching distance, its lower bound
//! and nothing else. The comparison distances Section 4.2 surveys only
//! to reject (Hausdorff, sum of minimum distances, (fair) surjection,
//! link, netflow) live with their one caller, the distance ablation, in
//! `vsim_bench::{setdists, flow}`.
//!
//! ## Quick tour
//!
//! ```
//! use vsim_setdist::{centroid_lower_bound, extended_centroid, MinimalMatching, VectorSet};
//!
//! let mut x = VectorSet::new(2);
//! x.push(&[0.0, 0.0]);
//! x.push(&[1.0, 0.0]);
//! let mut y = VectorSet::new(2);
//! y.push(&[1.0, 0.0]);
//! y.push(&[0.0, 0.1]);
//!
//! // Vector set model distance: Euclidean point distance, weight = norm.
//! let mm = MinimalMatching::vector_set_model();
//! let out = mm.match_sets(&x, &y);
//! assert!((out.cost - 0.1).abs() < 1e-12); // matches 0↔1, 1↔0
//! assert_eq!(out.pairs, vec![(0, 1), (1, 0)]);
//! assert_eq!(mm.distance_value(&x, &y), out.cost);
//!
//! // Lemma 2: the extended centroids bound the distance from below.
//! let (cx, cy) = (extended_centroid(&x, 2, &[0.0; 2]), extended_centroid(&y, 2, &[0.0; 2]));
//! assert!(centroid_lower_bound(&mm, &cx, &cy, 2) <= out.cost);
//! ```

pub mod centroid;
pub mod engine;
pub mod hungarian;
pub mod lp;
pub mod matching;
pub mod metric;
pub mod simd;
pub mod types;

pub use centroid::{centroid_lower_bound, extended_centroid};
pub use engine::{MatchingEngine, Operand, PrefilteredDistance, PreparedSet};
pub use matching::{MatchOutcome, MinimalMatching};
pub use metric::Distance;
pub use types::VectorSet;
