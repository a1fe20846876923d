#![forbid(unsafe_code)]
//! # vsim-features — feature transforms for voxelized CAD objects
//!
//! Section 4's vector set model, built on Section 3.3.3's covers:
//!
//! * [`greedy_cover_sequence`] — greedy rectangular covers minimizing
//!   the symmetric volume difference (Jagadish/Bruckstein).
//! * [`VectorSetModel`] — the covers as a *set* of 6-dimensional feature
//!   vectors, no dummies (Section 4), and
//!   [`cover::transform_vector_set`] for Definition 2's transforms in
//!   feature space.
//!
//! The models the paper compares it with (volume, solid-angle and the
//! one-vector cover sequence) live in the `vsim-bench` crate.

//! ```
//! use vsim_features::{greedy_cover_sequence, VectorSetModel};
//! use vsim_setdist::MinimalMatching;
//! use vsim_voxel::VoxelGrid;
//!
//! // A 6x6x6 block inside a 12-cube: one cover approximates it exactly.
//! let mut g = VoxelGrid::cubic(12);
//! for z in 3..9 { for y in 3..9 { for x in 3..9 { g.set(x, y, z, true); } } }
//! let seq = greedy_cover_sequence(&g, 7);
//! assert_eq!(seq.units.len(), 1);
//! assert_eq!(seq.final_error(), 0);
//!
//! // The vector set holds the one cover, no dummies; a smaller block
//! // in the same place is a small matching distance away.
//! let set = VectorSetModel::new(7).from_sequence(&seq);
//! assert_eq!(set.len(), 1);
//! let mut h = VoxelGrid::cubic(12);
//! for z in 3..8 { for y in 3..9 { for x in 3..9 { h.set(x, y, z, true); } } }
//! let d = MinimalMatching::vector_set_model().distance_value(&set, &VectorSetModel::new(7).extract(&h));
//! assert!(d > 0.0 && d < 0.2);
//! ```

pub mod cover;

pub use cover::{greedy_cover_sequence, CoverSequence, CoverUnit, Cuboid, Sign, VectorSetModel};
