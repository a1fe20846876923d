#![forbid(unsafe_code)]
//! # vsim-voxel — voxel grids, voxelization and normalization
//!
//! The paper (Section 3) operates on *voxelized* CAD objects: each part is
//! an `r × r × r` occupancy grid (`r = 15` for the cover-sequence / vector
//! set models, `r = 30` for the volume and solid-angle histograms). This
//! crate provides:
//!
//! * [`VoxelGrid`] — bit-packed 3-D occupancy grids with surface /
//!   interior classification (the paper's `V̄ᵒ` and `V̇ᵒ` voxel sets).
//! * [`voxelize`] — rasterization of implicit solids and triangle meshes
//!   into normalized grids (translation + scaling normalization with
//!   stored per-axis scale factors, Section 3.2).
//! * [`normalize`] — the 24 axis-aligned 90°-rotations and 48 symmetries
//!   applied directly to grids, plus the principal-axis transform.

//! ```
//! use vsim_geom::solid::{Sphere, SolidExt};
//! use vsim_voxel::{voxelize_solid, NormalizeMode};
//!
//! let ball = Sphere { radius: 3.0 };
//! let v = voxelize_solid(&ball, 15, NormalizeMode::Uniform);
//! assert_eq!(v.grid.dims(), [15, 15, 15]);
//! // Surface and interior voxels partition the object (Section 3.3).
//! let (s, i) = (v.grid.surface().count(), v.grid.interior().count());
//! assert_eq!(s + i, v.grid.count());
//! ```

pub mod grid;
pub mod normalize;
pub mod voxelize;

pub use grid::VoxelGrid;
pub use normalize::{pca_rotation, rotate_grid, GridPose};
pub use voxelize::{voxelize_mesh, voxelize_solid, NormalizeMode, Voxelization};
