#![forbid(unsafe_code)]
//! # vsim-core — similarity search on voxelized CAD objects
//!
//! A faithful reproduction of *"Using Sets of Feature Vectors for
//! Similarity Search on Voxelized CAD Objects"* (Kriegel, Brecheisen,
//! Kröger, Pfeifle, Schubert — SIGMOD 2003) as a reusable Rust library.
//!
//! The paper's pipeline, end to end:
//!
//! ```text
//! CAD part ──voxelize──▶ r³ grid ──feature transform──▶ representation
//!                                                          │
//!        volume / solid-angle histograms (r = 30) ─────────┤ one vector
//!        cover sequence, 6k dims with dummies (r = 15) ────┤ one vector
//!        vector set: ≤ k six-dim covers (r = 15) ──────────┘ vector SET
//!
//! distance: Euclidean  |  min. Euclidean under permutation  |
//!           minimal matching distance (Kuhn–Munkres, O(k³))
//! queries:  X-tree over extended centroids + refine (Lemma 2 bound)
//! eval:     OPTICS reachability plots + labeled-cluster scores
//! ```
//!
//! ## Quickstart
//!
//! ```
//! use vsim_core::prelude::*;
//!
//! // A small labeled dataset of synthetic car parts.
//! let data = car_dataset(42, 40);
//! let processed = ProcessedDataset::build(data, 7);
//!
//! // The paper's vector set model with minimal matching distance.
//! let model = SimilarityModel::vector_set(7);
//! let reprs = processed.representations(&model);
//! let d = model.distance(&reprs[0], &reprs[1]);
//! assert!(d >= 0.0);
//!
//! // Filter/refine 10-NN search over the vector sets.
//! let sets = processed.vector_sets(7);
//! let index = FilterRefineIndex::build(&sets, 6, 7);
//! let (hits, stats) = index.knn(&sets[0], 10);
//! assert_eq!(hits[0].0, 0); // the query object itself
//! assert!(stats.refinements as usize <= processed.len());
//! ```

pub mod database;
pub mod model;

pub use database::ProcessedDataset;
pub use model::{Invariance, ModelKind, Repr, SimilarityModel};

/// Convenient re-exports of the full stack.
pub mod prelude {
    pub use crate::database::ProcessedDataset;
    pub use crate::model::{Invariance, ModelKind, Repr, SimilarityModel};
    pub use vsim_datagen::aircraft::aircraft_dataset;
    pub use vsim_datagen::car::car_dataset;
    pub use vsim_datagen::{CadObject, Dataset, R_COVER, R_HISTO};
    pub use vsim_features::{
        greedy_cover_sequence, CoverSequence, CoverSequenceModel, SolidAngleModel, VectorSetModel,
        VolumeModel,
    };
    pub use vsim_index::{BufferPool, CostModel, MTree, QueryContext, VectorSetStore, XTree};
    pub use vsim_optics::{best_cut, extract_clusters, ClusterOrdering, Optics, ReachabilityPlot};
    pub use vsim_query::{
        BatchResult, DynamicIndex, FilterRefineIndex, Query, QueryExecutor, QueryStats,
    };
    pub use vsim_setdist::{
        centroid_lower_bound, extended_centroid, matching::MinimalMatching, VectorSet,
    };
    pub use vsim_voxel::{voxelize_mesh, voxelize_solid, NormalizeMode, VoxelGrid};
}

pub use vsim_datagen as datagen;
pub use vsim_features as features;
pub use vsim_geom as geom;
pub use vsim_index as index;
pub use vsim_optics as optics;
pub use vsim_query as query;
pub use vsim_setdist as setdist;
pub use vsim_voxel as voxel;
