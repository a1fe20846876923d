//! The data the compared models read: a processed dataset (`r = 15`
//! grids and their cover sequences) and each object's `r = 30` raster,
//! which only the volume and solid-angle histograms use. Ingest
//! voxelizes at `R_COVER` alone; the histogram rasters are made here,
//! from the same solids, the first time a histogram model asks.

use std::sync::OnceLock;
use vsim_core::ProcessedDataset;
use vsim_datagen::aircraft::{aircraft_dataset, aircraft_families};
use vsim_datagen::car::{car_dataset, car_families};
use vsim_datagen::{dataset_solids, Dataset, Family, R_HISTO};
use vsim_parallel::par_map_slice;
use vsim_voxel::{voxelize_solid, NormalizeMode, VoxelGrid};

/// A processed dataset and, once a histogram model asks, the `R_HISTO`
/// rasters of its objects.
pub struct Corpus {
    pub processed: ProcessedDataset,
    /// The families and seed the dataset was drawn with (empty when the
    /// rasters were given).
    families: Vec<Family>,
    seed: u64,
    grids30: OnceLock<Vec<VoxelGrid>>,
}

impl Corpus {
    /// `car_dataset(seed, n)` with cover sequences up to `k_max`.
    pub fn car(seed: u64, n: usize, k_max: usize) -> Self {
        Self::generated(car_dataset(seed, n), car_families(), seed, k_max)
    }

    /// `aircraft_dataset(seed, n)` with cover sequences up to `k_max`.
    pub fn aircraft(seed: u64, n: usize, k_max: usize) -> Self {
        Self::generated(aircraft_dataset(seed, n), aircraft_families(), seed, k_max)
    }

    fn generated(data: Dataset, families: Vec<Family>, seed: u64, k_max: usize) -> Self {
        let processed = ProcessedDataset::build(data, k_max);
        Corpus { processed, families, seed, grids30: OnceLock::new() }
    }

    /// Objects whose `r = 30` rasters are given: `grids30[i]` is
    /// object `i`'s.
    pub fn with_grids30(processed: ProcessedDataset, grids30: Vec<VoxelGrid>) -> Self {
        assert_eq!(processed.len(), grids30.len(), "one r = 30 raster per object");
        Corpus { processed, families: Vec::new(), seed: 0, grids30: OnceLock::from(grids30) }
    }

    /// Every object's raster at `R_HISTO`, in object order: the solids
    /// the dataset voxelized at `R_COVER`, voxelized again (in parallel)
    /// on the first call.
    pub fn grids30(&self) -> &[VoxelGrid] {
        self.grids30.get_or_init(|| {
            let solids = dataset_solids(&self.families, self.processed.len(), self.seed);
            par_map_slice(&solids, |_, s| {
                voxelize_solid(s.as_ref(), R_HISTO, NormalizeMode::Uniform).grid
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grids30_are_the_dataset_solids_at_r_histo() {
        let c = Corpus::aircraft(7, 12, 1);
        let solids = dataset_solids(&aircraft_families(), 12, 7);
        assert_eq!(c.grids30().len(), 12);
        for (g, s) in c.grids30().iter().zip(&solids) {
            assert_eq!(*g, voxelize_solid(s.as_ref(), R_HISTO, NormalizeMode::Uniform).grid);
        }
    }

    #[test]
    fn grids30_are_nonempty() {
        let c = Corpus::car(7, 40, 1);
        for (i, g) in c.grids30().iter().enumerate() {
            assert!(g.count() > 40, "object {i} too sparse at r=30");
        }
    }
}
