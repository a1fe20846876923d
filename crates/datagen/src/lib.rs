#![forbid(unsafe_code)]
//! # vsim-datagen — synthetic CAD part datasets
//!
//! The paper evaluates on two proprietary datasets: ~200 parts from a
//! German car manufacturer (tires, doors, fenders, engine blocks,
//! kinematic envelopes of seats, …) and 5000 parts from an American
//! aircraft producer ("many small objects (e.g. nuts, bolts, etc.) and a
//! few large ones (e.g. wings)"). Neither is available, so this crate
//! generates *labeled parametric part families* with the same structure:
//! intra-family geometric coherence with dimension jitter, inter-family
//! shape differences, and the Aircraft dataset's strong skew toward
//! small fasteners. See `DESIGN.md` §5 for why this substitution
//! preserves the paper's claims (and improves on visual inspection: the
//! labels make cluster quality measurable).
//!
//! Parts are modeled as implicit CSG solids ([`vsim_geom::solid`]) and
//! voxelized at `r = 15`, the raster the paper builds its cover
//! sequences and vector sets from (Section 3.3.3). The `r = 30` raster of
//! the volume and solid-angle histograms it compares against is made
//! where those baselines live, in `vsim-bench`, from the same solids
//! ([`dataset_solids`]).

pub mod aircraft;
pub mod car;
pub mod greeble;
pub mod parts;

use rand::prelude::*;
use vsim_geom::Solid;
use vsim_voxel::{voxelize_solid, NormalizeMode, VoxelGrid};

/// Raster resolution for the cover-sequence / vector-set models.
pub const R_COVER: usize = 15;
/// Raster resolution for the volume / solid-angle histograms (not
/// computed here: their only readers voxelize [`dataset_solids`] at it).
pub const R_HISTO: usize = 30;

/// One synthetic CAD part, voxelized at `R_COVER`.
#[derive(Debug, Clone)]
pub struct CadObject {
    pub id: u64,
    /// Ground-truth part-family label.
    pub label: usize,
    /// Voxelization at `r = 15`.
    pub grid15: VoxelGrid,
}

/// A labeled dataset of voxelized parts.
#[derive(Debug, Clone)]
pub struct Dataset {
    pub name: &'static str,
    pub objects: Vec<CadObject>,
    /// Family names, indexed by label.
    pub class_names: Vec<&'static str>,
}

impl Dataset {
    pub fn len(&self) -> usize {
        self.objects.len()
    }

    pub fn is_empty(&self) -> bool {
        self.objects.is_empty()
    }

    pub fn labels(&self) -> Vec<usize> {
        self.objects.iter().map(|o| o.label).collect()
    }

    /// Number of objects per family.
    pub fn class_histogram(&self) -> Vec<usize> {
        let mut h = vec![0usize; self.class_names.len()];
        for o in &self.objects {
            h[o.label] += 1;
        }
        h
    }
}

/// Jittered generator for a part family: each draw yields one solid.
pub type SolidGen = Box<dyn Fn(&mut StdRng) -> Box<dyn Solid> + Send + Sync>;

/// Specification of one part family: a name and a jittered generator.
pub struct Family {
    pub name: &'static str,
    /// Relative frequency weight within the dataset.
    pub weight: f64,
    pub gen: SolidGen,
}

/// Build a dataset of `n` objects drawn from `families` with the given
/// weights, voxelizing each part at `R_COVER` in parallel.
/// Deterministic for a fixed `seed`.
pub fn build_dataset(name: &'static str, families: Vec<Family>, n: usize, seed: u64) -> Dataset {
    let labels = labels(&families, n, seed);
    // Parallel voxelization with per-object seeded RNGs (determinism
    // independent of thread scheduling).
    let objects = vsim_parallel::par_map_slice(&labels, |i, &label| {
        let solid = object_solid(&families[label], seed, i);
        let grid15 = voxelize_solid(solid.as_ref(), R_COVER, NormalizeMode::Uniform).grid;
        CadObject { id: i as u64, label, grid15 }
    });

    Dataset { name, objects, class_names: families.iter().map(|f| f.name).collect() }
}

/// The `n` greebled solids `build_dataset(.., families, n, seed)`
/// voxelizes, in object order.
pub fn dataset_solids(families: &[Family], n: usize, seed: u64) -> Vec<Box<dyn Solid>> {
    let labels = labels(families, n, seed);
    labels.iter().enumerate().map(|(i, &label)| object_solid(&families[label], seed, i)).collect()
}

/// Object `i`'s solid: a draw of its family under the standard greebles.
fn object_solid(family: &Family, seed: u64, i: usize) -> Box<dyn Solid> {
    let mut rng = StdRng::seed_from_u64(seed.wrapping_add(i as u64 * 0x9e37_79b9));
    crate::greeble::standard_greebles((family.gen)(&mut rng), &mut rng)
}

/// The family label of each of `n` objects.
fn labels(families: &[Family], n: usize, seed: u64) -> Vec<usize> {
    assert!(!families.is_empty());
    let total_w: f64 = families.iter().map(|f| f.weight).sum();
    // Deterministic per-object assignment: stratified by cumulative
    // weight so exact proportions hold, then a seeded shuffle.
    let mut labels: Vec<usize> = Vec::with_capacity(n);
    let mut acc = 0.0;
    let mut prev = 0usize;
    for (li, f) in families.iter().enumerate() {
        acc += f.weight;
        let upto = ((acc / total_w) * n as f64).round() as usize;
        for _ in prev..upto.min(n) {
            labels.push(li);
        }
        prev = upto.min(n);
    }
    while labels.len() < n {
        labels.push(families.len() - 1);
    }
    let mut shuffle_rng = StdRng::seed_from_u64(seed ^ 0x5eed_5eed);
    labels.shuffle(&mut shuffle_rng);
    labels
}

/// Uniform jitter helper: `base * U(1-spread, 1+spread)`.
pub fn jitter(rng: &mut StdRng, base: f64, spread: f64) -> f64 {
    base * rng.gen_range(1.0 - spread..1.0 + spread)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_generation() {
        let a = car::car_dataset(42, 30);
        let b = car::car_dataset(42, 30);
        assert_eq!(a.len(), 30);
        for (x, y) in a.objects.iter().zip(&b.objects) {
            assert_eq!(x.label, y.label);
            assert_eq!(x.grid15, y.grid15);
        }
        let c = car::car_dataset(43, 30);
        let diff = a.objects.iter().zip(&c.objects).filter(|(x, y)| x.grid15 != y.grid15).count();
        assert!(diff > 20, "different seeds must differ ({diff}/30)");
    }

    #[test]
    fn dataset_solids_are_the_solids_the_dataset_voxelizes() {
        let d = aircraft::aircraft_dataset(7, 12);
        let solids = dataset_solids(&aircraft::aircraft_families(), 12, 7);
        assert_eq!(solids.len(), 12);
        for (o, s) in d.objects.iter().zip(&solids) {
            assert_eq!(o.grid15, voxelize_solid(s.as_ref(), R_COVER, NormalizeMode::Uniform).grid);
        }
    }

    #[test]
    fn grids_are_nonempty_and_normalized() {
        let d = car::car_dataset(7, 40);
        for o in &d.objects {
            assert!(o.grid15.count() > 10, "object {} too sparse at r=15", o.id);
            // Normalization: the object spans the full raster along its
            // largest extent.
            let (min, max) = o.grid15.occupied_bounds().unwrap();
            let span = (0..3).map(|d| max[d] - min[d]).max().unwrap();
            assert!(span >= 12, "object {} does not fill the raster", o.id);
        }
    }

    #[test]
    fn class_proportions_respect_weights() {
        let d = aircraft::aircraft_dataset(1, 500);
        let h = d.class_histogram();
        // Fasteners dominate (paper: "many small objects ... a few large
        // ones").
        let nut = d.class_names.iter().position(|&n| n == "nut").unwrap();
        let wing = d.class_names.iter().position(|&n| n == "wing").unwrap();
        assert!(h[nut] > 8 * h[wing], "nut {} vs wing {}", h[nut], h[wing]);
        assert_eq!(h.iter().sum::<usize>(), 500);
    }

    #[test]
    fn intra_class_variation_exists() {
        let d = car::car_dataset(3, 60);
        // Two objects of the same class must (almost always) differ.
        let mut same_class_pairs = 0;
        let mut identical = 0;
        for i in 0..d.len() {
            for j in (i + 1)..d.len() {
                if d.objects[i].label == d.objects[j].label {
                    same_class_pairs += 1;
                    if d.objects[i].grid15 == d.objects[j].grid15 {
                        identical += 1;
                    }
                }
            }
        }
        assert!(same_class_pairs > 0);
        assert!(
            (identical as f64) < 0.2 * same_class_pairs as f64,
            "{identical}/{same_class_pairs} identical same-class pairs"
        );
    }

    #[test]
    fn all_classes_are_represented() {
        let car = car::car_dataset(5, 100);
        assert!(car.class_histogram().iter().all(|&c| c > 0));
        let air = aircraft::aircraft_dataset(5, 300);
        assert!(air.class_histogram().iter().all(|&c| c > 0));
    }
}
