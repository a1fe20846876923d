//! Processed datasets: the expensive per-object computations (greedy
//! cover sequences) done once, in parallel, and shared across models and
//! experiments, and the condensed minimal-matching matrix OPTICS orders.

use vsim_datagen::Dataset;
use vsim_features::{greedy_cover_sequence, CoverSequence, VectorSetModel};
use vsim_optics::{pairwise_tiled, CondensedDistanceMatrix};
use vsim_parallel::par_map_slice;
use vsim_setdist::{MatchingEngine, MinimalMatching, PreparedSet, VectorSet};

/// A dataset plus its precomputed cover sequences.
///
/// The greedy construction is *incremental*: the sequence for `k` covers
/// is a prefix of the sequence for `k_max ≥ k` covers, so one pass at
/// `k_max` serves every smaller `k` (used by Table 1's k ∈ {3,5,7,9}
/// sweep and Figure 9's 3-vs-7 comparison).
pub struct ProcessedDataset {
    pub dataset: Dataset,
    pub sequences: Vec<CoverSequence>,
    pub k_max: usize,
}

impl ProcessedDataset {
    /// Compute cover sequences for every object (parallel).
    pub fn build(dataset: Dataset, k_max: usize) -> Self {
        let sequences =
            par_map_slice(&dataset.objects, |_, o| greedy_cover_sequence(&o.grid15, k_max));
        ProcessedDataset { dataset, sequences, k_max }
    }

    pub fn len(&self) -> usize {
        self.dataset.len()
    }

    pub fn is_empty(&self) -> bool {
        self.dataset.is_empty()
    }

    pub fn labels(&self) -> Vec<usize> {
        self.dataset.labels()
    }

    /// Vector sets with at most `k ≤ k_max` covers.
    pub fn vector_sets(&self, k: usize) -> Vec<VectorSet> {
        assert!(k <= self.k_max, "k = {k} exceeds precomputed k_max = {}", self.k_max);
        let model = VectorSetModel::new(k);
        self.sequences.iter().map(|s| model.from_sequence(s)).collect()
    }
}

/// The condensed distance matrix of `sets` under `mm` (upper triangle, in
/// parallel tiles): the input of [`vsim_optics::Optics::run_matrix`].
/// Each worker holds one [`MatchingEngine`] over [`PreparedSet`]s, so the
/// build performs no per-pair allocation; every entry is bit-identical to
/// [`MinimalMatching::distance_value`].
pub fn matching_matrix(sets: Vec<VectorSet>, mm: MinimalMatching) -> CondensedDistanceMatrix {
    let prepared: Vec<PreparedSet> = sets.into_iter().map(|s| PreparedSet::new(s, &mm)).collect();
    pairwise_tiled(
        prepared.len(),
        32,
        || MatchingEngine::new(mm),
        |engine, i, j| engine.distance_prepared(&prepared[i], &prepared[j]),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use vsim_datagen::car::car_dataset;

    fn small() -> ProcessedDataset {
        ProcessedDataset::build(car_dataset(11, 20), 9)
    }

    #[test]
    fn sequences_cover_every_object() {
        let p = small();
        assert_eq!(p.sequences.len(), 20);
        for s in &p.sequences {
            assert!(!s.units.is_empty());
            assert!(s.units.len() <= 9);
        }
    }

    #[test]
    fn prefix_property_of_greedy_sequences() {
        // vector_sets(3) must be a prefix of vector_sets(7).
        let p = small();
        let v3 = p.vector_sets(3);
        let v7 = p.vector_sets(7);
        for (a, b) in v3.iter().zip(&v7) {
            assert!(a.len() <= 3);
            assert!(a.len() <= b.len());
            for i in 0..a.len() {
                assert_eq!(a.get(i), b.get(i));
            }
        }
    }

    #[test]
    #[should_panic]
    fn k_above_k_max_panics() {
        let p = ProcessedDataset::build(car_dataset(1, 5), 3);
        let _ = p.vector_sets(5);
    }
}
